"""In-process passes over a workload's plan, one public call per span.

The benchmark of record times the program from outside (``run.py`` starts
``python -m repro`` children). This module is the other half: it
regenerates the same plan inside the benchmark's own process and walks it
stage by stage through the package's public functions, recording a span
around every call into a layer and a count at the same boundary. Nothing
under ``src/`` is instrumented.

The staged pass serves two purposes:

* it is an independent second path to the final digest (and to the exact
  engine-event count), which every command-line run is checked against;
* with ``--trace 1`` its spans become the per-layer table.

``repro`` is imported lazily, inside the functions: ``run.py`` decides at
run time which copy of the package (the staged build, or the one already
importable) is measured.
"""

from __future__ import annotations

import gc
import os
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median, quantiles

PROBE_SPANS = ("history.snapshot", "history.append", "monitors.replay")
"""Spans that repeat work the pipeline already did (so a layer can be
timed alone). They are extra: the traced total is compared with the
untraced run only after taking them out."""

CONTAINER_SPANS = ("workload", "job", "adaptive.batch", "adaptive.batch_run")
"""Spans that only group others. Their self time is time no stage span
covers, reported as ``trace.unattributed_share``."""

class Tracer:
    """Spans ``{name, start, end, parent, job}``, kept in memory.

    ``parent`` is the index of the enclosing span; ``job`` is inherited
    from it, so every span of one job shares the job's identifier.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def _enter(self, name: str, job: int | None = None) -> list:
        parent = self._open[-1] if self._open else None
        if job is None and parent is not None:
            job = self.spans[parent][4]
        record = [name, time.perf_counter(), None, parent, job]
        self._open.append(len(self.spans))
        self.spans.append(record)
        return record

    def _exit(self) -> None:
        self.spans[self._open.pop()][2] = time.perf_counter()

    @contextmanager
    def span(self, name: str, job: int | None = None):
        record = self._enter(name, job)
        try:
            yield record
        finally:
            self._exit()

    @contextmanager
    def cyclic_gc_spans(self):
        """Record every run of the cyclic collector as a ``runtime.gc``
        span under whichever span it interrupted."""

        def hook(phase: str, info: dict) -> None:
            if phase == "start":
                self._enter("runtime.gc")
            else:
                self._exit()

        gc.callbacks.append(hook)
        try:
            yield
        finally:
            gc.callbacks.remove(hook)

    def total(self, *names: str) -> float:
        return sum(
            end - start for n, start, end, _, _ in self.spans if n in names
        )

    def self_time(self, *names: str) -> float:
        """Summed duration of the named spans minus their children's."""
        covered: Counter = Counter()
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return sum(
            end - start - covered[index]
            for index, (n, start, end, _, _) in enumerate(self.spans)
            if n in names
        )

    def dump(self) -> list[dict]:
        return [
            {"id": index, "name": name, "start": start, "end": end,
             "parent": parent, "job": job}
            for index, (name, start, end, parent, job)
            in enumerate(self.spans)
        ]


@dataclass
class Pass:
    """What one staged pass produced: the digest(s), the per-job results
    with their job specs (for the journal probe), and exact counts."""

    digest: str
    coverage: str | None
    findings: int
    jobs: list
    results: list
    counts: Counter = field(default_factory=Counter)


@contextmanager
def _cyclic_gc_paused():
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _count_world(counts: Counter, world) -> None:
    network = world.network
    counts["engine_events"] += world.scheduler.processed
    counts["recorded_events"] += len(world.trace)
    counts["messages_sent"] += (
        network.app_messages_sent
        + network.protocol_messages_sent
        + network.system_messages_sent
    )


def _probe_history(tracer: Tracer, world, failure_model: str) -> None:
    """Time core.history and analysis.monitors alone, on this world's
    finished history: snapshot, re-append into a fresh builder, replay."""
    from repro.analysis.monitors import MonitorSet
    from repro.core.history import HistoryBuilder

    with tracer.span("history.snapshot"):
        history = world.history()
    events = history.events
    with tracer.span("history.append"):
        HistoryBuilder(history.n).append(*events)
    with tracer.span("monitors.replay"):
        MonitorSet(
            history.n, pending_ok=True, failure_model=failure_model
        ).replay(history)


# ----------------------------------------------------------------------
# Staged pipelines
# ----------------------------------------------------------------------


def staged_pass(tracer: Tracer, workload, seed: int) -> Pass:
    """Walk the workload's plan stage by stage under a ``workload`` span.

    The collector runs as it does in the program: a fuzz campaign pauses
    it (worlds are dispose()d, so nothing cyclic piles up); the sweep
    drivers neither pause it nor dispose, so there it runs and its runs
    are spans of their own.
    """
    # Every layer is imported before the clock starts.
    import repro.analysis.fuzz  # noqa: F401
    import repro.analysis.sweep  # noqa: F401

    if workload.planner == "sweep":
        with tracer.cyclic_gc_spans(), tracer.span("workload"):
            return _staged_sweep(tracer, workload, seed)
    with _cyclic_gc_paused(), tracer.span("workload"):
        return _staged_fuzz(tracer, workload, seed)


def _staged_fuzz(tracer: Tracer, workload, seed: int) -> Pass:
    from repro.analysis.coverage import CoverageMap, derive_weights
    from repro.analysis.fuzz import (
        FUZZ_MAX_EVENTS,
        AdaptiveReport,
        BatchRecord,
        FuzzConfig,
        FuzzReport,
        build_scenario_world,
        generate_scenario,
        generate_weighted_scenario,
        judge_world,
        scenario_job,
    )

    config = FuzzConfig(**dict(workload.config))
    count = workload.jobs
    counts: Counter = Counter(jobs=count)
    jobs = []
    outcomes = []

    def run_job(index: int, weights) -> None:
        with tracer.span("job", job=index):
            if weights is None:
                with tracer.span("fuzz.generate"):
                    scenario = generate_scenario(seed, index, config)
            else:
                with tracer.span("fuzz.generate_weighted"):
                    scenario = generate_weighted_scenario(
                        seed, index, config, weights
                    )
            with tracer.span("fuzz.build_world"):
                world = build_scenario_world(scenario)
                world.start()
            with tracer.span("sim.run"):
                if scenario.horizon is None:
                    world.scheduler.run_to_quiescence(
                        max_events=FUZZ_MAX_EVENTS
                    )
                else:
                    world.scheduler.run(
                        until=scenario.horizon, max_events=FUZZ_MAX_EVENTS
                    )
            with tracer.span("fuzz.judge"):
                outcome = judge_world(scenario, world)
            _count_world(counts, world)
            _probe_history(tracer, world, scenario.failure_model)
            with tracer.span("sim.dispose"):
                # Dropping the last reference is where the world's
                # objects are actually freed.
                world.dispose()
                del world
        jobs.append(scenario_job(seed, index, config, weights=weights))
        outcomes.append(outcome)

    if workload.planner == "fuzz":
        for index in range(count):
            run_job(index, None)
        with tracer.span("fuzz.digest"):
            report = FuzzReport(seed, count, tuple(outcomes))
            digest = report.digest()
        coverage_digest = None
    else:
        # The adaptive loop, batch by batch, exactly as the campaign
        # runs it: weights from the coverage so far, the batch's jobs,
        # then the fold. The digest check against the command line is
        # what keeps this copy of the loop honest.
        coverage = CoverageMap()
        records = []
        start = 0
        while start < count:
            end = min(count, start + workload.batch)
            with tracer.span("adaptive.batch"):
                with tracer.span("coverage.derive_weights"):
                    weights = derive_weights(config, coverage)
                with tracer.span("adaptive.batch_run"):
                    for index in range(start, end):
                        run_job(index, weights)
                before = len(coverage)
                with tracer.span("coverage.add_outcome"):
                    for outcome in outcomes[start:end]:
                        coverage.add_outcome(outcome)
                records.append(
                    BatchRecord(
                        batch=len(records), start=start, end=end,
                        new_features=len(coverage) - before,
                        coverage_digest=coverage.digest(),
                    )
                )
            start = end
        counts["batches"] = len(records)
        with tracer.span("fuzz.digest"):
            report = FuzzReport(seed, count, tuple(outcomes))
            digest = AdaptiveReport(
                report, coverage, tuple(records), workload.batch
            ).digest()
        coverage_digest = coverage.digest()

    return Pass(
        digest=digest,
        coverage=coverage_digest,
        findings=sum(1 for outcome in outcomes if outcome.findings),
        jobs=jobs,
        results=outcomes,
        counts=counts,
    )


def _staged_sweep(tracer: Tracer, workload, seed: int) -> Pass:
    """Experiment e7 stage by stage: the driver builds and runs its
    worlds internally, so its steps are repeated here from public
    functions (the digest check against the command line guards the
    copy)."""
    from repro.analysis.experiments import E7Row
    from repro.analysis.sweep import (
        SweepRow,
        case_to_job,
        plan_cases,
        rows_digest,
        sweep_table,
    )
    from repro.core.failed_before import is_acyclic
    from repro.core.indistinguishability import (
        ensure_crashes,
        fail_stop_witness,
        verify_witness,
    )
    from repro.protocols.sfs import SfsProcess
    from repro.protocols.unilateral import UnilateralProcess
    from repro.sim.delays import UniformDelay
    from repro.sim.world import build_world

    factories = (
        ("unilateral", lambda: UnilateralProcess()),
        ("sfs", lambda: SfsProcess(t=2)),
    )
    seeds = [seed + k for k in range(workload.jobs)]
    with tracer.span("sweep.plan"):
        cases = plan_cases("e7", seeds, params={"n": workload.sweep_n})
        jobs = [case_to_job(case) for case in cases]
    counts: Counter = Counter(jobs=len(cases))
    per_case = []
    for index, case in enumerate(cases):
        rows = []
        with tracer.span("job", job=index):
            for protocol, factory in factories:
                with tracer.span("sweep.build_world"):
                    world = build_world(
                        workload.sweep_n, factory,
                        delay_model=UniformDelay(0.2, 2.0), seed=case.seed,
                    )
                    world.inject_suspicion(0, 1, at=1.0)
                    world.inject_suspicion(1, 0, at=1.0)
                    world.start()
                with tracer.span("sim.run"):
                    world.run_to_quiescence()
                with tracer.span("sweep.judge"):
                    history = ensure_crashes(world.history())
                    cyclic = not is_acyclic(history)
                    try:
                        witness = fail_stop_witness(history)
                        distinguishable = bool(
                            verify_witness(history, witness)
                        )
                    except Exception:  # as the driver: no witness exists
                        distinguishable = True
                _count_world(counts, world)
                _probe_history(tracer, world, "fail-stop")
                with tracer.span("sim.dispose"):
                    # The driver just drops its world: the cycles are
                    # left to the collector.
                    del world
                rows.append(
                    SweepRow(
                        "e7", case.seed, case.params,
                        E7Row(protocol, 1, int(cyclic), int(distinguishable)),
                    )
                )
        per_case.append(rows)
    flat = [row for rows in per_case for row in rows]
    with tracer.span("sweep.digest"):
        digest = rows_digest(flat)
    with tracer.span("sweep.table"):
        sweep_table(flat)
    return Pass(
        digest=digest, coverage=None, findings=0,
        jobs=jobs, results=per_case, counts=counts,
    )


# ----------------------------------------------------------------------
# The one-call public API, on a chosen backend
# ----------------------------------------------------------------------


class ArrivalSink:
    """A result sink that only notes when each result arrived."""

    def __init__(self) -> None:
        self.arrivals: list[float] = []

    def open(self, total: int) -> None:
        pass

    def emit(self, index: int, job, result) -> None:
        self.arrivals.append(time.perf_counter())

    def close(self) -> None:
        pass


@dataclass
class ApiRun:
    digest: str
    wall: float
    cpu: float
    started: float
    arrivals: list[float]


def _tree_cpu() -> float:
    # Own time from the high-resolution clock (os.times() counts in
    # ticks of 10 ms); children's, which only os.times() has, once they
    # have been reaped.
    t = os.times()
    return time.process_time() + t.children_user + t.children_system


def api_run(
    workload, seed: int, backend: str, journal: Path | None = None
) -> ApiRun:
    """The plan through ``run_fuzz`` / ``run_adaptive_fuzz`` /
    ``run_sweep`` in this process, configured as the command line
    configures it for ``backend``."""
    from repro.analysis.fuzz import FuzzConfig, run_adaptive_fuzz, run_fuzz
    from repro.analysis.sweep import rows_digest, run_sweep
    from repro.sim.multiworld import ShardedRunner

    sink = ArrivalSink()
    common: dict = {"backend": backend, "sink": sink}
    if backend == "remote":
        common["remote_workers"] = 2
    if journal is not None:
        common["journal"] = journal
        common["resume"] = workload.journal == "resume"
    cpu = _tree_cpu()
    started = time.perf_counter()
    if workload.planner == "sweep":
        seeds = [seed + k for k in range(workload.jobs)]
        digest = rows_digest(
            run_sweep("e7", seeds, params={"n": workload.sweep_n}, **common)
        )
    else:
        config = FuzzConfig(**dict(workload.config))
        if backend == "inproc":  # the fuzz command line's defaults
            common["runner"] = ShardedRunner(
                stepping="round_robin", quantum=512, window=64
            )
        if workload.planner == "adaptive":
            digest = run_adaptive_fuzz(
                seed, workload.jobs, config, batch=workload.batch, **common
            ).digest()
        else:
            digest = run_fuzz(seed, workload.jobs, config, **common).digest()
    wall = time.perf_counter() - started
    return ApiRun(digest, wall, _tree_cpu() - cpu, started, sink.arrivals)


# ----------------------------------------------------------------------
# Standalone probes
# ----------------------------------------------------------------------


def probe_journal(tracer: Tracer, path: Path, staged: Pass) -> int:
    """``Journal`` record then read over results computed beforehand (no
    simulation); returns the journal's size in bytes."""
    from repro.exec import Journal

    with tracer.span("journal.record"):
        with Journal(path) as journal:
            journal.begin(staged.jobs)
            for index, (job, result) in enumerate(
                zip(staged.jobs, staged.results)
            ):
                journal.record(index, job, result)
    size = path.stat().st_size
    with tracer.span("journal.read"):
        entries = Journal(path).entries(staged.jobs)
    if len(entries) != len(staged.jobs):
        raise RuntimeError(
            f"journal probe read back {len(entries)} of "
            f"{len(staged.jobs)} entries"
        )
    return size


def probe_executors(tracer: Tracer, jobs: int) -> dict[str, float]:
    """``run_jobs`` over no-op jobs, once per backend: what is left is
    the executor's own cost (spawn and handshake included). Returns
    microseconds per job by backend."""
    from repro.exec import JobSpec, make_executor, run_jobs

    plan = [
        JobSpec(kind="noop_job:run", spec_id="noop", seed=index)
        for index in range(jobs)
    ]
    costs = {}
    for backend in ("serial", "inproc", "parallel", "remote"):
        executor = make_executor(
            backend, workers=2,
            remote_workers=2 if backend == "remote" else None,
        )
        with tracer.span(f"exec.{backend}") as record:
            results = run_jobs(plan, executor=executor)
        if results != list(range(jobs)):
            raise RuntimeError(f"no-op jobs came back wrong on {backend}")
        costs[backend] = 1e6 * (record[2] - record[1]) / jobs
    return costs


# ----------------------------------------------------------------------
# The layer table
# ----------------------------------------------------------------------


def layer_metrics(
    tracer: Tracer,
    workload,
    staged: Pass,
    journal_bytes: int,
    executor_costs: dict[str, float],
    cli_wall: float,
    cli_startup: float,
    backend_run: ApiRun,
    serial_run: ApiRun,
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric this workload has, as ``name -> (value,
    unit)``. Shares are of one; ``us``/``ms`` are micro/milliseconds."""
    total = tracer.total
    counts = staged.counts
    jobs = counts["jobs"]
    engine = counts["engine_events"]
    recorded = counts["recorded_events"]
    metrics: dict[str, tuple[float, str]] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = (value, unit)

    def seconds(*names: str) -> None:
        for name in names:
            put(f"{name}.s", total(name), "s")

    seconds("sim.run", "sim.dispose", "history.snapshot", "history.append",
            "monitors.replay")
    put("sim.run.engine_events", engine, "count")
    put("sim.run.recorded_events", recorded, "count")
    put("sim.run.us_per_engine_event", 1e6 * total("sim.run") / engine, "us")
    put("sim.net.messages_sent", counts["messages_sent"], "count")
    put("history.append.us_per_event",
        1e6 * total("history.append") / recorded, "us")
    put("monitors.replay.us_per_event",
        1e6 * total("monitors.replay") / recorded, "us")

    if workload.planner == "sweep":
        seconds("sweep.plan", "sweep.build_world", "sweep.judge",
                "sweep.digest", "sweep.table", "runtime.gc")
        put("runtime.gc.collections",
            sum(span[0] == "runtime.gc" for span in tracer.spans), "count")
        # The driver as the program runs it, one case per arrival.
        edges = [serial_run.started, *serial_run.arrivals]
        cases = [1e3 * (b - a) for a, b in zip(edges, edges[1:])]
        put("sweep.run_case.s", sum(cases) / 1e3, "s")
        put("sweep.run_case.ms_p50", median(cases), "ms")
        put("sweep.run_case.ms_p90", quantiles(cases, n=10)[-1], "ms")
    else:
        seconds("fuzz.build_world", "fuzz.judge", "fuzz.digest")
    if workload.planner == "fuzz":
        seconds("fuzz.generate")
    if workload.planner == "adaptive":
        batches = counts["batches"]
        put("fuzz.generate_weighted.us_per_job",
            1e6 * total("fuzz.generate_weighted") / jobs, "us")
        put("adaptive.batches", batches, "count")
        seconds("adaptive.batch_run")
        put("adaptive.batch_gap.s",
            total("adaptive.batch") - total("adaptive.batch_run"), "s")
        put("coverage.add_outcome.us_per_job",
            1e6 * total("coverage.add_outcome") / jobs, "us")
        put("coverage.derive_weights.us_per_batch",
            1e6 * total("coverage.derive_weights") / batches, "us")

    for backend, cost in executor_costs.items():
        put(f"exec.{backend}.us_per_noop_job", cost, "us")
    if workload.backend == "remote":
        first, last = backend_run.arrivals[0], backend_run.arrivals[-1]
        put("exec.remote.fleet_up.s", first - backend_run.started, "s")
        put("exec.remote.steady.s", last - first, "s")
        put("exec.remote.fleet_down.s",
            backend_run.started + backend_run.wall - last, "s")
        put("exec.remote.cpu_over_serial",
            backend_run.cpu / serial_run.cpu, "ratio")

    put("journal.record.us_per_job",
        1e6 * total("journal.record") / jobs, "us")
    put("journal.bytes_per_job", journal_bytes / jobs, "bytes")
    put("journal.read.us_per_entry",
        1e6 * total("journal.read") / jobs, "us")

    put("cli.startup.s", cli_startup, "s")
    put("cli.over_api.s", cli_wall - backend_run.wall, "s")

    traced = total("workload")
    put("trace.overhead_share",
        (traced - total(*PROBE_SPANS)) / serial_run.wall - 1.0, "ratio")
    put("trace.unattributed_share",
        tracer.self_time(*CONTAINER_SPANS) / traced, "ratio")
    return metrics
