"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``version`` — print the package version and which event core is active
  (the compiled ``accel`` extension or the ``pure`` Python reference; see
  :mod:`repro._core` and the ``REPRO_CORE`` environment variable).
* ``demo`` — run the quickstart scenario and print the conformance report
  plus the Theorem 5 witness verdict.
* ``bounds N [T]`` — print the Theorem 7 / Corollary 8 bounds for a
  system of N processes (all t up to the feasibility edge, or just T).
* ``experiment EID`` — run one experiment driver (e1..e11, a1) at reduced
  scale and print its table.
* ``sweep EID`` — run a deterministic multi-seed sweep of one seeded
  experiment, on a process pool over every usable CPU by default
  (``--jobs`` sets its size) or a worker fleet (``--backend remote``);
  all backends print bit-identical rows and the same content digest.
  ``--early-stop`` aborts each case at its first streaming-monitor
  violation (supported drivers only, e.g. e14); ``--list`` prints the
  registered sweepable experiments.
* ``fuzz`` — generate seeded adversarial scenarios (topology, faults,
  adversary schedules, detectors, protocols) and run them, one world at
  a time per worker (one worker per usable CPU by default), with
  streaming monitors attached, flagging any scenario whose
  streaming and batch verdicts disagree or that violates a property its
  configuration must satisfy. Fully reproducible: the same
  ``--seed``/``--count`` print the same digest.
* ``monitor EID`` — run one monitored scenario with streaming
  analyze-on-append conformance monitors, printing each safety
  violation live at the event where its verdict locks; ``--stop``
  halts the world there instead of running on.
* ``cycle K`` — run the Theorem 6 adversarial construction for a k-cycle
  and print the impossibility certificate.
* ``worker`` — serve jobs for a remote coordinator
  (``--backend remote``): dial a coordinator with ``--connect host:port``
  or await one with ``--listen host:port``. See
  :mod:`repro.exec.remote`.

``sweep``, ``fuzz``, and ``monitor`` all execute through the unified
execution layer (:mod:`repro.exec`) and share its checkpoint flags:
``--journal PATH`` checkpoints every completed case to a JSONL file as
it lands, and ``--resume`` restores journaled cases instead of
re-running them — a killed run resumed at any case boundary prints the
same digest as an uninterrupted one. ``sweep``/``fuzz`` additionally
take ``--backend`` to pick the executor (results are bit-identical on
all of them; ``monitor`` prints from inside its one run, so it has no
choice to offer), ``--stream`` to print each result live, in
deterministic order, as the finished prefix grows, and ``--backend
remote`` with ``--workers`` (an integer to spawn local worker processes,
or ``host:port,...`` to dial out) dispatches the plan to a fleet watched
by the repo's own failure detectors — still bit-identical.

A :class:`~repro.errors.ReproError` out of any command (parameters the
paper's bounds rule out, a pid that does not exist, a journal written
for another plan) is one ``<command> failed: ...`` line on stderr and a
non-zero exit code, never a traceback.
"""

from __future__ import annotations

import argparse
import ast
import sys


def _parse_param(text: str) -> tuple[str, object]:
    """Parse one ``--param name=value`` pair (value via literal_eval)."""
    name, sep, raw = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(
            f"expected name=value, got {text!r}"
        )
    try:
        value: object = ast.literal_eval(raw)
    except (ValueError, SyntaxError):
        value = raw
    return name, value


# Mirrors repro.core.failure_models.FAILURE_MODEL_NAMES; spelled out here
# so building the argument parser stays import-light (subcommand bodies
# import the heavy modules lazily).
_FAILURE_MODELS = ("fail-stop", "crash-recovery", "byzantine-crash")


def _parse_seeds(text: str) -> list[int]:
    """``20`` means seeds 0..19; ``3,5,8`` means exactly those seeds.

    A single specific seed is the one-element list form: ``7,``.
    """
    if "," in text:
        return [int(part) for part in text.split(",") if part.strip()]
    return list(range(int(text)))


def _add_exec_flags(
    parser: "argparse.ArgumentParser", backend_help: str | None = None
) -> None:
    """The execution-layer flags shared by sweep, fuzz, and monitor
    (which runs in this process only: no ``backend_help``, no
    ``--backend``)."""
    if backend_help is not None:
        parser.add_argument(
            "--backend", choices=("serial", "parallel", "inproc", "remote"),
            default=None, help=backend_help,
        )
        parser.add_argument(
            "--workers", metavar="N|HOST:PORT,...", default=None,
            help="--backend remote fleet: an integer spawns that many "
                 "local worker processes; a comma list of host:port "
                 "addresses dials out to workers started with "
                 "'python -m repro worker --listen host:port' "
                 "(default: 2 spawned workers)",
        )
    parser.add_argument(
        "--journal", metavar="PATH", default=None,
        help="checkpoint every completed case to this JSONL file as it "
             "finishes; a killed run can be resumed from it",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="restore cases already recorded in --journal instead of "
             "re-running them (the final digest is bit-identical to an "
             "uninterrupted run)",
    )


def _cmd_version(args: argparse.Namespace) -> int:
    import repro

    info = repro.core_info()
    print(f"repro {info['version']} (python {info['python']})")
    how = {
        "env": "forced via REPRO_CORE",
        "auto": "auto-detected",
    }[info["selection"]]
    print(f"event core: {info['core']} ({how})")
    if info["accel_import_error"]:
        print(f"compiled core unavailable: {info['accel_import_error']}")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.analysis.checker import analyze
    from repro.core.indistinguishability import ensure_crashes
    from repro.protocols.sfs import SfsProcess
    from repro.sim.world import build_world

    world = build_world(args.n, lambda: SfsProcess(t=args.t), seed=args.seed)
    world.inject_crash(args.n - 2, at=0.5)
    world.inject_suspicion(0, args.n - 2, at=1.0)
    world.adversary.hold_suspicions_about(args.n - 1, {args.n - 1})
    world.inject_suspicion(1, args.n - 1, at=1.2)
    world.scheduler.schedule_at(25.0, world.adversary.heal)
    world.run_to_quiescence()
    history = ensure_crashes(world.history())
    report = analyze(history, world.trace.quorum_records, t=args.t,
                     complete=False)
    print(f"n={args.n} t={args.t} seed={args.seed}: "
          f"{len(history)} events, crashed="
          f"{sorted(history.crashed_processes())}")
    print(report.summary())
    return 0 if report.indistinguishable_from_fail_stop else 1


def _cmd_bounds(args: argparse.Namespace) -> int:
    from repro.analysis.report import print_table
    from repro.core.bounds import bounds_table

    if args.n < 1:
        print("bounds: N must be at least 1", file=sys.stderr)
        return 2
    if args.t is not None and not 1 <= args.t <= args.n:
        print(f"bounds: T must be between 1 and N={args.n}", file=sys.stderr)
        return 2
    ts = [args.t] if args.t is not None else None
    rows = bounds_table([args.n], ts=ts)
    print_table(f"Theorem 7 / Corollary 8 bounds for n={args.n}", rows)
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.analysis.experiments import (
        run_e1,
        run_e2,
        run_e3,
        run_e4,
        run_e5,
        run_e6,
        run_e7,
        run_e8,
        run_e9,
        run_e10,
    )
    from repro.analysis.extensions import run_a1, run_e11
    from repro.analysis.report import print_table

    small = range(8)
    drivers = {
        "e1": lambda: run_e1(seeds=small),
        "e2": lambda: run_e2(seeds=small),
        "e3": lambda: run_e3(),
        "e4": lambda: run_e4(),
        "e5": lambda: run_e5(seeds=small),
        "e6": lambda: run_e6(),
        "e7": lambda: run_e7(seeds=range(16)),
        "e8": lambda: run_e8(seeds=small),
        "e9": lambda: run_e9(seeds=small),
        "e10": lambda: run_e10(seeds=range(4)),
        "e11": lambda: run_e11(seeds=small),
        "a1": lambda: run_a1(seeds=range(4)),
    }
    eid = args.eid.lower()
    if eid not in drivers:
        print(f"unknown experiment {args.eid!r}; choose from "
              f"{', '.join(sorted(drivers))}", file=sys.stderr)
        return 2
    rows = drivers[eid]()
    if not isinstance(rows, list):
        rows = [rows]
    print_table(f"experiment {eid.upper()} (reduced scale)", rows)
    return 0


class _StreamSink:
    """A :class:`repro.exec.ResultSink` printing results as they land.

    The execution core guarantees in-order delivery of the finished
    prefix, so these lines are final the moment they print — no later
    completion can reorder or retract them.
    """

    def __init__(self, render) -> None:
        self._render = render
        self.total = 0

    def open(self, total: int) -> None:
        self.total = total

    def emit(self, index: int, job, result) -> None:
        for line in self._render(index, self.total, job, result):
            print(line, flush=True)

    def close(self) -> None:
        pass


def _cmd_sweep(args: argparse.Namespace) -> int:
    import inspect

    from repro.analysis.sweep import (
        available_experiments,
        rows_digest,
        run_sweep,
        sweep_driver,
        sweep_table,
    )
    from repro.errors import ReproError, SimulationError
    from repro.exec.executors import default_backend

    if args.list:
        for eid in available_experiments():
            driver = sweep_driver(eid)
            doc = (driver.__doc__ or "").strip().splitlines()
            first = doc[0] if doc else ""
            print(f"{eid:<5} {driver.__module__}:{driver.__qualname__}"
                  f"  — {first}")
        return 0
    if args.eid is None:
        print("sweep: an experiment id is required (or --list to see "
              "them)", file=sys.stderr)
        return 2
    eid = args.eid.lower()
    try:
        driver = sweep_driver(eid)
    except SimulationError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    params = dict(args.param or [])
    # Reject unknown parameter names up front, so a genuine TypeError
    # inside a driver still surfaces as a traceback, not a usage error.
    # 'seeds' is excluded: the sweep runner supplies it per case.
    accepted = [
        name for name in inspect.signature(driver).parameters
        if name != "seeds"
    ]
    if args.failure_model is not None:
        # One flag, two driver spellings: model-comparing drivers (e17)
        # take a failure_models tuple, single-model drivers a string.
        if "failure_models" in accepted:
            params.setdefault("failure_models", (args.failure_model,))
        else:
            params.setdefault("failure_model", args.failure_model)
    unknown = sorted(name for name in params if name not in accepted)
    if unknown:
        print(
            f"sweep failed: {eid} does not accept parameter(s) "
            f"{', '.join(unknown)} (it accepts: "
            f"{', '.join(accepted)})",
            file=sys.stderr,
        )
        return 1
    if args.workers is not None and args.backend != "remote":
        print("sweep failed: --workers only applies to --backend remote",
              file=sys.stderr)
        return 2
    if args.jobs is not None and (
        args.jobs < 1
        or (args.jobs > 1 and args.backend not in (None, "parallel"))
    ):
        print("sweep failed: --jobs takes a worker count >= 1, and more than "
              "one only with --backend parallel", file=sys.stderr)
        return 2
    backend, jobs = args.backend, args.jobs or 1
    if backend is None:
        backend, jobs = default_backend("serial", len(args.seeds), args.jobs)
    sink = None
    if args.stream:
        sink = _StreamSink(
            lambda index, total, job, case_rows: [
                f"[case {index + 1}/{total}] seed={job.seed} {row.row!r}"
                for row in case_rows
            ]
        )
    try:
        rows = run_sweep(
            eid,
            seeds=args.seeds,
            params=params,
            jobs=jobs,
            early_stop=args.early_stop,
            backend=backend,
            remote_workers=args.workers,
            journal=args.journal,
            resume=args.resume,
            sink=sink,
        )
    except ReproError as exc:
        print(f"sweep failed: {exc}", file=sys.stderr)
        return 1
    mode = " early-stop" if args.early_stop else ""
    print(f"\n== sweep {eid.upper()} ({len(args.seeds)} seeds{mode}) ==")
    print(sweep_table(rows))
    print(f"rows={len(rows)} digest={rows_digest(rows)}")
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    from repro.analysis.extensions import (
        MONITOR_JOB_KIND,
        MONITOR_SCENARIOS,
        run_monitor_case,
    )
    from repro.errors import ReproError
    from repro.exec.core import run_jobs
    from repro.exec.executors import make_executor
    from repro.exec.job import JobSpec

    eid = args.eid.lower()
    if eid not in MONITOR_SCENARIOS:
        print(f"unknown monitored scenario {args.eid!r}; choose from "
              f"{', '.join(sorted(MONITOR_SCENARIOS))}", file=sys.stderr)
        return 2

    # Live printing happens from *inside* the run via a trace observer,
    # so the job runs in this process, on the serial executor; a run
    # restored from the journal re-renders its recorded violation lines.
    printed = 0
    ran = False

    def observer_factory(trace, monitors):
        def stream(idx: int, event: object, vector: object) -> None:
            nonlocal printed
            del vector
            if args.verbose:
                print(f"[event {idx:>6}] "
                      f"t={trace.time_of_index(idx):8.3f}  {event!r}")
            log = monitors.violation_log
            while printed < len(log):
                vidx, name = log[printed]
                printed += 1
                print(f"[event {vidx:>6}] "
                      f"t={trace.time_of_index(vidx):8.3f}  "
                      f"!! {name} VIOLATED by {trace.event_at(vidx)!r}")
        return stream

    def live_run(job: JobSpec):
        nonlocal ran
        ran = True
        return run_monitor_case(
            eid,
            n=args.n,
            seed=args.seed,
            stop=args.stop,
            max_events=args.max_events,
            observer_factory=observer_factory,
            failure_model=args.failure_model,
        )

    params = [
        ("n", args.n),
        ("stop", args.stop),
        ("max_events", args.max_events),
    ]
    if args.failure_model != "fail-stop":
        # Appended only when non-default so pre-existing journals keep
        # matching their recorded job identities.
        params.append(("failure_model", args.failure_model))
    job = JobSpec(
        kind=MONITOR_JOB_KIND,
        spec_id=eid,
        seed=args.seed,
        params=tuple(params),
    )
    try:
        executor = make_executor("serial", run=live_run)
        (result,) = run_jobs(
            [job],
            executor=executor,
            journal=args.journal,
            resume=args.resume,
        )
    except ReproError as exc:  # bad --n bounds, livelock, journal mismatch
        print(f"monitor failed: {exc}", file=sys.stderr)
        return 1
    if not ran:  # journaled: re-render the recorded violation lines
        for vidx, at, name, event in result.violations:
            print(f"[event {vidx:>6}] t={at:8.3f}  "
                  f"!! {name} VIOLATED by {event}")
    print(f"\n== monitor {eid} seed={args.seed}: "
          f"{result.events} events"
          f"{' (halted at first violation)' if result.halted else ''} ==")
    print(result.summary)
    return 0 if result.ok else 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.analysis.fuzz import (
        DEFAULT_CONFIG,
        FuzzConfig,
        run_adaptive_fuzz,
        run_fuzz,
    )
    from repro.errors import ReproError
    from repro.exec.executors import default_backend, effective_backend

    # Options that configure something this invocation does not use are
    # refused: silently dropping them would imply they applied. Parser
    # defaults are None sentinels, so presence — not value — is what's
    # detected.
    if args.batch is not None and not args.adaptive:
        print("fuzz failed: --batch only applies to --adaptive",
              file=sys.stderr)
        return 2
    if args.workers is not None and args.backend != "remote":
        print("fuzz failed: --workers only applies to --backend remote",
              file=sys.stderr)
        return 2
    if args.jobs is not None and (
        args.jobs < 1 or args.backend not in (None, "parallel")
    ):
        print("fuzz failed: --jobs takes a worker count >= 1 and only "
              "applies to --backend parallel (or no --backend)",
              file=sys.stderr)
        return 2
    batch = args.batch if args.batch is not None else 50
    # The most scenarios one batch submits: the whole plan, or (adaptive)
    # one batch of it.
    at_once = min(batch, args.count) if args.adaptive else args.count
    backend, jobs = args.backend, args.jobs or 2
    if backend is None:
        backend, jobs = default_backend("inproc", at_once, args.jobs)
    sink = None
    if args.stream:
        def render(index, total, job, outcome):
            flag = "  !! FINDING" if outcome.findings else ""
            return [
                f"[scenario {index + 1}/{total}] "
                f"n={outcome.scenario.n} "
                f"protocol={outcome.scenario.protocol} "
                f"events={outcome.events} "
                f"violations={len(outcome.violations)}{flag}"
            ]
        sink = _StreamSink(render)

    def axis(names, default):
        # An empty list is an empty axis, which FuzzConfig refuses.
        if names is None:
            return default
        return tuple(names.split(",")) if names else ()

    try:
        config = FuzzConfig(
            min_n=args.min_n,
            max_n=args.max_n,
            protocols=axis(args.protocols, DEFAULT_CONFIG.protocols),
            detectors=axis(args.detectors, DEFAULT_CONFIG.detectors),
            failure_model=args.failure_model,
        )
        # Passed in only to read its stats back for the engine line,
        # which the in-process engine and the pool both count.
        runner = None
        if effective_backend(backend, at_once, jobs) in ("inproc", "parallel"):
            from repro.sim.multiworld import ShardedRunner

            runner = ShardedRunner()
        common = dict(
            seed=args.seed, count=args.count, config=config, runner=runner,
            backend=backend, jobs=jobs, remote_workers=args.workers,
            journal=args.journal, resume=args.resume, sink=sink,
        )
        adaptive = None
        if args.adaptive:
            adaptive = run_adaptive_fuzz(batch=batch, **common)
            report = adaptive.report
        else:
            report = run_fuzz(**common)
    except ReproError as exc:
        print(f"fuzz failed: {exc}", file=sys.stderr)
        return 2
    label = " adaptive" if adaptive is not None else ""
    print(f"== fuzz seed={args.seed} count={args.count} "
          f"({backend}{label}) ==")
    print(adaptive.summary() if adaptive is not None else report.summary())
    if runner is not None:
        # The runner only saw scenarios that actually executed; the
        # rest (if any) were restored from the journal — say so rather
        # than print engine zeros that read as "ran and did nothing".
        stats = runner.stats
        restored = report.count - stats.shards
        if stats.shards:
            note = (
                f" ({restored} of {report.count} scenarios restored "
                "from journal)" if restored else ""
            )
            print(f"engine: {stats.events} scheduler events{note}")
        elif restored:
            print(f"engine: idle — all {report.count} scenarios "
                  "restored from journal")
    if adaptive is not None:
        print(f"coverage={adaptive.coverage.digest()}")
        print(f"digest={adaptive.digest()}")
    else:
        print(f"digest={report.digest()}")

    if (args.shrink or args.corpus) and report.findings:
        from repro.analysis.corpus import CorpusEntry, save_entry
        from repro.analysis.shrink import finding_kinds, shrink

        for outcome in report.outcomes:
            if not outcome.findings:
                continue
            try:
                result = shrink(
                    outcome.scenario,
                    kinds=finding_kinds(outcome.findings),
                )
            except ReproError as exc:
                print(f"shrink failed for scenario {outcome.index}: {exc}",
                      file=sys.stderr)
                continue
            print(f"-- shrink scenario {outcome.index} --")
            print(result.summary())
            if args.corpus:
                entry = CorpusEntry(
                    name=f"fuzz-seed{args.seed}-i{outcome.index}",
                    scenario=result.minimal,
                    expect_kinds=tuple(sorted(result.kinds)),
                    note=(
                        f"shrunk from fuzz seed={args.seed} "
                        f"index={outcome.index}"
                        + (" (adaptive)" if adaptive is not None else "")
                    ),
                )
                path = save_entry(args.corpus, entry)
                print(f"corpus entry written: {path}")
    return 1 if report.findings else 0


def _cmd_cycle(args: argparse.Namespace) -> int:
    from repro.analysis.experiments import run_e3_single
    from repro.core.bounds import min_quorum_size

    k = args.k
    if k < 2:
        print("cycle: K must be at least 2 (a cycle of failed-before "
              "edges needs two processes)", file=sys.stderr)
        return 2
    n = args.n if args.n is not None else 3 * k
    available = n - (-(-n // k))
    legal = min_quorum_size(n, k)
    for quorum in (available, legal):
        row = run_e3_single(k, n, quorum)
        outcome = (
            f"CYCLE of length {row.cycle_length}"
            if row.cycle_formed
            else "no cycle (starved)"
        )
        marker = "below bound" if quorum < legal else "at bound"
        print(f"k={k} n={n} quorum={quorum} ({marker}): "
              f"{row.detections} detections, {outcome}")
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from repro.exec.remote import run_worker

    if (args.connect is None) == (args.listen is None):
        print("worker: exactly one of --connect or --listen is required",
              file=sys.stderr)
        return 2
    try:
        return run_worker(
            connect=args.connect,
            listen=args.listen,
            name=args.name,
            retry_for=args.retry_for,
        )
    except ReproError as exc:
        print(f"worker failed: {exc}", file=sys.stderr)
        return 1
    except (ConnectionError, OSError) as exc:
        print(f"worker: lost the coordinator: {exc}", file=sys.stderr)
        return 1


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Simulating Fail-Stop in Asynchronous Distributed "
        "Systems (Sabel & Marzullo, 1994) — reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    version = sub.add_parser(
        "version",
        help="package version and which event core (pure/accel) is active",
    )
    version.set_defaults(fn=_cmd_version)

    demo = sub.add_parser("demo", help="quickstart scenario + verdict")
    demo.add_argument("--n", type=int, default=9)
    demo.add_argument("--t", type=int, default=2)
    demo.add_argument("--seed", type=int, default=7)
    demo.set_defaults(fn=_cmd_demo)

    bounds = sub.add_parser("bounds", help="Theorem 7 / Corollary 8 table")
    bounds.add_argument("n", type=int)
    bounds.add_argument("t", type=int, nargs="?", default=None)
    bounds.set_defaults(fn=_cmd_bounds)

    experiment = sub.add_parser("experiment", help="run one experiment")
    experiment.add_argument("eid", help="e1..e11 or a1")
    experiment.set_defaults(fn=_cmd_experiment)

    sweep = sub.add_parser(
        "sweep",
        help="deterministic multi-seed sweep (over every usable CPU "
             "by default)",
    )
    sweep.add_argument(
        "eid", nargs="?", default=None,
        help="a seeded experiment (e1, e2, e5, ...; see --list)",
    )
    sweep.add_argument(
        "--list", action="store_true",
        help="print the registered sweepable experiments and exit",
    )
    sweep.add_argument(
        "--seeds",
        type=_parse_seeds,
        default=list(range(10)),
        help="seed count (20 -> seeds 0..19) or comma list "
             "(3,5,8; a single seed is '7,')",
    )
    sweep.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for the pool (default without --backend: "
             "one per usable CPU, at most one per 4 cases; 1 runs serially "
             "in this process; rows are identical either way)",
    )
    sweep.add_argument(
        "--param", action="append", type=_parse_param, metavar="NAME=VALUE",
        help="fixed driver parameter, repeatable (e.g. --param n=16)",
    )
    sweep.add_argument(
        "--failure-model", choices=_FAILURE_MODELS, default=None,
        help="run the experiment under this failure model (drivers that "
             "do not take one reject the flag with their parameter list)",
    )
    sweep.add_argument(
        "--early-stop", action="store_true",
        help="abort each case at its first streaming-monitor violation "
             "(drivers with an early_stop keyword only, e.g. e14)",
    )
    sweep.add_argument(
        "--stream", action="store_true",
        help="print each case's rows live, in planned order, as the "
             "finished prefix grows",
    )
    _add_exec_flags(
        sweep,
        backend_help="execution backend (default: parallel over the "
                     "usable CPUs (see --jobs) when that comes to more "
                     "than one worker, else serial; sweep cases have no "
                     "shard form, so inproc is the serial loop) — all "
                     "four are bit-identical",
    )
    sweep.set_defaults(fn=_cmd_sweep)

    monitor = sub.add_parser(
        "monitor",
        help="run a scenario with streaming conformance monitors attached",
    )
    monitor.add_argument(
        "eid", help="monitored scenario: demo, cycle, e14, benor"
    )
    monitor.add_argument("--seed", type=int, default=0)
    monitor.add_argument(
        "--failure-model", choices=_FAILURE_MODELS, default="fail-stop",
        help="failure semantics for the scenario world (crash-recovery "
             "wraps the protocol in the black-box recovery layer)",
    )
    monitor.add_argument(
        "--n", type=int, default=None,
        help="cluster size (scenario default when omitted)",
    )
    monitor.add_argument(
        "--stop", action="store_true",
        help="halt the world at the first halt-relevant violation",
    )
    monitor.add_argument(
        "--verbose", action="store_true",
        help="print every recorded event, not just violations",
    )
    monitor.add_argument("--max-events", type=int, default=1_000_000)
    _add_exec_flags(monitor)
    monitor.set_defaults(fn=_cmd_monitor)

    fuzz = sub.add_parser(
        "fuzz",
        help="run generated adversarial scenarios with streaming "
             "monitors attached",
    )
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--count", type=int, default=200,
                      help="number of scenarios to generate and run")
    fuzz.add_argument("--min-n", type=int, default=3)
    fuzz.add_argument("--max-n", type=int, default=12)
    fuzz.add_argument(
        "--protocols", default=None,
        help="comma list drawn from sfs,transitive,generic,unilateral "
             "(default: all)",
    )
    fuzz.add_argument(
        "--detectors", default=None,
        help="comma list drawn from none,heartbeat,phi (default: all)",
    )
    fuzz.add_argument(
        "--failure-model", choices=_FAILURE_MODELS, default="fail-stop",
        help="fault vocabulary to fuzz with: fail-stop crashes, "
             "crash-recovery churn (protocols run under the black-box "
             "wrapper), or bounded-Byzantine interference",
    )
    fuzz.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for the pool: with --backend parallel "
             "(default: 2) or without --backend (default: one per "
             "usable CPU, at most one per 4 scenarios of a batch; 1 runs "
             "in process on inproc)",
    )
    fuzz.add_argument(
        "--stream", action="store_true",
        help="print each scenario's outcome live, in index order, as "
             "the finished prefix grows",
    )
    fuzz.add_argument(
        "--adaptive", action="store_true",
        help="coverage-guided campaign: between fixed-size batches the "
             "per-axis sampling weights re-derive from the coverage map "
             "so far; replay-deterministic (same seed/count/batch/config "
             "reproduce the same digest on every backend)",
    )
    fuzz.add_argument(
        "--batch", type=int, default=None,
        help="scenarios per adaptive batch (weights re-derive between "
             "batches; --adaptive only; default: 50)",
    )
    fuzz.add_argument(
        "--shrink", action="store_true",
        help="greedily minimise every finding's scenario while "
             "preserving its finding kinds; prints the minimal "
             "reproducer and the shrink log",
    )
    fuzz.add_argument(
        "--corpus", metavar="DIR", default=None,
        help="write each shrunk finding as a JSON regression-corpus "
             "entry under DIR (implies --shrink); the corpus replay "
             "test re-checks every entry",
    )
    _add_exec_flags(
        fuzz,
        backend_help="execution backend (default: parallel over the "
                     "usable CPUs (see --jobs) when that comes to more "
                     "than one worker, else inproc, one batch through the "
                     "multi-world engine; both print the engine: line; "
                     "serial runs scenarios as whole jobs, remote fans "
                     "them to --workers — digests are bit-identical on "
                     "all four)",
    )
    fuzz.set_defaults(fn=_cmd_fuzz)

    cycle = sub.add_parser("cycle", help="Theorem 6 k-cycle construction")
    cycle.add_argument("k", type=int)
    cycle.add_argument("--n", type=int, default=None)
    cycle.set_defaults(fn=_cmd_cycle)

    worker = sub.add_parser(
        "worker",
        help="serve jobs for a remote coordinator (--backend remote)",
    )
    worker.add_argument(
        "--connect", metavar="HOST:PORT", default=None,
        help="dial the coordinator at this address (retried briefly, so "
             "worker and coordinator can start in either order)",
    )
    worker.add_argument(
        "--listen", metavar="HOST:PORT", default=None,
        help="bind this address and await the coordinator's dial "
             "(the hosts=... / --workers host:port,... direction)",
    )
    worker.add_argument(
        "--name", default=None,
        help="label reported to the coordinator (default: host-pid)",
    )
    worker.add_argument(
        "--retry-for", type=float, default=10.0, metavar="SECONDS",
        help="how long --connect keeps retrying before giving up",
    )
    worker.set_defaults(fn=_cmd_worker)

    args = parser.parse_args(argv)
    try:
        # Select the event core here, once, so a REPRO_CORE that is
        # invalid or cannot be satisfied is one line, not a traceback
        # out of whichever module a subcommand happens to import first.
        import repro._core  # noqa: F401
    except (ValueError, ImportError) as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    from repro.errors import ReproError

    try:
        return args.fn(args)
    except ReproError as exc:
        # For the commands with no handler of their own (demo, bounds,
        # experiment, cycle): bad parameters are one line, as they are
        # from sweep, fuzz, monitor and worker.
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    sys.exit(main())
