"""Deterministic multi-seed / multi-config experiment sweeps.

Related failure-detector studies chart behaviour across hundreds of seeds
and cluster sizes; this module gives the reproduction the same capability
without giving up its core guarantee, determinism. A sweep is *planned*
as an explicit list of :class:`SweepCase` tasks — one per (parameter
combination, seed) — and each case is executed independently with all
randomness derived from its own seed. Because cases share no state,
execution order cannot affect results, so every backend of the unified
execution layer (:mod:`repro.exec`) — the serial loop, the
``multiprocessing`` pool, the in-process ``inproc`` executor and the
multi-host ``remote`` fleet — produces **bit-identical rows**: same
cases, same per-case results, same collection order.

This module is a thin *planner* over :mod:`repro.exec`: it expands the
request into cases, converts each case to a frozen
:class:`~repro.exec.JobSpec`, and hands the plan to
:func:`repro.exec.run_jobs` — which also supplies JSONL
checkpoint/resume (``journal=``/``resume=``: a killed sweep restarts
where it stopped, with a final digest bit-identical to an uninterrupted
run's) and live result streaming (``sink=``: rows delivered in planned
order as their prefix completes). The execution layer also owns the
cyclic collector: every case runs inside
:func:`repro.exec.job.run_job`'s per-job pause on every backend, and the
registered drivers ``dispose()`` the worlds they build (see
:func:`~repro.analysis.experiments.seeded_driver`), so a sweep frees its
worlds by reference count and this module has no collector code.

Quick example::

    from repro.analysis.sweep import run_sweep, rows_digest

    rows = run_sweep("e1", seeds=range(20), jobs=4)
    print(rows_digest(rows))  # equal to the jobs=1 digest, always

The CLI front-end is ``python -m repro sweep`` (see :mod:`repro.__main__`);
``examples/large_cluster_sweep.py`` drives an n>=64 configuration sweep.
``tests/analysis/test_sweep.py`` asserts the backends' equivalence; the
``sweep_large_n`` and ``journal_roundtrip`` workloads of
``benchmarks/record/`` time the sweep path and the journal.

Performance model (methodology and measured numbers: docs/performance.md):
planning is O(cases); execution is embarrassingly parallel with
near-linear speedup until the per-case cost (one full simulated run,
itself linear in events thanks to the O(1)-accounting scheduler, batched
delivery bursts, and incremental trace recording) drops below
per-process pickling overhead — tune ``chunksize`` for very cheap cases.
Each worker run records its trace through
:class:`~repro.core.history.HistoryBuilder`, so long-run cases stay
linear in trace length rather than quadratic.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

import inspect

import repro.analysis.extensions  # noqa: F401  (registers e11/a1/e14)
from repro.analysis.experiments import SEEDED_DRIVERS
from repro.analysis.report import format_table
from repro.errors import SimulationError
from repro.exec.core import run_jobs
from repro.exec.executors import EXEC_BACKENDS, effective_backend, make_executor
from repro.exec.job import JobSpec
from repro.exec.sink import ResultSink

SWEEP_JOB_KIND = "repro.analysis.sweep:run_sweep_job"
"""Entrypoint string sweep jobs carry (see :mod:`repro.exec.job`)."""


def _drivers() -> dict[str, Callable[..., Any]]:
    # All drivers — core E1-E10 and the extension set — self-register
    # through the @seeded_driver decorator; importing the modules above
    # is what populates the registry.
    return dict(SEEDED_DRIVERS)


def available_experiments() -> list[str]:
    """Sweepable experiment ids (drivers that take a ``seeds`` argument)."""
    return sorted(_drivers())


def sweep_driver(experiment: str) -> Callable[..., Any]:
    """The registered driver callable for a sweepable experiment id."""
    try:
        return _drivers()[experiment.lower()]
    except KeyError:
        raise SimulationError(
            f"unknown sweepable experiment {experiment!r}; choose from "
            f"{', '.join(available_experiments())}"
        ) from None


@dataclass(frozen=True)
class SweepCase:
    """One unit of sweep work: a single experiment run on a single seed.

    ``params`` is an insertion-ordered tuple of ``(name, value)`` keyword
    arguments forwarded to the experiment driver (fixed parameters first,
    then the grid combination). ``early_stop`` asks the driver to abort
    the case at the first streaming-monitor violation (only drivers that
    accept an ``early_stop`` keyword support it; others are rejected at
    execution time).
    """

    experiment: str
    seed: int
    params: tuple[tuple[str, Any], ...] = ()
    early_stop: bool = False


@dataclass(frozen=True)
class SweepRow:
    """One experiment row produced by one case, tagged with its origin."""

    experiment: str
    seed: int
    params: tuple[tuple[str, Any], ...]
    row: Any


def plan_cases(
    experiment: str,
    seeds: Sequence[int],
    params: Mapping[str, Any] | None = None,
    grid: Mapping[str, Sequence[Any]] | None = None,
    early_stop: bool = False,
) -> list[SweepCase]:
    """Expand a sweep request into an explicit, ordered case list.

    Order is grid-major then seed-minor and depends only on the inputs,
    never on the executor — it *is* the row order of the final result.
    """
    experiment = experiment.lower()
    driver = sweep_driver(experiment)  # validate the id before planning
    grid = grid or {}
    fixed_keys = set(params or {})
    if "seeds" in fixed_keys or "seeds" in grid:
        raise SimulationError(
            "'seeds' is supplied by the sweep runner itself "
            "(one case per seed); pass seeds=... to run_sweep/plan_cases"
        )
    if "early_stop" in fixed_keys or "early_stop" in grid:
        raise SimulationError(
            "'early_stop' is a sweep execution mode, not a driver "
            "parameter; pass early_stop=True to run_sweep/plan_cases"
        )
    if early_stop and not _supports_early_stop(driver):
        raise SimulationError(
            f"experiment {experiment!r} does not support early_stop (its "
            "driver takes no 'early_stop' keyword); run it in full mode"
        )
    overlap = sorted(fixed_keys & set(grid))
    if overlap:
        raise SimulationError(
            f"parameter(s) {', '.join(overlap)} appear in both params and "
            "grid; each name may be fixed or swept, not both"
        )
    fixed = tuple((params or {}).items())
    combos = [
        tuple(zip(grid.keys(), values))
        for values in itertools.product(*grid.values())
    ] or [()]
    return [
        SweepCase(
            experiment=experiment,
            seed=seed,
            params=fixed + combo,
            early_stop=early_stop,
        )
        for combo in combos
        for seed in seeds
    ]


def _supports_early_stop(driver: Callable[..., Any]) -> bool:
    """Whether a driver accepts the ``early_stop`` keyword."""
    return "early_stop" in inspect.signature(driver).parameters


def run_case(case: SweepCase) -> list[SweepRow]:
    """Execute one case; all nondeterminism flows from ``case.seed``.

    With ``case.early_stop`` the driver is asked to abort the run at the
    first streaming-monitor violation and tag its row with the violating
    event index (drivers without an ``early_stop`` keyword are rejected).
    """
    driver = sweep_driver(case.experiment)
    kwargs = dict(case.params)
    if case.early_stop:
        if not _supports_early_stop(driver):
            raise SimulationError(
                f"experiment {case.experiment!r} does not support "
                "early_stop (its driver takes no 'early_stop' keyword)"
            )
        kwargs["early_stop"] = True
    result = driver(seeds=(case.seed,), **kwargs)
    rows = result if isinstance(result, list) else [result]
    return [
        SweepRow(
            experiment=case.experiment,
            seed=case.seed,
            params=case.params,
            row=row,
        )
        for row in rows
    ]


# ----------------------------------------------------------------------
# JobSpec bridge — sweep cases as execution-layer jobs
# ----------------------------------------------------------------------


def case_to_job(case: SweepCase) -> JobSpec:
    """The case's frozen job form: pure data, runnable anywhere.

    ``early_stop`` travels in ``params`` under its own name — safe
    because :func:`plan_cases` rejects ``early_stop`` as a user-supplied
    driver parameter, so the key can only come from the planner.
    """
    params = case.params
    if case.early_stop:
        params = params + (("early_stop", True),)
    return JobSpec(
        kind=SWEEP_JOB_KIND,
        spec_id=case.experiment,
        seed=case.seed,
        params=params,
    )


def job_to_case(job: JobSpec) -> SweepCase:
    """Inverse of :func:`case_to_job`."""
    return SweepCase(
        experiment=job.spec_id,
        seed=job.seed,
        params=tuple(p for p in job.params if p[0] != "early_stop"),
        early_stop=bool(job.param("early_stop", False)),
    )


def run_sweep_job(job: JobSpec) -> list[SweepRow]:
    """Execution-layer entrypoint: run one sweep case from its job form.

    Must stay a module-level function: the parallel executor ships jobs
    to worker processes by pickling and resolves this by name there.
    """
    return run_case(job_to_case(job))


SWEEP_BACKENDS = EXEC_BACKENDS
"""Valid ``backend`` arguments for :func:`run_sweep` — the execution
layer's registered executors, by reference (one registry, no copies;
see :mod:`repro.exec.executors`)."""


def run_sweep(
    experiment: str,
    seeds: Sequence[int],
    params: Mapping[str, Any] | None = None,
    grid: Mapping[str, Sequence[Any]] | None = None,
    jobs: int = 1,
    chunksize: int | None = None,
    early_stop: bool = False,
    backend: str | None = None,
    remote_workers: int | str | Sequence[str] | None = None,
    journal: str | Path | None = None,
    resume: bool = False,
    sink: ResultSink | None = None,
) -> list[SweepRow]:
    """Run a sweep on one of four bit-identical execution backends.

    * ``"serial"`` — one case after another in this process.
    * ``"parallel"`` — a ``multiprocessing`` pool of ``jobs`` workers.
    * ``"inproc"`` — for a sweep, ``"serial"`` under another name: sweep
      cases advertise no shard form, so the ``inproc`` executor runs
      them whole, one after another (either is preferable to
      ``parallel`` whenever per-case cost is small enough that process
      spawn/pickle overhead dominates; ``exec.*.us_per_noop_job`` in
      ``benchmarks/record/`` measures each backend's per-job cost).
    * ``"remote"`` — multi-host dispatch to worker processes configured
      by ``remote_workers`` (see :mod:`repro.exec.remote`); the
      coordinator watches the fleet with the repo's own failure
      detectors and reassigns a failed worker's unfinished cases.

    ``backend=None`` (the default) keeps the historical behaviour:
    ``parallel`` when ``jobs > 1``, else ``serial``.

    ``journal``/``resume`` give the sweep checkpoint/restart: every
    finished case is recorded to the JSONL journal as it lands, and a
    resumed run re-executes only unjournaled cases — the returned rows
    (and their digest) are bit-identical to an uninterrupted run's. A
    ``sink`` receives per-case row lists in planned order as the
    finished prefix grows (see :mod:`repro.exec.sink`).

    Rows come back in planned-case order regardless of backend, and
    every backend produces **bit-identical rows** — in full mode and in
    ``early_stop`` mode alike (a case's abort point is a pure function of
    its seed, never of the executor).
    """
    if jobs < 1:
        raise SimulationError(f"jobs must be >= 1, got {jobs}")
    if backend is None:
        backend = "parallel" if jobs > 1 else "serial"
    cases = plan_cases(
        experiment, seeds, params=params, grid=grid, early_stop=early_stop
    )
    # make_executor rejects unknown backend names; effective_backend
    # keeps the historical jobs<=1 fast path under an explicit
    # backend="parallel".
    with make_executor(
        effective_backend(backend, len(cases), jobs),
        workers=jobs,
        chunksize=chunksize,
        remote_workers=remote_workers,
    ) as executor:
        per_case = run_jobs(
            [case_to_job(case) for case in cases],
            executor=executor,
            sink=sink,
            journal=journal,
            resume=resume,
        )
    return [row for rows in per_case for row in rows]


def rows_digest(rows: Sequence[SweepRow]) -> str:
    """A stable content hash of a sweep result (order-sensitive).

    Two sweeps agree bit-for-bit iff their digests match; the benchmark
    and the CLI print it so serial/parallel equivalence is checkable from
    the console output alone.

    Contract: every registered driver returns frozen dataclass rows whose
    fields are plain values (ints, floats, strings, tuples), so ``repr``
    is a pure function of the row's contents. A driver row with an
    identity-based or otherwise nondeterministic repr would break digest
    stability across processes.
    """
    digest = hashlib.sha256()
    for row in rows:
        digest.update(
            repr((row.experiment, row.seed, row.params, row.row)).encode()
        )
    return digest.hexdigest()


def sweep_table(rows: Sequence[SweepRow]) -> str:
    """Render sweep rows as a fixed-width ASCII table.

    Inner column names are the *union* of the field names across all rows,
    not just the first row's — so a sweep whose driver returns different
    dataclasses for different parameter combinations still renders
    aligned, with ``-`` in the cells a row does not define. The union is
    ordered by **first appearance** (row order, then dataclass field
    order within each row), never by set iteration order, so the same
    rows always render the same table. Non-dataclass rows land in a
    trailing ``row`` column.
    """
    if not rows:
        return "(no rows)"
    param_names: list[str] = []
    for row in rows:
        for name, _ in row.params:
            if name not in param_names:
                param_names.append(name)
    inner_names: list[str] = []
    any_plain = False
    for row in rows:
        if is_dataclass(row.row) and not isinstance(row.row, type):
            for f in fields(row.row):
                if f.name not in inner_names:
                    inner_names.append(f.name)
        else:
            any_plain = True
    if any_plain and "row" not in inner_names:
        inner_names.append("row")
    headers = ["seed", *param_names, *inner_names]
    table_rows = []
    for row in rows:
        values = dict(row.params)
        inner = row.row
        if is_dataclass(inner) and not isinstance(inner, type):
            inner_cells = [getattr(inner, name, "-") for name in inner_names]
        else:
            inner_cells = [
                inner if name == "row" else "-" for name in inner_names
            ]
        table_rows.append(
            [row.seed]
            + [values.get(name, "-") for name in param_names]
            + inner_cells
        )
    return format_table(headers, table_rows)
