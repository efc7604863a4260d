"""Executors: interchangeable engines that run a plan of jobs.

One interface, four engines — the former private backends of the sweep
and fuzz subsystems, now shared by everything that fans out work:

* :class:`SerialExecutor` — each job to completion, in order, in this
  process. The reference implementation the others must match.
* :class:`ParallelExecutor` — a ``multiprocessing`` pool; jobs ship to
  workers by pickling and results stream back in planned order.
* :class:`~repro.exec.remote.RemoteExecutor` — multi-host dispatch over
  TCP: worker processes (forked from this one with ``spawn=N``, or
  ``python -m repro worker`` started elsewhere) draw jobs from one queue
  in plan order, a bounded window at a time, and stream completed
  results back as journal-shaped lines while the coordinator watches
  them with the repo's own failure detectors.
* :class:`InprocExecutor` — in this process. Jobs that advertise
  a shard form (see :mod:`repro.exec.job`) are handed, as one batch, to
  a :class:`~repro.sim.multiworld.ShardedRunner`, which by default runs
  each world to completion in turn; jobs without one run exactly as on
  :class:`SerialExecutor`.

Every executor delivers ``(index, result)`` pairs to a callback as jobs
complete; completion *order* is the executor's own business (a pool, a
fleet, or a caller's interleaving runner may finish out of order) and is
laundered back into planned order by :func:`repro.exec.core.run_jobs`
before results reach sinks or callers. Because job runners are pure, the
executor choice can never change the results — only how fast, and in
what interleaving, they arrive.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Sequence

from repro.errors import SimulationError
from repro.exec.job import JobSpec, run_job, shard_form

OnResult = Callable[[int, Any], None]
Pending = Sequence[tuple[int, JobSpec]]

EXEC_BACKENDS = ("serial", "parallel", "inproc", "remote")
"""Registered executor names, in reference order."""


class Executor:
    """Runs ``(index, job)`` pairs, reporting each result to a callback."""

    name = "abstract"

    def submit(self, pending: Pending, on_result: OnResult) -> None:
        """Execute every pending job, calling ``on_result(index, result)``
        exactly once per job, in any order."""
        raise NotImplementedError


class SerialExecutor(Executor):
    """One job after another in this process; the reference executor.

    ``run`` substitutes the job-running callable — the hook an in-process
    caller (e.g. the monitor CLI, which wires live printing into the run)
    uses to observe a job from inside while keeping journal/sink handling
    in the core. The substitute must return exactly what
    :func:`~repro.exec.job.run_job` would.
    """

    name = "serial"

    def __init__(self, run: Callable[[JobSpec], Any] | None = None):
        self._run = run or run_job

    def submit(self, pending: Pending, on_result: OnResult) -> None:
        for index, job in pending:
            on_result(index, self._run(job))


def process_context():
    """The ``multiprocessing`` context of every local fan-out: the
    parallel pool and the remote backend's ``spawn=N`` fleet.

    Fork on Linux only: it is cheap there, and a child inherits this
    process's imported modules and ``sys.path``, while macOS defaults to
    spawn for a reason (forked children can abort in system frameworks).
    Results are identical either way — every job derives all state from
    its own spec. The standard streams are flushed first, because a
    forked child flushes its copy of them as it exits: output still
    buffered here would otherwise be printed once per child as well.
    """
    import multiprocessing

    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
    return multiprocessing.get_context(
        "fork" if sys.platform == "linux" else None
    )


class ParallelExecutor(Executor):
    """A ``multiprocessing`` pool of worker processes.

    Jobs are pickled to workers and executed by
    :func:`~repro.exec.job.run_job`; results stream back in planned order
    (ordered ``imap``), so the first results reach the journal and sinks
    while later chunks are still computing. ``chunksize`` trades dispatch
    overhead against streaming granularity exactly as it did in the old
    sweep pool; the default matches it.
    """

    name = "parallel"

    def __init__(self, workers: int = 2, chunksize: int | None = None):
        self.workers = max(workers, 1)
        self.chunksize = chunksize

    def submit(self, pending: Pending, on_result: OnResult) -> None:
        if not pending:
            return
        ctx = process_context()
        chunk = self.chunksize or max(1, len(pending) // (4 * self.workers))
        jobs = [job for _, job in pending]
        with ctx.Pool(processes=self.workers) as pool:
            for (index, _), result in zip(
                pending, pool.imap(run_job, jobs, chunksize=chunk)
            ):
                on_result(index, result)


class InprocExecutor(Executor):
    """In-process execution over the sharded multi-world engine.

    When every pending job advertises a shard form, their worlds are
    built and run by the wrapped
    :class:`~repro.sim.multiworld.ShardedRunner` (whatever its stepping
    policy, results are identical). Jobs without a shard form —
    experiment drivers that build and run worlds internally — run
    whole, one after another: the :class:`SerialExecutor` loop.

    Args:
        runner: the engine to run shard-form jobs with; a fresh
            :class:`~repro.sim.multiworld.ShardedRunner` (sequential:
            one world at a time) when omitted. Callers that want its
            :class:`~repro.sim.multiworld.RunnerStats` afterwards, or
            another stepping policy, pass their own.
    """

    name = "inproc"

    def __init__(self, runner=None):
        from repro.sim.multiworld import ShardedRunner

        self.runner = runner if runner is not None else ShardedRunner()

    def submit(self, pending: Pending, on_result: OnResult) -> None:
        if not pending:
            return
        forms = [shard_form(job) for _, job in pending]
        if all(form is not None for form in forms):
            self._submit_shards(pending, forms, on_result)
        else:
            for index, job in pending:
                on_result(index, run_job(job))

    def _submit_shards(self, pending, forms, on_result: OnResult) -> None:
        specs = []
        dispatch: dict[int, tuple[int, Any]] = {}
        for (index, _), (spec, collect) in zip(pending, forms):
            specs.append(spec)
            dispatch[id(spec)] = (index, collect)

        def collect_and_report(spec, world):
            index, collect = dispatch[id(spec)]
            result = collect(spec, world)
            on_result(index, result)
            return result

        self.runner.run(specs, collect=collect_and_report)


def effective_backend(backend: str, n_jobs: int, workers: int) -> str:
    """Backend-policy normalisation shared by every planner.

    ``"parallel"`` degenerates to ``"serial"`` unless there is both more
    than one job and more than one worker: a one-worker pool (or a pool
    for a single job) is pure spawn/pickle overhead for bit-identical
    results. Every other backend passes through unchanged — including
    unknown names, which :func:`make_executor` rejects.
    """
    if backend == "parallel" and not (n_jobs > 1 and workers > 1):
        return "serial"
    return backend


def make_executor(
    backend: str,
    workers: int = 1,
    chunksize: int | None = None,
    runner=None,
    run: Callable[[JobSpec], Any] | None = None,
    remote_workers: int | str | Sequence[str] | None = None,
) -> Executor:
    """Build a registered executor by name.

    ``remote_workers`` configures the ``"remote"`` backend's fleet (see
    :func:`~repro.exec.remote.parse_worker_spec`): an integer starts that
    many local worker processes; a ``"host:port,host:port"`` string
    dials out to workers already listening. It is rejected for every
    other backend rather than silently ignored, as is ``run`` (see
    :class:`SerialExecutor`) for every backend but ``"serial"``.
    """
    if remote_workers is not None and backend != "remote":
        raise SimulationError(
            "remote worker addresses only apply to the 'remote' backend "
            f"(got backend {backend!r})"
        )
    if run is not None and backend != "serial":
        raise SimulationError(
            "only the serial executor takes a local run override "
            f"(got backend {backend!r})"
        )
    if backend == "serial":
        return SerialExecutor(run=run)
    if backend == "parallel":
        return ParallelExecutor(workers=workers, chunksize=chunksize)
    if backend == "inproc":
        return InprocExecutor(runner=runner)
    if backend == "remote":
        # Imported lazily, and (repro.exec being a lazy namespace) only
        # here and in the worker command: sockets, selectors, subprocess
        # and the detectors load when a fleet is asked for, not before.
        from repro.exec.remote import RemoteExecutor, parse_worker_spec

        return RemoteExecutor(**parse_worker_spec(remote_workers))
    raise SimulationError(
        f"unknown execution backend {backend!r}; choose from "
        f"{', '.join(EXEC_BACKENDS)}"
    )
