"""Executors: interchangeable engines that run a plan of jobs.

One interface, four engines — the former private backends of the sweep
and fuzz subsystems, now shared by everything that fans out work:

* :class:`SerialExecutor` — each job to completion, in order, in this
  process. The reference implementation the others must match.
* :class:`ParallelExecutor` — a ``multiprocessing`` pool, opened on the
  first batch and kept until the executor is closed; workers draw small
  chunks of jobs from one queue and results stream back as they finish
  (``imap_unordered``).
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

An executor may hold processes across batches (the pool does), so
whoever builds one closes it: :meth:`Executor.close`, or a ``with``
block. :func:`default_backend` is the policy the ``fuzz`` and ``sweep``
commands apply when no backend is named: the pool, one worker per usable
CPU, whenever there are jobs enough for more than one worker.
"""

from __future__ import annotations

import os
import sys
import weakref
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.errors import SimulationError
from repro.exec.job import JobSpec, paused_cyclic_gc, run_job, shard_form

if TYPE_CHECKING:
    from repro.sim.multiworld import RunnerStats

OnResult = Callable[[int, Any], None]
Pending = Sequence[tuple[int, JobSpec]]

EXEC_BACKENDS = ("serial", "parallel", "inproc", "remote")
"""Registered executor names, in reference order."""

FORKS = sys.platform == "linux"
"""Whether :func:`process_context` forks (see there); only then does
:func:`default_backend` fan out on its own."""

MIN_JOBS_PER_WORKER = 4
"""The fewest jobs per worker :func:`default_backend` starts a pool for:
a pool costs the ``multiprocessing`` import and a fork per worker (15–20
ms on the 2-vCPU reference guest), more than a few millisecond-long fuzz
scenarios save (``docs/performance.md`` § PR 30)."""


class Executor:
    """Runs ``(index, job)`` pairs, reporting each result to a callback."""

    name = "abstract"

    def submit(self, pending: Pending, on_result: OnResult) -> None:
        """Execute every pending job, calling ``on_result(index, result)``
        exactly once per job, in any order."""
        raise NotImplementedError

    def close(self) -> None:
        """Release whatever the executor holds across batches (nothing,
        unless it says otherwise). Idempotent."""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


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
    return multiprocessing.get_context("fork" if FORKS else None)


def _run_counted(item: tuple[int, JobSpec]) -> tuple[int, Any, int | None]:
    """A pool worker's job: ``(index, result, engine events)``.

    A job with a shard form runs it through
    :func:`~repro.sim.multiworld.run_shard`, as the ``inproc`` executor
    does, so the pool can report the same scheduler-event count; the
    result equals :func:`~repro.exec.job.run_job`'s by the shard-form
    contract. Any other job runs whole and counts ``None``.
    """
    index, job = item
    form = shard_form(job)
    if form is None:
        return index, run_job(job), None
    from repro.sim.multiworld import run_shard

    with paused_cyclic_gc():
        result, events = run_shard(*form)
    return index, result, events


class ParallelExecutor(Executor):
    """A ``multiprocessing`` pool of worker processes.

    The pool opens on the first non-empty :meth:`submit` and serves every
    later one — an adaptive campaign forks once, not once per batch —
    until :meth:`close` (or the executor's garbage collection) terminates
    it. Workers draw chunks of ``chunksize`` jobs from one queue
    (``imap_unordered``) and each result reaches ``on_result`` as soon as
    it is back; :func:`~repro.exec.core.run_jobs` restores planned order.
    By default a batch splits into about sixteen chunks per worker, so
    a few heavy jobs cannot leave one worker holding a long tail while
    the others idle.

    Args:
        workers: pool size, at least 1.
        chunksize: jobs per dispatch (default: see above).
        stats: a :class:`~repro.sim.multiworld.RunnerStats` to tally
            executed shard-form jobs into (``shards`` and ``events``;
            workers run them one world at a time, as
            :func:`~repro.sim.multiworld.run_shard` does), so a pool run
            reports the scheduler-event count an ``inproc`` run would.
    """

    name = "parallel"

    def __init__(
        self,
        workers: int = 2,
        chunksize: int | None = None,
        stats: RunnerStats | None = None,
    ):
        if workers < 1:
            raise SimulationError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.chunksize = chunksize
        self.stats = stats
        self._pool = None
        self._terminate: weakref.finalize | None = None

    def submit(self, pending: Pending, on_result: OnResult) -> None:
        if not pending:
            return
        if self._pool is None:
            # The first job's shard form imports what running a job needs
            # (a fuzz job's simulator, say). Imported here, once, it is in
            # every forked worker instead of imported — and on a checkout
            # without bytecode, compiled — by each worker at once.
            shard_form(pending[0][1])
            self._pool = process_context().Pool(processes=self.workers)
            # Pool.terminate() also joins the workers and the pool's
            # threads; a finalizer, so an executor nobody closed still
            # leaves no worker behind once it is collected.
            self._terminate = weakref.finalize(self, self._pool.terminate)
        chunk = self.chunksize or max(1, len(pending) // (16 * self.workers))
        for index, result, events in self._pool.imap_unordered(
            _run_counted, pending, chunksize=chunk
        ):
            if events is not None and self.stats is not None:
                self.stats.shards += 1
                self.stats.events += events
            on_result(index, result)

    def close(self) -> None:
        """Terminate the pool, if one was opened."""
        if self._terminate is not None:
            self._terminate()
        self._pool = self._terminate = None


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


def default_backend(
    fallback: str, n_jobs: int, workers: int | None = None
) -> tuple[str, int]:
    """The ``(backend, workers)`` a CLI campaign runs on when it names no
    backend: ``fuzz`` (``fallback="inproc"``) and ``sweep``
    (``"serial"``).

    The pool when there is more than one job and more than one worker:
    ``workers`` when given (``--jobs``), else one per CPU this process
    may run on (``os.sched_getaffinity``), at most one per
    :data:`MIN_JOBS_PER_WORKER` jobs — counted only where
    :func:`process_context` forks, since a spawned worker re-imports the
    package. Otherwise ``(fallback, 1)``: the run stays in this process.
    ``n_jobs`` is the most jobs one batch submits. Results are
    bit-identical either way; this only decides how many cores a
    campaign uses.
    """
    if workers is None:
        workers = (
            min(len(os.sched_getaffinity(0)), n_jobs // MIN_JOBS_PER_WORKER)
            if FORKS else 1
        )
    if n_jobs > 1 and workers > 1:
        return "parallel", workers
    return fallback, 1


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
    :class:`SerialExecutor`) for every backend but ``"serial"``. A
    ``runner`` drives ``"inproc"``; ``"parallel"`` tallies its shards
    into the runner's :class:`~repro.sim.multiworld.RunnerStats`.
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
        return ParallelExecutor(
            workers=workers, chunksize=chunksize,
            stats=runner.stats if runner is not None else None,
        )
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
