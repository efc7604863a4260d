"""Job descriptions: the unit of work the execution layer fans out.

A :class:`JobSpec` is a frozen, picklable description of one deterministic
unit of work — one sweep case, one fuzz scenario, one monitored run. It
carries no callables and no open resources: ``kind`` is a dotted
``"package.module:function"`` entrypoint string, and the referenced
function (the *job runner*) is resolved by import at execution time, in
whatever process the executor chose. That is what makes the same job
equally runnable by the serial loop, a subprocess pool worker, the
in-process sharded engine — or, later, a remote host that received the
job over the wire.

Every job runner must be a **pure function of its job**: all
nondeterminism derives from ``(spec_id, seed, params)``, so executing a
job twice — or on two different backends — yields equal results. The
journal (:mod:`repro.exec.journal`) and the bit-identical-digest
guarantees of sweep and fuzz rest entirely on that contract.

A job runner may additionally advertise a *shard form* by carrying a
``to_shard`` attribute::

    def run_my_job(job: JobSpec) -> Result: ...
    def _my_job_shard(job):  # -> (ShardSpec, collect)
        ...
    run_my_job.to_shard = _my_job_shard

``to_shard(job)`` returns a ``(ShardSpec, collect)`` pair; the ``inproc``
executor uses it to hand a whole batch of jobs' worlds to one
:class:`~repro.sim.multiworld.ShardedRunner` (whose stepping policy is
its own business) instead of calling each job's runner in turn. The two
forms must produce equal results — shard stepping is an executor's
freedom, never an observable.
"""

from __future__ import annotations

import gc
import hashlib
from dataclasses import dataclass, field
from importlib import import_module
from typing import Any, Callable, Sequence

from repro.errors import SimulationError


@dataclass(frozen=True)
class JobSpec:
    """One deterministic unit of work.

    Args:
        kind: job-runner entrypoint as ``"package.module:function"``.
            Resolved with :func:`resolve_kind` in the executing process.
        spec_id: the caller's identifier for *what* to run (an experiment
            id, a scenario family, ...); meaning is owned by the runner.
        seed: the root of all randomness in the job. Two jobs that differ
            only in seed explore two runs of the same configuration.
        params: insertion-ordered ``(name, value)`` pairs of plain,
            picklable values with content-stable ``repr``; the runner's
            keyword arguments, conceptually.
    """

    kind: str
    spec_id: str
    seed: int
    params: tuple[tuple[str, Any], ...] = field(default=())

    def param(self, name: str, default: Any = None) -> Any:
        """The value of parameter ``name`` (first occurrence wins)."""
        for key, value in self.params:
            if key == name:
                return value
        return default


_RESOLVED: dict[str, Callable[[JobSpec], Any]] = {}


def resolve_kind(kind: str) -> Callable[[JobSpec], Any]:
    """Import and return the job runner named by a ``kind`` string.

    Resolution is cached per process; a malformed kind or a missing
    attribute raises :class:`~repro.errors.SimulationError` naming it.
    """
    try:
        return _RESOLVED[kind]
    except KeyError:
        pass
    module_name, sep, attr = kind.partition(":")
    if not sep or not module_name or not attr:
        raise SimulationError(
            f"malformed job kind {kind!r}; expected 'package.module:function'"
        )
    try:
        module = import_module(module_name)
    except ImportError as exc:
        raise SimulationError(
            f"job kind {kind!r} names an unimportable module: {exc}"
        ) from exc
    try:
        runner = getattr(module, attr)
    except AttributeError:
        raise SimulationError(
            f"job kind {kind!r}: module {module_name!r} has no "
            f"attribute {attr!r}"
        ) from None
    if not callable(runner):
        raise SimulationError(f"job kind {kind!r} is not callable")
    _RESOLVED[kind] = runner
    return runner


class paused_cyclic_gc:
    """Context manager: pause the cyclic garbage collector, then put the
    caller's collector state back (also when the body raises).

    Entered from exactly two places: :func:`run_job` (one whole job) and
    :meth:`ShardedRunner.run <repro.sim.multiworld.ShardedRunner.run>`
    (one batch of shard-form jobs). Both free finished worlds by
    reference count — the runner and every in-repo driver ``dispose()``
    what they build — so the collector has nothing to find while its
    per-allocation bookkeeping costs a measurable share of wall time.
    Collector timing cannot reach a result: all nondeterminism is seeded.

    Safe to nest (only the frame that actually disabled the collector
    re-enables it) and a no-op when the caller already had it off. The
    allocation count keeps running while paused, so whatever cyclic
    garbage was left behind is swept by the first young-generation pass
    after the pause ends. A class, not a ``@contextmanager`` generator:
    it is entered once per job, and costs 0.3 µs instead of 1.2.
    """

    __slots__ = ("_was_enabled",)

    def __enter__(self) -> None:
        self._was_enabled = gc.isenabled()
        if self._was_enabled:
            gc.disable()

    def __exit__(self, *exc_info: object) -> None:
        if self._was_enabled:
            gc.enable()


def run_job(job: JobSpec) -> Any:
    """Execute one job in this process and return its result.

    Module-level by design: the parallel executor ships ``JobSpec``
    instances to worker processes by pickling and calls this there; the
    serial loop, the ``inproc`` whole-job fallback and the remote worker
    call it too, so this is where every backend pauses the collector.

    The pause is per job, not per plan: a job runner that drops a cyclic
    world without ``dispose()`` costs one job's garbage until the pause
    ends, never the plan's.
    """
    runner = resolve_kind(job.kind)
    with paused_cyclic_gc():
        return runner(job)


def shard_form(job: JobSpec):
    """The job's ``(ShardSpec, collect)`` pair, or ``None``.

    ``None`` means the runner does not advertise a shard form and the
    ``inproc`` executor must fall back to running the job whole.
    """
    to_shard = getattr(resolve_kind(job.kind), "to_shard", None)
    if to_shard is None:
        return None
    return to_shard(job)


def job_digest(job: JobSpec) -> str:
    """Content hash of one job (the journal's per-entry identity check).

    Stable across processes because every ``JobSpec`` field is required
    to have a content-stable ``repr``.
    """
    return hashlib.sha256(repr(job).encode()).hexdigest()


def plan_digest(jobs: Sequence[JobSpec]) -> str:
    """Content hash of an ordered job list (the journal's plan identity).

    Order-sensitive on purpose: the plan *is* the result order, so two
    plans that run the same jobs in different orders are different plans.
    """
    digest = hashlib.sha256()
    for job in jobs:
        digest.update(repr(job).encode())
    return digest.hexdigest()
