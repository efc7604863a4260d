"""In-process sharded multi-world simulation.

One :class:`~repro.sim.world.World` is one simulated system; scaling the
*number of scenarios* explored per second is a different axis from scaling
one system, and it is the axis the paper's quantification ("every
admissible run") actually cares about. A :class:`ShardedRunner` constructs
and steps many independent worlds — *shards* — inside a single process,
skipping the process-spawn/pickling overhead a subprocess pool pays per
task.

Shards share **no mutable simulation state**: each world derives all
nondeterminism from its own seed, so stepping policy cannot affect
results. The runner has two:

* ``stepping="sequential"`` (the default) — run each shard to completion
  in spec order, one world alive at a time: :func:`run_shard`, which is
  also what a whole fuzz job calls (:mod:`repro.analysis.fuzz_world`), so the
  shard form and the whole-job form of a scenario are the same code.
* ``stepping="round_robin"`` — interleave shards in fixed event quanta
  within a bounded window of live shards. Kept as engine API: the tests
  (``tests/sim/test_multiworld.py``, the stepping-invariance properties)
  and ``benchmarks/record/layers.py::api_run`` exercise it, nothing in
  ``src/`` selects it, and on every fuzz workload of record it measured
  3–9 MB larger than ``sequential`` and slower or tied
  (``docs/performance.md`` § PR 20).

Both policies produce **bit-identical per-shard results** (guarded by
``tests/sim/test_multiworld.py``).

Completion semantics per shard mirror the two ways scenarios are driven:
with ``horizon=None`` a shard runs to quiescence (injected-fault
scenarios); with a ``horizon`` it runs until virtual time reaches it
(detector-driven scenarios, whose heartbeat timers never drain). A shard
whose monitors requested a scheduler stop
(``World.attach_monitor(stop_on_violation=True)``) completes at the stop,
exactly like a standalone run.

World lifetime: every finished shard is ``dispose()``d — its reference
cycles broken — so it frees by reference count, and :meth:`ShardedRunner.run`
holds :func:`repro.exec.job.paused_cyclic_gc` (the execution layer's one
collector pause; its other call site is :func:`~repro.exec.job.run_job`)
for the batch. With nothing for the collector to find, its
per-allocation bookkeeping is pure cost, and its timing can never reach a
result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generic, Sequence, TypeVar

from repro.errors import SimulationError
from repro.exec.job import paused_cyclic_gc
from repro.sim.world import World

R = TypeVar("R")

STEPPING_POLICIES = ("sequential", "round_robin")
"""Valid ``stepping`` arguments for :class:`ShardedRunner`."""

DEFAULT_QUANTUM = 512
"""Events a shard runs between two checks of its livelock valve. Paths
that must agree at the valve (the ``inproc`` shard form and the whole-job
form of a fuzz scenario) agree because both run on this value."""


@dataclass(frozen=True)
class ShardSpec:
    """One shard: how to build its world and when it is finished.

    Args:
        key: caller's identifier for the shard (a seed, a scenario, ...);
            passed through to the collect callback untouched.
        build: zero-argument world factory; must perform all scenario
            wiring (fault injection, adversary rules, monitor attachment)
            before returning.
        horizon: run until virtual time reaches this value; ``None``
            (default) runs to quiescence instead (non-periodic queue
            empty), which is the right completion notion for
            injected-fault scenarios.
        max_events: per-shard livelock valve; exceeding it raises
            :class:`~repro.errors.SimulationError` naming the shard.
    """

    key: object
    build: Callable[[], World]
    horizon: float | None = None
    max_events: int = 1_000_000


@dataclass
class _LiveShard:
    spec: ShardSpec
    world: World
    index: int = 0
    events: int = 0
    done: bool = False


def _build(spec: ShardSpec, index: int = 0) -> _LiveShard:
    world = spec.build()
    world.start()
    return _LiveShard(spec, world, index)


def _advance(shard: _LiveShard, quantum: int) -> None:
    """Execute up to ``quantum`` events; flags ``shard.done``."""
    spec = shard.spec
    scheduler = shard.world.scheduler
    if spec.horizon is not None:
        executed = scheduler.run(until=spec.horizon, max_events=quantum)
        # run() breaking before the quantum was spent means it ran out
        # of work admissible before the horizon (or a monitor halt).
        shard.done = executed < quantum or scheduler._stop_requested
    else:
        executed = 0
        while executed < quantum:
            # Direct attribute reads: this guard runs once per stepped
            # event across every shard, so the property/method hops of
            # stop_requested / pending_nonperiodic() were pure loop tax.
            if (
                scheduler._stop_requested
                or scheduler._pending_nonperiodic == 0
                or not scheduler.step()
            ):
                shard.done = True
                break
            executed += 1
    shard.events += executed
    if shard.events > spec.max_events and not shard.done:
        raise SimulationError(
            f"shard {spec.key!r} exceeded {spec.max_events} events "
            "without completing; likely a livelock in the scenario"
        )


def _finish(shard: _LiveShard, collect: Callable[[ShardSpec, World], R]) -> R:
    result = collect(shard.spec, shard.world)
    # dispose() unlinks the world's reference cycles, so the dead shard
    # frees by refcount even with the cyclic collector paused.
    shard.world.dispose()
    return result


def run_shard(
    spec: ShardSpec,
    collect: Callable[[ShardSpec, World], R],
    quantum: int = DEFAULT_QUANTUM,
) -> tuple[R, int]:
    """One shard from build to dispose: ``(collect's result, events run)``.

    What ``stepping="sequential"`` does per spec, and what a job that *is*
    one shard (a fuzz scenario run whole) calls directly — so completion,
    monitor-halt and livelock-valve semantics are the same code on every
    path. Does not touch the collector: :meth:`ShardedRunner.run` and
    :func:`~repro.exec.job.run_job` hold the pause around it.
    """
    shard = _build(spec)
    while not shard.done:
        _advance(shard, quantum)
    return _finish(shard, collect), shard.events


@dataclass
class RunnerStats:
    """What a :class:`ShardedRunner` has done so far — summed over every
    :meth:`~ShardedRunner.run` call, so a runner driven batch by batch
    (an adaptive campaign) reports the whole campaign. A
    :class:`~repro.exec.executors.ParallelExecutor` given these stats
    adds its workers' ``shards`` and ``events`` to them."""

    shards: int = 0
    events: int = 0
    peak_live_shards: int = 0


class ShardedRunner(Generic[R]):
    """Steps many independent worlds inside one process.

    Args:
        stepping: ``"sequential"`` or ``"round_robin"`` (see module
            docstring). Results are bit-identical either way.
        quantum: events granted to a shard per turn (the livelock valve
            is checked between turns under either policy).
        window: maximum shards alive at once under round-robin (default:
            all of them). Completed shards are disposed before the next
            shard in the window starts.
    """

    def __init__(
        self,
        stepping: str = "sequential",
        quantum: int = DEFAULT_QUANTUM,
        window: int | None = None,
    ):
        if stepping not in STEPPING_POLICIES:
            raise SimulationError(
                f"unknown stepping policy {stepping!r}; choose from "
                f"{', '.join(STEPPING_POLICIES)}"
            )
        if quantum < 1:
            raise SimulationError(f"quantum must be >= 1, got {quantum}")
        if window is not None and window < 1:
            raise SimulationError(f"window must be >= 1, got {window}")
        self.stepping = stepping
        self.quantum = quantum
        self.window = window
        self.stats = RunnerStats()

    def run(
        self,
        specs: Sequence[ShardSpec],
        collect: Callable[[ShardSpec, World], R],
    ) -> list[R]:
        """Build, run, and collect every shard; results in spec order.

        ``collect(spec, world)`` is called once per shard, right after it
        completes and before it is disposed — extract everything you
        need from the world there (its history, monitors, metrics); the
        world cannot be run after the callback returns.
        """
        self.stats.shards += len(specs)
        results: list[R | None] = [None] * len(specs)
        # Every finished shard is dispose()d, so dead worlds free by
        # refcount and the paused collector has nothing to find.
        with paused_cyclic_gc():
            if self.stepping == "sequential":
                self._run_sequential(specs, collect, results)
            else:
                self._run_round_robin(specs, collect, results)
        return results  # type: ignore[return-value]

    def _run_sequential(self, specs, collect, results) -> None:
        if specs:
            self.stats.peak_live_shards = 1
        for index, spec in enumerate(specs):
            results[index], events = run_shard(spec, collect, self.quantum)
            self.stats.events += events

    def _run_round_robin(self, specs, collect, results) -> None:
        pending = list(enumerate(specs))
        pending.reverse()  # pop() from the front of the spec order
        live: list[_LiveShard] = []
        window = self.window or len(specs) or 1
        while pending or live:
            while pending and len(live) < window:
                index, spec = pending.pop()
                live.append(_build(spec, index))
            self.stats.peak_live_shards = max(
                self.stats.peak_live_shards, len(live)
            )
            still_live: list[_LiveShard] = []
            for shard in live:
                _advance(shard, self.quantum)
                if shard.done:
                    self.stats.events += shard.events
                    results[shard.index] = _finish(shard, collect)
                else:
                    still_live.append(shard)
            live = still_live
