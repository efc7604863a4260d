"""Cluster orchestration for the asyncio host.

:func:`run_cluster` puts ``n`` :class:`~repro.protocols.sfs.SfsProcess`\\ es
with phi-accrual drivers on an :class:`~repro.runtime.host.AsyncioWorld`,
schedules the scripted faults (crashes at wall-clock offsets, spontaneous
suspicions) through the world's own injectors, and returns the recorded
history and quorum records — ready for
:func:`repro.analysis.checker.analyze`.

All durations are real seconds; keep them small in tests (the defaults run
a full cluster scenario in about a second).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

from repro.core.history import History
from repro.core.quorum import QuorumRecord
from repro.detectors.phi_accrual import PhiAccrualDriver
from repro.protocols.sfs import SfsProcess
from repro.runtime.host import AsyncioWorld
from repro.sim.delays import DelayModel


@dataclass
class ClusterResult:
    """Everything a runtime scenario produced."""

    history: History
    quorum_records: tuple[QuorumRecord, ...]
    detected: dict[int, frozenset[int]]
    crashed: frozenset[int]
    duration: float
    false_suspicion_targets: frozenset[int] = field(default_factory=frozenset)


def run_cluster(
    n: int = 5,
    duration: float = 1.5,
    t: int = 1,
    crash_at: dict[int, float] | None = None,
    suspect_at: list[tuple[float, int, int]] | None = None,
    heartbeat_interval: float = 0.05,
    phi_threshold: float | None = 8.0,
    delay_model: DelayModel | None = None,
    seed: int = 0,
    time_scale: float = 0.01,
) -> ClusterResult:
    """Run a wall-clock cluster scenario and return its recording.

    Bad input — a pid outside ``0..n-1``, a process suspecting itself, an
    ``(n, t)`` that Corollary 8 forbids — raises before any time passes.
    An exception raised while the cluster runs ends the run and is
    re-raised here.

    Args:
        n: cluster size.
        duration: total real seconds to run.
        t: failure bound for quorum sizing.
        crash_at: node id -> seconds offset for genuine crashes.
        suspect_at: (seconds offset, suspecting node, target) triples for
            injected (possibly erroneous) suspicions.
        heartbeat_interval: heartbeat period in seconds.
        phi_threshold: accrual threshold; ``None`` disables monitoring.
        delay_model: artificial message delay distribution.
        seed: delay RNG seed.
        time_scale: multiplier turning delay-model units into seconds.
    """
    crash_at = crash_at or {}

    def process() -> SfsProcess:
        if phi_threshold is None:
            return SfsProcess(t=t)
        return SfsProcess(
            t=t,
            detector=PhiAccrualDriver(
                interval=heartbeat_interval, threshold=phi_threshold
            ),
        )

    async def main() -> tuple[AsyncioWorld, float]:
        world = AsyncioWorld(
            [process() for _ in range(n)],
            delay_model=delay_model,
            seed=seed,
            time_scale=time_scale,
        )
        for pid, at in crash_at.items():
            world.inject_crash(pid, at)
        for at, who, target in suspect_at or ():
            world.inject_suspicion(who, target, at)
        await world.run_for(duration)
        return world, world.scheduler.now

    world, ran_for = asyncio.run(main())
    processes = world.processes
    crashed = frozenset(p.pid for p in processes if p.crashed)
    return ClusterResult(
        history=world.history(),
        quorum_records=world.trace.quorum_records,
        detected={p.pid: frozenset(p.detected) for p in processes},
        crashed=crashed,
        duration=ran_for,
        false_suspicion_targets=crashed - frozenset(crash_at),
    )
