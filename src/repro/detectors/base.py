"""Suspicion sources: the FS1 mechanism "provided by the underlying system".

The paper assumes FS1 (eventual detection) is implemented below the model,
"using timeouts: each process would periodically send a message to every
other process". A :class:`SuspicionDriver` is exactly that layer: it rides
*system* messages (excluded from the modelled event alphabet, see
:mod:`repro.sim.process`) and calls ``process.suspect(peer)`` when a peer
falls silent — possibly erroneously, which is the entire reason FS2 must be
weakened to sFS2a-d.

Two substrates run the same driver objects
(:class:`~repro.detectors.heartbeat.HeartbeatDriver`,
:class:`~repro.detectors.phi_accrual.PhiAccrualDriver`), which
self-schedule beat/check callbacks on ``process.world.scheduler``:

* the discrete-event simulator, where that is the virtual-time
  :class:`~repro.sim.scheduler.Scheduler`;
* the asyncio host (:mod:`repro.runtime.host`), where it is the wall
  clock — one detector body on both clocks.

Consumers that are not simulated processes — the multi-host dispatch
coordinator (:mod:`repro.exec.remote`) — use the :class:`ClockSource`
seam instead: a :class:`PeerMonitor` asks its injected clock for
``now()``, so the same suspicion rules run against ``time.monotonic()``
or a test-controlled :class:`ManualClock`.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Hashable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.protocols.base import DetectionProcess

HEARTBEAT = "heartbeat"
"""System payload tag for liveness pings."""


class SuspicionDriver:
    """Interface for timeout-style suspicion generators in the DES."""

    def start(self, process: "DetectionProcess") -> None:
        """Attach to a bound process and begin emitting/monitoring."""
        raise NotImplementedError

    def on_system_message(self, src: int, payload: Hashable, now: float) -> None:
        """Observe system traffic (heartbeats) addressed to our process."""
        raise NotImplementedError


class PeriodicLoop:
    """A periodic scheduler callback: ``body`` runs every ``period`` for
    as long as it returns true.

    The callable is an object, not a closure naming itself: a
    self-referential closure is a reference cycle, which would keep the
    process and scheduler it captured alive past
    :meth:`~repro.sim.world.World.dispose` until the cyclic collector
    runs.
    """

    __slots__ = ("_scheduler", "_period", "_body")

    def __init__(self, scheduler, period: float, body) -> None:
        self._scheduler = scheduler
        self._period = period
        self._body = body

    def start(self) -> None:
        """Arm the next firing, one ``period`` from now."""
        scheduler = self._scheduler
        scheduler.schedule_callback_at(
            scheduler._now + self._period, self, True
        )

    def __call__(self) -> None:
        if self._body():
            self.start()


class SuspicionLog:
    """Mixin bookkeeping: what was suspected, when, and was it erroneous.

    Drivers record each suspicion they raise; experiment E1 compares these
    against the ground-truth crash schedule to count *false* suspicions —
    the empirical face of Theorem 1.
    """

    def __init__(self) -> None:
        self.suspicions: list[tuple[float, int, int]] = []

    def log_suspicion(self, now: float, observer: int, target: int) -> None:
        """Record that ``observer`` suspected ``target`` at time ``now``."""
        self.suspicions.append((now, observer, target))

    def false_suspicions(self, crash_times: dict[int, float]) -> list[tuple[float, int, int]]:
        """Suspicions raised against processes not actually crashed yet."""
        out = []
        for now, observer, target in self.suspicions:
            crashed_at = crash_times.get(target)
            if crashed_at is None or crashed_at > now:
                out.append((now, observer, target))
        return out


# ----------------------------------------------------------------------
# Clock-source seam: the same detectors on simulated or wall-clock time
# ----------------------------------------------------------------------


class ClockSource:
    """Injectable time source for substrate-free detection logic.

    The DES drivers read the scheduler's virtual clock directly; a
    :class:`PeerMonitor` instead asks a ``ClockSource`` for ``now()``,
    so the identical suspicion rules can run against wall-clock time
    (:class:`MonotonicClock`) or a test-stepped :class:`ManualClock`.
    """

    def now(self) -> float:
        """The current time, in seconds; monotone non-decreasing."""
        raise NotImplementedError


class MonotonicClock(ClockSource):
    """Wall-clock time via ``time.monotonic()`` (immune to NTP steps)."""

    def now(self) -> float:
        return time.monotonic()


class ManualClock(ClockSource):
    """A clock tests advance by hand, for deterministic detector checks."""

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, dt: float) -> None:
        """Move time forward by ``dt`` seconds (never backward)."""
        if dt < 0:
            raise ValueError(f"clocks only move forward, got dt={dt}")
        self._now += dt


class PeerMonitor(SuspicionLog):
    """Substrate-free peer suspicion: watch, feed heartbeats, poll.

    The wall-clock face of the FS1 layer, used by consumers that are not
    simulated processes — chiefly the multi-host dispatch coordinator
    (:mod:`repro.exec.remote`), which watches its *workers* with the
    repo's own detectors instead of an ad-hoc timeout. Lifecycle::

        monitor = HeartbeatMonitor(timeout=2.0)   # or PhiAccrualMonitor
        monitor.watch(peer)          # register; "heard from" starts now
        monitor.heartbeat(peer)      # on every liveness signal
        newly = monitor.check()      # peers newly declared failed

    ``check()`` reports each peer exactly once; suspicion is permanent,
    mirroring the DES drivers (a falsely suspected worker's late results
    are still *accepted* by the coordinator — pure jobs make duplicates
    safe — but it is never assigned new work). Suspicions are recorded in
    the inherited :class:`SuspicionLog` with observer
    :data:`COORDINATOR`, so the same false-suspicion accounting the
    experiments use applies to real fleets.
    """

    COORDINATOR = -1
    """Observer id logged for suspicions raised by a non-process watcher."""

    def __init__(self, clock: ClockSource | None = None):
        SuspicionLog.__init__(self)
        self.clock = clock if clock is not None else MonotonicClock()
        self.suspected: set = set()

    def watch(self, peer: Hashable) -> None:
        """Register ``peer``; its silence is measured from this moment."""
        raise NotImplementedError

    def heartbeat(self, peer: Hashable) -> None:
        """Record a liveness signal from ``peer`` at ``clock.now()``."""
        raise NotImplementedError

    def check(self) -> list:
        """Peers newly suspected since the last call (each reported once)."""
        raise NotImplementedError
