"""Fixed-timeout heartbeat detection — the naive "perfect" detector.

Every process broadcasts a system-level heartbeat each ``interval``; a
monitor suspects any peer silent for longer than ``timeout``. In a
synchronous network with bounded delay this would implement FS2; in the
asynchronous model it *cannot* (Theorem 1), and experiment E1 measures the
false-suspicion rate as the delay distribution's tail outruns any fixed
timeout.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable

from repro.detectors.base import (
    HEARTBEAT,
    ClockSource,
    PeerMonitor,
    PeriodicLoop,
    SuspicionDriver,
    SuspicionLog,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.protocols.base import DetectionProcess


class HeartbeatMonitor(PeerMonitor):
    """The fixed-timeout detector against an injectable clock.

    The same rule :class:`HeartbeatDriver` applies inside the simulator —
    suspect any peer silent for longer than ``timeout`` — rebased onto a
    :class:`~repro.detectors.base.ClockSource` so it can watch real
    processes (the multi-host coordinator's workers) on wall-clock time.
    Theorem 1's caveat travels with it: over an asynchronous network a
    fixed timeout *will* eventually suspect a slow-but-alive peer, which
    is exactly why the consumer must treat suspicion as reassign-and-
    tolerate-duplicates, never as certainty.

    Args:
        timeout: silence threshold after which a peer is suspected.
        clock: time source (default: wall clock via ``time.monotonic()``).
    """

    def __init__(self, timeout: float = 3.0, clock: ClockSource | None = None):
        super().__init__(clock=clock)
        self.timeout = timeout
        self._last_heard: dict = {}

    def watch(self, peer) -> None:
        self._last_heard[peer] = self.clock.now()

    def heartbeat(self, peer) -> None:
        if peer in self._last_heard:
            self._last_heard[peer] = self.clock.now()

    def check(self) -> list:
        now = self.clock.now()
        newly = []
        for peer, heard in self._last_heard.items():
            if peer in self.suspected:
                continue
            if now - heard > self.timeout:
                self.suspected.add(peer)
                self.log_suspicion(now, self.COORDINATOR, peer)
                newly.append(peer)
        return newly


class HeartbeatDriver(SuspicionDriver, SuspicionLog):
    """Periodic heartbeats plus a fixed-timeout monitor.

    Args:
        interval: gap between heartbeat broadcasts.
        timeout: silence threshold after which a peer is suspected.
        check_every: monitor granularity (default ``interval / 2``).
    """

    def __init__(
        self,
        interval: float = 1.0,
        timeout: float = 3.0,
        check_every: float | None = None,
    ):
        SuspicionLog.__init__(self)
        self.interval = interval
        self.timeout = timeout
        self.check_every = check_every if check_every is not None else interval / 2
        self._last_heard: dict[int, float] = {}

    def start(self, process: "DetectionProcess") -> None:
        now = process.now
        for peer in process.peers:
            self._last_heard[peer] = now
        self._schedule_beat(process)
        self._schedule_check(process)

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------

    def _schedule_beat(self, process: "DetectionProcess") -> None:
        scheduler = process.world.scheduler
        interval = self.interval
        # One closure for the whole loop, re-armed by PeriodicLoop: the
        # old form rebuilt the closure, a guard wrapper, and a TimerHandle
        # every interval. The incarnation pin replaces crash-time timer
        # cancellation — a stale loop (crash, then maybe recovery, which
        # re-arms via start()) sees the bumped incarnation and dies.
        incarnation = process.incarnation

        def beat() -> bool:
            if process.crashed or process.incarnation != incarnation:
                return False
            process.broadcast(HEARTBEAT, kind="system")
            return True

        PeriodicLoop(scheduler, interval, beat).start()

    # ------------------------------------------------------------------
    # Monitoring
    # ------------------------------------------------------------------

    def on_system_message(self, src: int, payload: Hashable, now: float) -> None:
        if payload == HEARTBEAT:
            self._last_heard[src] = now

    def _schedule_check(self, process: "DetectionProcess") -> None:
        scheduler = process.world.scheduler
        check_every = self.check_every
        timeout = self.timeout
        last_heard = self._last_heard
        incarnation = process.incarnation

        def check() -> bool:
            if process.crashed or process.incarnation != incarnation:
                return False
            now = scheduler._now
            detected = process.detected
            suspected = process.suspected
            for peer, heard in last_heard.items():
                if peer in detected or peer in suspected:
                    continue
                if now - heard > timeout:
                    self.log_suspicion(now, process.pid, peer)
                    process.suspect(peer)
            return True

        PeriodicLoop(scheduler, check_every, check).start()
