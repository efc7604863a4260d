"""Phi-accrual failure detection (Hayashibara et al.), as an FS1 source.

Instead of a binary timeout, the accrual detector outputs a *suspicion
level*::

    phi(t_now) = -log10( P(heartbeat arrives after t_now | history) )

estimated from a sliding window of observed inter-arrival times under a
Gaussian model. ``phi = 1`` means roughly a 10% chance the peer is alive
and merely slow; ``phi = 3`` means 0.1%. The threshold trades detection
latency against false suspicions — the FS1-vs-FS2 tension that motivates
the whole paper, and experiment E10 sweeps it.

The math lives in :class:`PhiAccrualEstimator`; :class:`PhiAccrualDriver`
runs it unchanged on the discrete-event simulator and on the asyncio
host (:mod:`repro.runtime`), so both substrates exercise the same code.
"""

from __future__ import annotations

import math
from collections import deque
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


def _normal_tail(x: float) -> float:
    """P(X > x) for a standard normal (complementary CDF)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


class PhiAccrualEstimator:
    """Sliding-window Gaussian estimator of heartbeat inter-arrival times.

    Args:
        window: number of recent inter-arrival samples retained.
        min_std: floor on the estimated standard deviation, preventing
            phi from exploding when the network is unrealistically steady.
    """

    def __init__(self, window: int = 100, min_std: float = 0.05):
        if window < 2:
            raise ValueError("window must be at least 2")
        self.window = window
        self.min_std = min_std
        self._intervals: deque[float] = deque(maxlen=window)
        self._last_arrival: float | None = None
        # Memoised (mean, std) for the current window contents. The
        # window only changes in heartbeat(), while phi() is polled every
        # check tick for every peer — without the cache the detector
        # recomputes identical window statistics many times per arrival.
        self._stats: tuple[float, float] | None = None

    def heartbeat(self, now: float) -> None:
        """Record a heartbeat arrival at time ``now``."""
        if self._last_arrival is not None:
            delta = now - self._last_arrival
            if delta >= 0:
                self._intervals.append(delta)
                self._stats = None
        self._last_arrival = now

    @property
    def samples(self) -> int:
        """Number of inter-arrival samples currently in the window."""
        return len(self._intervals)

    def mean_std(self) -> tuple[float, float]:
        """Windowed mean and (floored) standard deviation (memoised)."""
        stats = self._stats
        if stats is not None:
            return stats
        intervals = self._intervals
        if not intervals:
            stats = (0.0, self.min_std)
            self._stats = stats
            return stats
        count = len(intervals)
        mean = sum(intervals) / count
        # Explicit loop, same left-to-right accumulation order as the
        # former sum(genexpr) — bit-identical variance, no generator
        # frame churn on the per-check hot path.
        acc = 0.0
        for x in intervals:
            acc += (x - mean) ** 2
        stats = (mean, max(math.sqrt(acc / count), self.min_std))
        self._stats = stats
        return stats

    def phi(self, now: float) -> float:
        """The suspicion level at time ``now`` (0 when data is lacking)."""
        if self._last_arrival is None or len(self._intervals) < 2:
            return 0.0
        elapsed = now - self._last_arrival
        mean, std = self.mean_std()
        tail = _normal_tail((elapsed - mean) / std)
        if tail <= 0.0:
            return float("inf")
        return -math.log10(tail)


class PhiAccrualMonitor(PeerMonitor):
    """Accrual (phi) suspicion against an injectable clock.

    One :class:`PhiAccrualEstimator` per watched peer — the same math
    :class:`PhiAccrualDriver` runs — polled on wall-clock time,
    so the multi-host coordinator's view of a worker is a continuous
    suspicion level crossed by ``threshold``, not a binary timeout.

    Each estimator is seeded at ``watch()`` time with two synthetic
    inter-arrival samples of ``expected_interval`` (the standard
    bootstrap: Hayashibara-style deployments prime the window with the
    configured heartbeat period). That makes phi well-defined from the
    first instant, so a peer that dies before ever heartbeating is still
    detected — without the seed, the window never reaches two samples
    and phi stays 0 forever.

    Args:
        threshold: phi level at which a peer is suspected.
        expected_interval: the heartbeat period peers were told to use;
            seeds each estimator's window.
        window: estimator window size.
        min_std: floor on the estimated standard deviation.
        clock: time source (default: wall clock via ``time.monotonic()``).
    """

    def __init__(
        self,
        threshold: float = 8.0,
        expected_interval: float = 1.0,
        window: int = 100,
        min_std: float = 0.05,
        clock: ClockSource | None = None,
    ):
        super().__init__(clock=clock)
        if expected_interval <= 0:
            raise ValueError(
                f"expected_interval must be > 0, got {expected_interval}"
            )
        self.threshold = threshold
        self.expected_interval = expected_interval
        self.window = window
        self.min_std = min_std
        self._estimators: dict = {}

    def watch(self, peer) -> None:
        estimator = PhiAccrualEstimator(
            window=self.window, min_std=self.min_std
        )
        now = self.clock.now()
        interval = self.expected_interval
        for at in (now - 2 * interval, now - interval, now):
            estimator.heartbeat(at)
        self._estimators[peer] = estimator

    def heartbeat(self, peer) -> None:
        if peer in self._estimators:
            self._estimators[peer].heartbeat(self.clock.now())

    def phi(self, peer) -> float:
        """Current suspicion level for ``peer``."""
        return self._estimators[peer].phi(self.clock.now())

    def check(self) -> list:
        now = self.clock.now()
        newly = []
        for peer, estimator in self._estimators.items():
            if peer in self.suspected:
                continue
            if estimator.phi(now) > self.threshold:
                self.suspected.add(peer)
                self.log_suspicion(now, self.COORDINATOR, peer)
                newly.append(peer)
        return newly


class PhiAccrualDriver(SuspicionDriver, SuspicionLog):
    """Accrual-based suspicion source for the discrete-event simulator.

    Args:
        interval: heartbeat broadcast period.
        threshold: phi level at which a peer is suspected.
        window: estimator window size.
        check_every: monitor granularity (default ``interval / 2``).
        warmup: minimum samples before a peer can be suspected.
    """

    def __init__(
        self,
        interval: float = 1.0,
        threshold: float = 2.0,
        window: int = 100,
        check_every: float | None = None,
        warmup: int = 5,
    ):
        SuspicionLog.__init__(self)
        self.interval = interval
        self.threshold = threshold
        self.window = window
        self.check_every = check_every if check_every is not None else interval / 2
        self.warmup = warmup
        self._estimators: dict[int, PhiAccrualEstimator] = {}

    def start(self, process: "DetectionProcess") -> None:
        for peer in process.peers:
            self._estimators[peer] = PhiAccrualEstimator(window=self.window)
        self._schedule_beat(process)
        self._schedule_check(process)

    def phi(self, peer: int, now: float) -> float:
        """Current suspicion level for ``peer``."""
        return self._estimators[peer].phi(now)

    def _schedule_beat(self, process: "DetectionProcess") -> None:
        scheduler = process.world.scheduler
        interval = self.interval
        # Single closure re-armed by PeriodicLoop; incarnation pin kills
        # stale loops after a crash/recovery (see
        # HeartbeatDriver._schedule_beat).
        incarnation = process.incarnation

        def beat() -> bool:
            if process.crashed or process.incarnation != incarnation:
                return False
            process.broadcast(HEARTBEAT, kind="system")
            return True

        PeriodicLoop(scheduler, interval, beat).start()

    def on_system_message(self, src: int, payload: Hashable, now: float) -> None:
        if payload == HEARTBEAT and src in self._estimators:
            self._estimators[src].heartbeat(now)

    def _schedule_check(self, process: "DetectionProcess") -> None:
        scheduler = process.world.scheduler
        check_every = self.check_every
        threshold = self.threshold
        warmup = self.warmup
        estimators = self._estimators
        incarnation = process.incarnation

        def check() -> bool:
            if process.crashed or process.incarnation != incarnation:
                return False
            now = scheduler._now
            detected = process.detected
            suspected = process.suspected
            for peer, estimator in estimators.items():
                if peer in detected or peer in suspected:
                    continue
                if len(estimator._intervals) < warmup:
                    continue
                if estimator.phi(now) > threshold:
                    self.log_suspicion(now, process.pid, peer)
                    process.suspect(peer)
            return True

        PeriodicLoop(scheduler, check_every, check).start()
