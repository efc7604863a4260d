"""Suspicion sources implementing the paper's FS1 timeout assumption.

* :class:`~repro.detectors.heartbeat.HeartbeatDriver` — fixed timeout,
  the naive detector whose false suspicions demonstrate Theorem 1.
* :class:`~repro.detectors.phi_accrual.PhiAccrualDriver` — accrual
  (phi) detection with a tunable threshold.

Both drivers run unchanged on the DES and on the asyncio host
(:mod:`repro.runtime.host`).

The same two detectors also come in a substrate-free *monitor* form
(:class:`~repro.detectors.heartbeat.HeartbeatMonitor`,
:class:`~repro.detectors.phi_accrual.PhiAccrualMonitor`) built on the
:class:`~repro.detectors.base.ClockSource` seam — identical suspicion
rules driven by an injected clock instead of the simulator's scheduler,
which is how the multi-host dispatch coordinator
(:mod:`repro.exec.remote`) watches its workers on wall-clock time.
"""

from repro._lazy import lazy_namespace

__getattr__, __dir__ = lazy_namespace(globals(), {
    "HEARTBEAT": "base",
    "ClockSource": "base",
    "ManualClock": "base",
    "MonotonicClock": "base",
    "PeerMonitor": "base",
    "SuspicionDriver": "base",
    "SuspicionLog": "base",
    "HeartbeatDriver": "heartbeat",
    "HeartbeatMonitor": "heartbeat",
    "PhiAccrualDriver": "phi_accrual",
    "PhiAccrualEstimator": "phi_accrual",
    "PhiAccrualMonitor": "phi_accrual",
})

__all__ = [
    "HEARTBEAT",
    "ClockSource",
    "ManualClock",
    "MonotonicClock",
    "PeerMonitor",
    "SuspicionDriver",
    "SuspicionLog",
    "HeartbeatDriver",
    "HeartbeatMonitor",
    "PhiAccrualDriver",
    "PhiAccrualEstimator",
    "PhiAccrualMonitor",
]
