"""repro — Simulating Fail-Stop in Asynchronous Distributed Systems.

A full reproduction of Sabel & Marzullo (Cornell TR 94-1413 / PODC 1994):

* :mod:`repro.core` — the formal model: events, histories, happens-before,
  the FS and sFS failure models, the Theorem 5 indistinguishability engine,
  quorums, and the Section 4 lower bounds.
* :mod:`repro.sim` — a deterministic discrete-event simulator of the
  asynchronous system model (FIFO channels, unbounded delays, adversary).
* :mod:`repro.protocols` — the Section 5 one-round simulated-fail-stop
  protocol and the Section 6 "cheap" unilateral model.
* :mod:`repro.detectors` — FS1 suspicion sources (heartbeat timeout,
  phi-accrual).
* :mod:`repro.apps` — leader election, last-process-to-fail, membership.
* :mod:`repro.analysis` — conformance reports, metrics, experiment drivers.
* :mod:`repro.runtime` — an asyncio host that runs the same protocol
  objects on the wall clock.
"""

from repro._version import __version__
from repro.errors import (
    BoundsError,
    CannotRearrangeError,
    InvalidHistoryError,
    ProtocolError,
    ReproError,
    SimulationError,
)

def core_info() -> dict:
    """Which event core is active and how it was selected.

    ``core`` is ``"accel"`` (compiled extension) or ``"pure"``;
    ``selection`` is ``"env"`` when forced via ``REPRO_CORE`` and
    ``"auto"`` when detected; ``accel_import_error`` explains, in auto
    mode, why the extension was unavailable (else ``None``).
    """
    import platform

    from repro import _core

    return {
        "version": __version__,
        "python": platform.python_version(),
        "core": _core.ACTIVE_IMPL,
        "selection": _core.SELECTION,
        "accel_import_error": _core.ACCEL_IMPORT_ERROR,
    }


__all__ = [
    "__version__",
    "core_info",
    "ReproError",
    "InvalidHistoryError",
    "CannotRearrangeError",
    "ProtocolError",
    "SimulationError",
    "BoundsError",
]
