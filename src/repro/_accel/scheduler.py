"""Accelerated scheduler surface (see ``repro.sim.scheduler``).

``Scheduler``, ``TimerHandle``, and ``_Entry`` come straight from the C
extension. Unlike the pure scheduler, the compiled heap holds ``_Entry``
objects directly (no ``(time, seq, entry)`` triples — the C heap compares
struct fields); everything else mirrors the pure class method for method.
"""

from repro._accel._ccore import (  # noqa: F401  (re-exported surface)
    Scheduler,
    TimerHandle,
    _Entry,
)
