"""Wall-clock asyncio runtime for the paper's protocols.

The discrete-event simulator proves the protocol's properties under fully
adversarial timing; this runtime runs the *same* process objects —
:class:`~repro.protocols.sfs.SfsProcess` and its variants, with the same
heartbeat / phi-accrual drivers — under real timing and asyncio scheduling
jitter, and records histories the same :mod:`repro.core` checkers judge.
:class:`AsyncioWorld` is the host (:mod:`repro.runtime.host` lists what it
supplies); :func:`run_cluster` is the one-call scenario.
"""

from repro.runtime.host import AsyncioClock, AsyncioWorld
from repro.runtime.service import ClusterResult, run_cluster
from repro.runtime.transport import LocalTransport

__all__ = [
    "AsyncioClock",
    "AsyncioWorld",
    "LocalTransport",
    "ClusterResult",
    "run_cluster",
]
