"""Optional compiled event core.

This package guards the C extension ``repro._accel._ccore`` — two
kernels: the scheduler and the network hot path. The canonical modules'
core-selection blocks use its types straight from ``_ccore``
(``repro.sim.network`` subclasses ``NetworkCore`` there to complete the
pure network's public surface). It is selected at import time by
:mod:`repro._core` (``REPRO_CORE=accel|pure``, default: accel when the
extension is importable) — nothing should import it directly except the
shim, those core-selection blocks, and the cross-core tests.

The pure-Python modules remain the **authoritative reference**: every
behaviour here, down to counter visibility, rng stream consumption, and
error-message text, must be bit-identical to them. The contract is
enforced by the cross-core digest property tests under ``tests/accel/``.

Importing this package raises ``ImportError`` when the extension was not
built, or was built from a different ``_ccore.c`` than the one beside it
— callers (the shim) treat that as "use the pure core".
"""

from __future__ import annotations

import hashlib
from pathlib import Path

# Imported by absolute module path (not `from repro._accel import ...`)
# so a missing extension reads as "No module named 'repro._accel._ccore'"
# rather than a spurious circular-import message.
import repro._accel._ccore as _ccore
from repro.errors import SimulationError

# A stale in-place build keeps importing after _ccore.c is edited, and
# would pass for the current core. setup.py compiles the source's sha256
# into the module; installed trees ship no _ccore.c and skip the check.
_source = Path(__file__).with_name("_ccore.c")
if _source.exists() and (
    hashlib.sha256(_source.read_bytes()).hexdigest()
    != getattr(_ccore, "_SOURCE_SHA256", None)
):
    raise ImportError(
        f"{_ccore.__file__} was built from a different _ccore.c; "
        "rerun python setup.py build_ext --inplace"
    )

# Hand the extension the exception type it raises. This module stays
# import-light on purpose — the canonical modules import it from their
# bottom-of-module core-selection blocks, so pulling in repro.core or
# repro.sim here would be circular. (The class NetworkCore.fanout mints
# is handed over by repro.sim.network, which has it imported already.)
_ccore._install_error(SimulationError)

__all__ = ["_ccore"]
