"""Core-implementation selection (pure Python vs compiled).

Two kernels of the event core — scheduler and network hot path — exist
twice: the authoritative pure-Python modules and an optional C extension
(``repro._accel``) that must be bit-identical to them. This shim decides,
once per process at import time, which one the canonical modules
re-export. (The history recorder, ``repro.core.history``, and the delay
models, ``repro.sim.delays``, exist once and do not consult it.)

Selection, via the ``REPRO_CORE`` environment variable:

* ``REPRO_CORE=pure``  — always the pure core (never imports the extension).
* ``REPRO_CORE=accel`` — require the compiled core; ``ImportError`` if the
  extension is not built, or was built from a different ``_ccore.c``.
* unset/empty          — auto: compiled core when importable, else pure.

Module attributes (stable surface used by ``repro.core_info()``, journal
headers, and benchmark metadata):

* ``USE_ACCEL`` — True when the compiled core is active.
* ``ACTIVE_IMPL`` — ``"accel"`` or ``"pure"``.
* ``SELECTION`` — ``"env"`` (explicit override) or ``"auto"``.
* ``ACCEL_IMPORT_ERROR`` — in auto mode, why the extension failed to
  import (None when it imported, or was never tried).
"""

from __future__ import annotations

import os

REPRO_CORE = os.environ.get("REPRO_CORE", "").strip().lower()
if REPRO_CORE not in ("", "accel", "pure"):
    raise ValueError(
        f"REPRO_CORE must be 'accel', 'pure', or unset, got {REPRO_CORE!r}"
    )

ACCEL_IMPORT_ERROR: str | None = None

if REPRO_CORE == "pure":
    USE_ACCEL = False
    SELECTION = "env"
else:
    SELECTION = "env" if REPRO_CORE == "accel" else "auto"
    try:
        import repro._accel  # noqa: F401  (side effect: binds C types)

        USE_ACCEL = True
    except ImportError as exc:
        if REPRO_CORE == "accel":
            raise ImportError(
                "REPRO_CORE=accel but the compiled core is unavailable "
                f"({exc}); build it with `python setup.py build_ext "
                "--inplace` or unset REPRO_CORE"
            ) from exc
        USE_ACCEL = False
        ACCEL_IMPORT_ERROR = str(exc)

ACTIVE_IMPL = "accel" if USE_ACCEL else "pure"
