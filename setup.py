"""Legacy setup shim + optional compiled event core.

The environment ships setuptools without the ``wheel`` package, so PEP 517
editable installs (which build an editable wheel) fail. This shim lets
``pip install -e . --no-use-pep517 --no-build-isolation`` take the legacy
``setup.py develop`` path. All metadata lives in ``pyproject.toml``.

The compiled event core (``repro._accel._ccore``) is strictly optional:
any build failure degrades to a warning and the pure-Python core. Build
it in place for a source checkout with::

    python setup.py build_ext --inplace

Set ``REPRO_BUILD_ACCEL=0`` to skip the extension entirely.
"""

import hashlib
import os
from pathlib import Path

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    """Build the accel extension when possible; never fail the install."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # missing compiler/headers
            self._skip(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            self._skip(exc)

    @staticmethod
    def _skip(exc):
        print(
            "warning: optional extension repro._accel._ccore was not "
            f"built ({exc}); the pure-Python event core will be used"
        )


CCORE = "src/repro/_accel/_ccore.c"

ext_modules = []
if os.environ.get("REPRO_BUILD_ACCEL", "1") != "0":
    # The module carries the hash of the source it was built from, so
    # repro._accel can refuse an in-place build left over from another
    # _ccore.c instead of silently running it.
    source_sha = hashlib.sha256(Path(CCORE).read_bytes()).hexdigest()
    ext_modules.append(
        Extension(
            "repro._accel._ccore",
            sources=[CCORE],
            define_macros=[("REPRO_CCORE_SHA256", f'"{source_sha}"')],
        )
    )

setup(ext_modules=ext_modules, cmdclass={"build_ext": OptionalBuildExt})
