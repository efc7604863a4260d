#!/usr/bin/env python3
"""What each command imports (informational; CI prints it, nothing gates on it).

For ``version``, ``fuzz`` in process (``--backend inproc``, the default
on one CPU) and as the coordinator of a pool (``--jobs 2``, the default
on more), ``fuzz --resume`` (on ``inproc``, whose runner imports the
simulator up front, and on ``serial``, which runs nothing when every
scenario is restored), ``worker`` and ``sweep e7`` (``--backend
serial``): how many ``repro.*`` modules and modules in all the process has
loaded when the command returns, and the ten largest ``-X importtime``
self-times — so an import regression shows in the log before it shows in
``setup_s``. The gate is ``tests/test_cli.py::TestImportBudget``; the
numbers in ``docs/architecture.md`` ("What a command imports") come from
here.

Usage::

    python tools/import_report.py
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

FUZZ = ["fuzz", "--seed", "0", "--count", "5"]
# ``worker`` blocks on a coordinator; what it loads before its first job
# is the CLI module, the core shim and repro.exec.remote.
WORKER = "import repro.__main__, repro._core, repro.exec.remote"
_COUNT = (
    "import sys; ours = [m for m in sys.modules if m.split('.')[0] == 'repro']; "
    "print(f'MODULES {len(ours)} {len(sys.modules)}', file=sys.stderr)"
)
_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+\d+ \|\s+(\S+)$", re.M)


def python(code: str) -> str:
    """Run ``code`` under ``-X importtime``; its stderr."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", code],
        env=env, capture_output=True, text=True,
    )
    if done.returncode != 0:
        sys.exit(done.stderr)
    return done.stderr


def cli(argv: list[str]) -> str:
    return f"from repro.__main__ import main; assert main({argv!r}) == 0"


def report(label: str, code: str) -> None:
    err = python(f"{code}; {_COUNT}")
    ours, total = re.search(r"^MODULES (\d+) (\d+)$", err, re.M).groups()
    print(f"== {label}: {ours} repro.* modules, {total} modules in all ==")
    slowest = sorted(
        ((int(us), name) for us, name in _IMPORTTIME.findall(err)), reverse=True
    )
    for us, name in slowest[:10]:
        print(f"  {us / 1000:7.1f} ms  {name}")


def main() -> int:
    report("version", cli(["version"]))
    with tempfile.TemporaryDirectory() as scratch:
        journaled = FUZZ + ["--journal", os.path.join(scratch, "fuzz.jsonl")]
        inproc = journaled + ["--backend", "inproc"]
        report("fuzz --backend inproc", cli(inproc))
        report("fuzz --jobs 2 (the pool's coordinator)", cli(FUZZ + ["--jobs", "2"]))
        report("fuzz --backend inproc --resume", cli(inproc + ["--resume"]))
        report(
            "fuzz --backend serial --resume",
            cli(journaled + ["--backend", "serial", "--resume"]),
        )
    report("worker (before its first job)", WORKER)
    report(
        "sweep e7 --backend serial",
        cli(["sweep", "e7", "--seeds", "2", "--param", "n=6",
             "--backend", "serial"]),
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
