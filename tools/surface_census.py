#!/usr/bin/env python3
"""Which exported names nothing outside the tests uses (informational).

For each package under ``src/repro`` whose ``__init__`` maps its
``__all__`` names to submodules — the lazy ``name -> submodule`` table
of :mod:`repro._lazy`, or plain ``from repro.<package>.<module> import``
lines — lists every name in ``__all__`` that no file mentions except the
module defining it and the package ``__init__``. Files searched: the
Python sources under ``src/``, ``examples/``, ``benchmarks/`` and
``tools/`` that git does not ignore (so not the staged copies of
``src/`` a benchmark run leaves behind); ``tests/`` is left out on
purpose, since a name only tests use has no caller. A mention is the
name as a whole word, so the count errs towards "used". Nothing gates
on it: such a name is internal but exported, an island with tests and
no user, or a caller still to come.

Usage::

    python tools/surface_census.py
"""

from __future__ import annotations

import ast
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGES = ROOT / "src" / "repro"
SEARCHED = ("src", "examples", "benchmarks", "tools")


def exports(init: Path) -> tuple[list[str], dict[str, str]]:
    """``(__all__, name -> defining submodule)`` of one package."""
    names: list[str] = []
    module_of: dict[str, str] = {}
    prefix = f"repro.{init.parent.name}."
    for node in ast.walk(ast.parse(init.read_text())):
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "__all__" for target in node.targets
        ):
            names = ast.literal_eval(node.value)
        elif isinstance(node, ast.Call) and getattr(
            node.func, "id", None
        ) == "lazy_namespace":
            module_of.update(ast.literal_eval(node.args[1]))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
            prefix
        ):
            for alias in node.names:
                module_of[alias.asname or alias.name] = node.module[len(prefix):]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname and alias.name.startswith(prefix):
                    module_of[alias.asname] = alias.name[len(prefix):]
    return names, module_of


def main() -> int:
    listed = subprocess.run(
        ["git", "ls-files", "--cached", "--others", "--exclude-standard",
         "--", *(f"{top}/*.py" for top in SEARCHED)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.split()
    sources = {ROOT / name: (ROOT / name).read_text() for name in listed}
    unused_total = exported_total = 0
    for init in sorted(PACKAGES.glob("*/__init__.py")):
        names, module_of = exports(init)
        if not names or not set(names) <= module_of.keys():
            continue
        package = init.parent
        unused = []
        for name in names:
            own = package / f"{module_of[name].replace('.', '/')}.py"
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(
                word.search(text)
                for path, text in sources.items()
                if path not in (own, init)
            ):
                unused.append(f"{module_of[name]}:{name}")
        exported_total += len(names)
        unused_total += len(unused)
        print(f"== repro.{package.name}: {len(unused)} of {len(names)} ==")
        for entry in unused:
            print(f"  {entry}")
    print(
        f"total: {unused_total} of {exported_total} exported names "
        "have no caller outside their own module and the tests"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
