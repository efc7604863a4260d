#!/usr/bin/env python3
"""Documentation health checks (run by the CI ``docs`` job).

Three checks, stdlib only:

1. **Link resolution** — every relative markdown link in ``README.md`` and
   ``docs/*.md`` must point at a file or directory that exists (external
   ``http(s)``/``mailto`` targets and pure ``#anchors`` are skipped; a
   ``path#anchor`` target is checked for the path part).
2. **Named paths** — every repo-relative file path named in ``README.md``,
   ``docs/architecture.md``, ``docs/fuzzing.md`` or a docstring under
   ``src/`` must exist, links or not, code spans and fences included. A
   path is a word ending in a file extension that either contains a
   ``/`` and starts with something that exists in the repo root,
   ``src/`` or ``src/repro/`` (``benchmarks/record/run.py``,
   ``core/history.py``) or with a top-level directory name
   (``examples/``, ``tools/``, ...: a path into a deleted directory is
   gone too), or is a bare doc or config name (``*.md``, ``*.txt``,
   ``*.toml``, ...), which must exist next to the file naming it or at
   the repo root. Bare source names (``history.py``, ``_ccore.c``) and
   made-up output files (``sweep.jsonl``) are not paths here.
   ``docs/performance.md`` and ``CHANGES.md`` are per-PR history that
   names files as they were, so neither is checked.
3. **Example imports** — every ``examples/*.py`` must import cleanly with
   ``src`` on the path. All examples are ``__main__``-guarded, so importing
   runs no scenario; this catches bit-rotted imports the moment an API
   moves.

Exit status 0 when everything passes; 1 with a per-problem report
otherwise. Run from anywhere: paths resolve relative to the repo root.

Usage::

    python tools/check_docs.py
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# [text](target) — excluding images' leading "!" is unnecessary: image
# targets must resolve too. Inline code spans are stripped first.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_CODE_SPAN = re.compile(r"`[^`]*`")
_FENCE = re.compile(r"^(```|~~~)")
# A word ending in a file extension, not preceded by a path character (so
# ``/tmp/x.json`` and URLs do not match from the middle).
_PATH = re.compile(
    r"(?<![\w./-])((?:\.{1,2}/)*[\w.-]+(?:/[\w.-]+)*"
    r"\.(?:py|md|jsonl|json|c|toml|txt|ya?ml|cfg|sh))\b"
)
# Where a named path may live: the repo root, src/ and the package.
_PATH_ROOTS = ("", "src", os.path.join("src", "repro"))
NAMED_PATH_DOCS = ("README.md", "docs/architecture.md", "docs/fuzzing.md")
# Bare names with these extensions are docs and configs, which live next
# to the file naming them or at the repo root.
_BARE_CHECKED = (".md", ".txt", ".toml", ".cfg", ".yml", ".yaml", ".sh")
# A path starting with one of these is repo-relative even when the
# directory itself is gone.
_REPO_DIRS = ("benchmarks", "docs", "examples", "src", "tests", "tools")


def doc_files() -> list[str]:
    """README.md plus every markdown file under docs/, repo-relative."""
    files = []
    readme = os.path.join(REPO_ROOT, "README.md")
    if os.path.exists(readme):
        files.append(readme)
    docs_dir = os.path.join(REPO_ROOT, "docs")
    if os.path.isdir(docs_dir):
        for name in sorted(os.listdir(docs_dir)):
            if name.endswith(".md"):
                files.append(os.path.join(docs_dir, name))
    return files


def check_links(path: str) -> list[str]:
    """Problems for every unresolvable relative link in one markdown file."""
    problems = []
    in_fence = False
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if _FENCE.match(line.strip()):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            for target in _LINK.findall(_CODE_SPAN.sub("", line)):
                if target.startswith(("http://", "https://", "mailto:", "#")):
                    continue
                resolved = os.path.normpath(
                    os.path.join(os.path.dirname(path), target.split("#", 1)[0])
                )
                if not os.path.exists(resolved):
                    rel = os.path.relpath(path, REPO_ROOT)
                    problems.append(
                        f"{rel}:{lineno}: broken link -> {target}"
                    )
    return problems


def _dangling(name: str, where: str) -> bool:
    """Whether ``name``, named in a file under directory ``where``, is a
    repo-relative path (see the module docstring) that does not exist."""
    if "/" not in name:
        if not name.endswith(_BARE_CHECKED):
            return False
        return not any(
            os.path.exists(os.path.join(base, name))
            for base in (where, REPO_ROOT)
        )
    if name.startswith("."):
        return not os.path.exists(os.path.join(where, name))
    first = name.split("/", 1)[0]
    bases = [
        os.path.join(REPO_ROOT, root)
        for root in _PATH_ROOTS
        if os.path.exists(os.path.join(REPO_ROOT, root, first))
    ]
    if not bases:
        return first in _REPO_DIRS
    return not any(os.path.exists(os.path.join(base, name)) for base in bases)


def _texts(path: str):
    """``(lineno, text)`` pairs to scan for named paths: every line of a
    markdown file, every line of every docstring of a Python file."""
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    if not path.endswith(".py"):
        yield from enumerate(source.splitlines(), start=1)
        return
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if not (
            isinstance(body, list) and body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            continue
        start = body[0].value.lineno
        for offset, line in enumerate(body[0].value.value.splitlines()):
            yield start + offset, line


def named_path_files() -> list[str]:
    """The files whose named paths must exist, absolute."""
    files = [os.path.join(REPO_ROOT, doc) for doc in NAMED_PATH_DOCS]
    for dirpath, dirnames, filenames in os.walk(os.path.join(REPO_ROOT, "src")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        files.extend(
            os.path.join(dirpath, name)
            for name in sorted(filenames)
            if name.endswith(".py")
        )
    return files


def check_named_paths(path: str) -> list[str]:
    """Problems for every repo-relative path ``path`` names that is gone."""
    where = os.path.dirname(path)
    rel = os.path.relpath(path, REPO_ROOT)
    return [
        f"{rel}:{lineno}: names {name}, which does not exist"
        for lineno, text in _texts(path)
        for name in _PATH.findall(text)
        if _dangling(name, where)
    ]


def check_examples() -> list[str]:
    """Problems for every example module that fails to import."""
    problems = []
    examples_dir = os.path.join(REPO_ROOT, "examples")
    if not os.path.isdir(examples_dir):
        return ["examples/ directory is missing"]
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    for name in sorted(os.listdir(examples_dir)):
        if not name.endswith(".py"):
            continue
        module_path = os.path.join(examples_dir, name)
        script = (
            "import importlib.util, sys; "
            f"spec = importlib.util.spec_from_file_location("
            f"{name[:-3]!r}, {module_path!r}); "
            "module = importlib.util.module_from_spec(spec); "
            "spec.loader.exec_module(module)"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO_ROOT,
        )
        if result.returncode != 0:
            tail = result.stderr.strip().splitlines()[-1:]
            problems.append(
                f"examples/{name}: import failed"
                + (f" ({tail[0]})" if tail else "")
            )
    return problems


def main() -> int:
    problems: list[str] = []
    files = doc_files()
    if not any(f.endswith("README.md") for f in files):
        problems.append("README.md is missing")
    for path in files:
        problems.extend(check_links(path))
    for path in named_path_files():
        if os.path.exists(path):
            problems.extend(check_named_paths(path))
        else:
            problems.append(f"{os.path.relpath(path, REPO_ROOT)} is missing")
    problems.extend(check_examples())
    if problems:
        print(f"docs check: {len(problems)} problem(s)")
        for problem in problems:
            print(f"  ! {problem}")
        return 1
    checked = ", ".join(os.path.relpath(f, REPO_ROOT) for f in files)
    print(f"docs check: OK ({checked}; named paths exist; "
          "all examples import)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
