"""The CI docs job, runnable locally: links resolve, named paths exist,
examples import."""

import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_docs_check_passes():
    result = subprocess.run(
        [sys.executable, os.path.join(REPO_ROOT, "tools", "check_docs.py")],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_docs_suite_exists():
    for path in ("README.md", "docs/architecture.md", "docs/performance.md"):
        assert os.path.exists(os.path.join(REPO_ROOT, path)), path


def test_profile_core_pins_no_rate():
    """The warn-only ``--check`` against a committed events/s number is
    gone (the gate on the event core is ``benchmarks/record/run.py``):
    the flag is argparse's usage error."""
    result = subprocess.run(
        [sys.executable, os.path.join(REPO_ROOT, "tools", "profile_core.py"),
         "--check"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert result.returncode == 2, result.stdout + result.stderr
    assert "unrecognized arguments: --check" in result.stderr


def _check_docs():
    sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))
    try:
        import check_docs
    finally:
        sys.path.pop(0)
    return check_docs


def _named(problems):
    return [problem.split(": ", 1)[1] for problem in problems]


def test_named_path_check_flags_only_missing_repo_paths(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        '"""See DESIGN.md, bench_output.txt and tools/no_such_tool.py.\n'
        "\n"
        "Still here: README.md, core/history.py, benchmarks/record/run.py,\n"
        "tests/test_docs.py, pyproject.toml; not paths: history.py,\n"
        '_ccore.c, sweep.jsonl, runs/a.jsonl."""\n'
    )
    assert _named(_check_docs().check_named_paths(str(module))) == [
        "names DESIGN.md, which does not exist",
        "names bench_output.txt, which does not exist",
        "names tools/no_such_tool.py, which does not exist",
    ]


def test_a_path_into_a_deleted_directory_is_dangling(tmp_path, monkeypatch):
    check_docs = _check_docs()
    (tmp_path / "src").mkdir()
    module = tmp_path / "src" / "module.py"
    module.write_text(
        '"""Run examples/quickstart.py; see src/module.py."""\n'
    )
    monkeypatch.setattr(check_docs, "REPO_ROOT", str(tmp_path))
    assert _named(check_docs.check_named_paths(str(module))) == [
        "names examples/quickstart.py, which does not exist",
    ]
