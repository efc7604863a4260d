"""The CI docs job, runnable locally: links resolve, examples import."""

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
    the flag is argparse's usage error and the pin file does not exist."""
    result = subprocess.run(
        [sys.executable, os.path.join(REPO_ROOT, "tools", "profile_core.py"),
         "--check"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert result.returncode == 2, result.stdout + result.stderr
    assert "unrecognized arguments: --check" in result.stderr
    assert not os.path.exists(
        os.path.join(REPO_ROOT, "benchmarks", "results",
                     "BENCH_profile_core.json")
    )
