"""Shared fixtures and helpers for the repro test suite."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.events import crash, failed, recv, send
from repro.core.history import History
from repro.core.messages import MessageMint


@pytest.fixture
def mints():
    """One message mint per process id, allocated on demand."""
    cache: dict[int, MessageMint] = {}

    def get(sender: int) -> MessageMint:
        if sender not in cache:
            cache[sender] = MessageMint(sender)
        return cache[sender]

    return get


@pytest.fixture
def simple_exchange(mints):
    """A minimal valid history: 0 messages 1, 0 crashes, 1 detects 0."""
    msg = mints(0).mint("ping")
    return History(
        [send(0, 1, msg), recv(1, 0, msg), crash(0), failed(1, 0)], n=2
    )


@pytest.fixture
def bad_pair_history():
    """A history with one bad pair: detection precedes the crash."""
    return History([failed(1, 0), crash(0)], n=2)


def make_chain_history(n: int = 3):
    """send 0->1, 1 relays to 2: a happens-before chain across 3 processes."""
    mint0, mint1 = MessageMint(0), MessageMint(1)
    m1 = mint0.mint("a")
    m2 = mint1.mint("b")
    return History(
        [send(0, 1, m1), recv(1, 0, m1), send(1, 2, m2), recv(2, 1, m2)],
        n=n,
    )


def run_sfs_world(n=9, t=2, seed=7, faults=None, adversary_shield=None, heal_at=None):
    """Build, fault, and quiesce an SfsProcess world; returns the world."""
    from repro.protocols import SfsProcess
    from repro.sim import build_world

    world = build_world(n, lambda: SfsProcess(t=t), seed=seed)
    if adversary_shield is not None:
        target, shielded = adversary_shield
        world.adversary.hold_suspicions_about(target, shielded)
    for kind, at, proc, target in faults or []:
        if kind == "crash":
            world.inject_crash(proc, at)
        else:
            world.inject_suspicion(proc, target, at)
    if heal_at is not None:
        world.scheduler.schedule_at(heal_at, world.adversary.heal)
    world.run_to_quiescence()
    return world


SRC = Path(__file__).resolve().parents[1] / "src"


def stage_src(root: Path, *, extension: bool) -> Path:
    """Copy ``src/`` under ``root`` the way ``benchmarks/record/run.py``
    stages it (no ``.so``), then put the built extension back if asked."""
    staged = root / "src"
    shutil.copytree(
        SRC, staged,
        ignore=shutil.ignore_patterns("__pycache__", "*.so", "*.pyc"),
    )
    if extension:
        for built in (SRC / "repro" / "_accel").glob("_ccore*.so"):
            shutil.copy2(built, staged / "repro" / "_accel" / built.name)
    return staged


def run_python(src: Path, core: str | None, *args: str):
    """``python <args>`` with ``src`` on the path and ``REPRO_CORE`` set to
    ``core`` (``None``: unset); returns the completed process."""
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("REPRO_CORE", None)
    if core is not None:
        env["REPRO_CORE"] = core
    return subprocess.run(
        [sys.executable, *args],
        env=env, capture_output=True, text=True, cwd=src,
    )
