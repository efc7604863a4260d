"""Tiny job-runner entrypoints for execution-layer tests.

A real job kind lives in library code (``repro.analysis.sweep:run_sweep_job``
and friends); these exist so the exec tests can exercise the machinery
without simulating anything. They must stay module-level and
side-effect-free: the parallel executor resolves them by name inside
worker processes.
"""

import gc
import os
import time

from repro.exec import JobSpec


def square(job: JobSpec) -> int:
    """seed**2 — the cheapest possible pure job."""
    return job.seed * job.seed


def slow_square(job: JobSpec) -> int:
    """square with a deliberate delay, so kill-mid-partition tests can
    land a worker failure while jobs are provably still unfinished."""
    time.sleep(0.15)
    return job.seed * job.seed


def echo_params(job: JobSpec) -> tuple:
    """Returns the params tuple, for identity checks through pickling."""
    return job.params


def collector_enabled(job: JobSpec) -> bool:
    """Whether the cyclic collector is on while the job runs."""
    return gc.isenabled()


def pid(job: JobSpec) -> int:
    """The executing process's pid (not pure: lifetime tests only)."""
    return os.getpid()


def boom(job: JobSpec) -> None:
    """Always raises, for error-propagation tests."""
    raise RuntimeError(f"boom on seed {job.seed}")


not_callable = 42
