"""Profile the event core on the standard E15 fuzz workload.

Two jobs, one harness:

* **Profile mode** (default): run the workload once under :mod:`cProfile`
  and print a ranked hot-function table — the view every hot-path PR
  should quote before/after::

      PYTHONPATH=src python tools/profile_core.py
      PYTHONPATH=src python tools/profile_core.py --top 25

* **A/B mode** (``--ab``): time the workload under *both* cores (each in
  a subprocess with ``REPRO_CORE`` forced) and print the speedup — the
  number the compiled-core PRs quote::

      PYTHONPATH=src python tools/profile_core.py --ab

``--failure-model`` runs the same batch under another failure model (the
table that found PR 13's per-delivery deep copy is ``--failure-model
crash-recovery --seed 3 --count 180``).

Neither mode is a gate. The gate on the event core is the benchmark of
record (``benchmarks/record/run.py``, run three times by the tier-1 CI
job; ``REPRO_CORE=pure`` in front of one of them is the A/B of record).

The workload is the E15 fuzz batch (``run_fuzz(seed=0, count=80)``) —
80 deterministic scenarios across every protocol, exercising scheduler,
network, history recording, monitors, and detectors together. Its digest
is pinned by ``tests/analysis/test_fuzz.py``, so the thing being timed
here is the thing being checked for bit-identical behaviour there.
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import io
import json
import os
import pstats
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.fuzz import DEFAULT_CONFIG, run_fuzz  # noqa: E402
from repro.core.failure_models import FAILURE_MODEL_NAMES  # noqa: E402

DEFAULT_MODEL = DEFAULT_CONFIG.failure_model


def core_tags() -> dict:
    """The configuration tags a throughput number is only valid under."""
    from repro import _core

    return {
        "core": _core.ACTIVE_IMPL,
        "python": f"{sys.version_info.major}.{sys.version_info.minor}",
    }


def _workload(seed: int, count: int, model: str):
    config = dataclasses.replace(DEFAULT_CONFIG, failure_model=model)
    return run_fuzz(seed=seed, count=count, config=config)


def time_workload(
    seed: int, count: int, repeats: int, model: str
) -> tuple[float, int]:
    """Best-of-``repeats`` wall time and the (deterministic) event count."""
    best = float("inf")
    events = 0
    for _ in range(repeats):
        start = time.perf_counter()
        report = _workload(seed, count, model)
        elapsed = time.perf_counter() - start
        events = report.events
        if elapsed < best:
            best = elapsed
    return best, events


def profile_workload(seed: int, count: int, top: int, model: str) -> str:
    profiler = cProfile.Profile()
    profiler.enable()
    _workload(seed, count, model)
    profiler.disable()
    out = io.StringIO()
    stats = pstats.Stats(profiler, stream=out)
    stats.sort_stats("tottime")
    stats.print_stats(top)
    return out.getvalue()


def run_ab(args: argparse.Namespace) -> int:
    """Time the workload under both cores and print the speedup."""
    results: dict[str, dict] = {}
    for core in ("pure", "accel"):
        env = dict(os.environ, REPRO_CORE=core)
        proc = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--time-json",
                "--seed", str(args.seed),
                "--count", str(args.count),
                "--repeats", str(args.repeats),
                "--failure-model", args.failure_model,
            ],
            env=env,
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            reason = (
                proc.stderr.strip().splitlines()[-1]
                if proc.stderr.strip()
                else "unknown error"
            )
            print(f"{core:>5}: unavailable ({reason})")
            continue
        record = json.loads(proc.stdout)
        results[core] = record
        print(
            f"{core:>5}: events={record['events']}  "
            f"best={record['best_s']:.3f}s  "
            f"rate={record['events_per_sec']:,.0f} events/s"
        )
    if "pure" not in results or "accel" not in results:
        print("A/B incomplete: need both cores importable", file=sys.stderr)
        return 1
    if results["pure"]["events"] != results["accel"]["events"]:
        print(
            "event counts differ between cores — the cores diverged, "
            "which the digest tests should have caught",
            file=sys.stderr,
        )
        return 1
    ratio = (
        results["accel"]["events_per_sec"]
        / results["pure"]["events_per_sec"]
    )
    print(f"speedup: accel is {ratio:.2f}x pure")
    return 0


def run_time_json(args: argparse.Namespace) -> int:
    """Machine-readable timing record (the --ab subprocess body)."""
    best, events = time_workload(
        args.seed, args.count, args.repeats, args.failure_model
    )
    json.dump(
        {
            "events": events,
            "best_s": best,
            "events_per_sec": events / best,
            **core_tags(),
        },
        sys.stdout,
    )
    print()
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=80)
    parser.add_argument(
        "--top", type=int, default=20, help="rows in the hot-function table"
    )
    parser.add_argument(
        "--failure-model",
        choices=FAILURE_MODEL_NAMES,
        default=DEFAULT_MODEL,
        help="failure model of the fuzz batch",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timing repeats (best is kept) in --ab mode",
    )
    parser.add_argument(
        "--ab",
        action="store_true",
        help="time the workload under both event cores (REPRO_CORE "
        "subprocesses) and print the accel/pure speedup",
    )
    parser.add_argument(
        "--time-json",
        action="store_true",
        help=argparse.SUPPRESS,  # internal: --ab subprocess body
    )
    args = parser.parse_args(argv)

    if args.time_json:
        return run_time_json(args)
    if args.ab:
        return run_ab(args)

    model = args.failure_model
    best, events = time_workload(args.seed, args.count, 1, model)
    print(
        f"workload: run_fuzz(seed={args.seed}, count={args.count}, "
        f"failure_model={model})  "
        f"events={events}  warm-up={best:.3f}s  "
        f"rate={events / best:,.0f} events/s"
    )
    print(profile_workload(args.seed, args.count, args.top, model))
    return 0


if __name__ == "__main__":
    sys.exit(main())
