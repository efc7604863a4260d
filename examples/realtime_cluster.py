#!/usr/bin/env python3
"""The echo protocol on wall-clock asyncio with phi-accrual detection.

Runs a real (in-process) cluster for a couple of seconds: nodes exchange
heartbeats, a phi-accrual driver turns silence into suspicion, and the
Section 5 protocol turns suspicion into simulated-fail-stop detections —
the simulator's own ``SfsProcess`` and ``PhiAccrualDriver`` objects, on
the wall clock. One node genuinely crashes mid-run; the recorded history
is judged by the same formal checkers as the discrete-event simulator's.

Run:  python examples/realtime_cluster.py   (takes ~2 seconds)
"""

from repro.analysis import analyze
from repro.runtime import run_cluster


def main() -> None:
    print("starting 5-node asyncio cluster (heartbeat 40ms, phi=6.0)...")
    result = run_cluster(
        n=5,
        duration=1.6,
        t=1,
        crash_at={2: 0.4},
        heartbeat_interval=0.04,
        phi_threshold=6.0,
    )
    print(f"ran {result.duration:.2f}s wall clock, "
          f"{len(result.history)} modelled events")
    print(f"crashed: {sorted(result.crashed)} "
          f"(false suspicions: {sorted(result.false_suspicion_targets)})")
    for node, detected in sorted(result.detected.items()):
        print(f"  node {node} detected: {sorted(detected)}")

    report = analyze(
        result.history, result.quorum_records, t=1, pending_ok=True
    )
    print("\n--- formal verdict on the wall-clock run ---")
    print(f"simulated fail-stop (FS1 ^ sFS2a-d): "
          f"{report.is_simulated_fail_stop}")
    print(f"indistinguishable from fail-stop:    "
          f"{report.indistinguishable_from_fail_stop}")


if __name__ == "__main__":
    main()
