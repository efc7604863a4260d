"""E17 — the failure-model layer: churn throughput and adversary cost.

Not a paper table; this guards the PR that made the failure model
pluggable (fail-stop / crash-recovery / byzantine-crash). Three
properties must hold:

1. **fail-stop pays nothing**: the default model's fuzz campaign is
   bit-identical to the pre-refactor engine (digest-pinned in the test
   suite) and its bench run here must not be measurably slower than the
   crash-recovery/byzantine runs are *different* — i.e. the model hooks
   are dormant unless selected;
2. **churn is affordable**: a crash-recovery campaign with real
   crash→recover churn (incarnations, stable-storage reloads, YOLMT
   re-wrapping) stays within a small constant factor of the fail-stop
   baseline — recovery is bookkeeping, not a second simulation;
3. **the adversary is bounded**: byzantine-crash interference (drop /
   mutate / duplicate on every compromised send) costs per-message
   constant work, so its campaign also stays within a small factor.

Each campaign is run twice and digest-compared, so a nondeterministic
failure model fails the bench loudly before it ever reaches CI's fuzz
smoke.
"""

import dataclasses
import time

from repro.analysis.extensions import E17_MODELS, run_e17
from repro.analysis.fuzz import DEFAULT_CONFIG, run_fuzz

from conftest import attach_rows

FUZZ_COUNT = 40
SEEDS = tuple(range(10))

# Generous CI-jitter bound: a model campaign that takes this much longer
# than fail-stop means the hooks stopped being per-event-constant. The
# YOLMT wrapper encodes one snapshot per protocol step (not per
# heartbeat), so crash-recovery measures 1.1-1.3x under either core;
# the headroom is for shared runners, not for the model.
MODEL_OVERHEAD_LIMIT = 4.0


def _campaign(model: str):
    config = dataclasses.replace(DEFAULT_CONFIG, failure_model=model)
    return run_fuzz(seed=0, count=FUZZ_COUNT, config=config)


def _timed_campaign(model: str):
    start = time.perf_counter()
    report = _campaign(model)
    return report, time.perf_counter() - start


def test_bench_e17_decides_under_every_model(benchmark):
    """Ben-Or E17 sweep: every model decides every run, zero violations."""
    rows = benchmark.pedantic(
        lambda: run_e17(seeds=SEEDS), rounds=1, iterations=1
    )
    assert tuple(r.failure_model for r in rows) == E17_MODELS
    for row in rows:
        assert row.decided_runs == row.runs, row
        assert row.clean == row.runs, row
    by_model = {r.failure_model: r for r in rows}
    assert by_model["crash-recovery"].recoveries > 0
    assert by_model["byzantine-crash"].compromised > 0
    attach_rows(benchmark, rows)


def test_bench_recovery_churn_throughput(benchmark):
    """Crash-recovery fuzzing: clean, reproducible, near fail-stop cost."""
    _, fail_stop_s = _timed_campaign("fail-stop")

    report = benchmark.pedantic(
        lambda: _campaign("crash-recovery"), rounds=1, iterations=1
    )
    churn_s = benchmark.stats.stats.mean
    assert report.findings == ()
    assert report.digest() == _campaign("crash-recovery").digest()
    assert churn_s < fail_stop_s * MODEL_OVERHEAD_LIMIT, (
        churn_s, fail_stop_s
    )
    attach_rows(
        benchmark,
        [
            f"fail-stop   {FUZZ_COUNT} scenarios in {fail_stop_s:.3f}s",
            f"crash-rec   {FUZZ_COUNT} scenarios in {churn_s:.3f}s "
            f"({churn_s / fail_stop_s:.2f}x)",
        ],
    )


def test_bench_byzantine_adversary_overhead(benchmark):
    """Byzantine interference: clean, reproducible, bounded overhead."""
    _, fail_stop_s = _timed_campaign("fail-stop")

    report = benchmark.pedantic(
        lambda: _campaign("byzantine-crash"), rounds=1, iterations=1
    )
    byz_s = benchmark.stats.stats.mean
    assert report.findings == ()
    assert report.digest() == _campaign("byzantine-crash").digest()
    assert byz_s < fail_stop_s * MODEL_OVERHEAD_LIMIT, (byz_s, fail_stop_s)
    attach_rows(
        benchmark,
        [
            f"fail-stop   {FUZZ_COUNT} scenarios in {fail_stop_s:.3f}s",
            f"byzantine   {FUZZ_COUNT} scenarios in {byz_s:.3f}s "
            f"({byz_s / fail_stop_s:.2f}x)",
        ],
    )
