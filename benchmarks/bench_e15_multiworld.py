"""E15 — the sharded multi-world engine and the scenario fuzzer.

Not a paper table; this guards the PR that added in-process multi-world
simulation. Three properties must hold:

1. the fuzzer sustains a healthy shard throughput (hundreds of generated
   scenarios per second on one core) and finds nothing on the default
   scenario space — a finding here is a real conformance or determinism
   bug, so it must fail the bench loudly;
2. the run is **deterministic**: the same seed/count reproduce the same
   report digest under different stepping policies;
3. the ``inproc`` sweep backend is bit-identical to ``serial`` and
   ``parallel`` and beats the subprocess pool on small sweeps (where
   process spawn/pickle overhead dominates) — the crossover table below
   shows where the pool starts paying.
"""

import time

from repro.analysis.fuzz import run_fuzz
from repro.analysis.sweep import rows_digest, run_sweep
from repro.sim.multiworld import ShardedRunner

from conftest import attach_rows

FUZZ_COUNT = 80


def test_bench_fuzz_shard_throughput(benchmark):
    """Generated scenarios through the sharded engine, with monitors."""
    runner = ShardedRunner(stepping="round_robin", quantum=512, window=64)

    def run():
        return run_fuzz(seed=0, count=FUZZ_COUNT, runner=runner)

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert report.findings == (), report.findings
    assert report.count == FUZZ_COUNT
    attach_rows(
        benchmark,
        [
            f"digest={report.digest()[:16]}",
            f"events={report.events}",
            f"engine_events={runner.stats.events}",
        ],
    )


def test_bench_fuzz_deterministic_across_stepping(benchmark):
    """Same seed, different stepping/quantum: byte-identical reports."""
    baseline = run_fuzz(seed=0, count=FUZZ_COUNT)  # sequential, 512

    def run_interleaved():
        return run_fuzz(
            seed=0, count=FUZZ_COUNT,
            runner=ShardedRunner(
                stepping="round_robin", quantum=64, window=8
            ),
        )

    interleaved = benchmark.pedantic(run_interleaved, rounds=1, iterations=1)
    assert interleaved == baseline
    assert interleaved.digest() == baseline.digest()
    attach_rows(benchmark, [f"digest={baseline.digest()[:16]}"])


def test_bench_inproc_vs_subprocess_crossover(benchmark):
    """Small sweeps: inproc wins (no spawn/pickle); all digests equal.

    The printed table shows serial / inproc / parallel wall time at two
    sweep sizes, bracketing the crossover where the subprocess pool's
    per-run overhead is finally amortised by its parallelism.
    """

    def timed(backend, seeds, jobs=1):
        start = time.perf_counter()
        rows = run_sweep(
            "e7", seeds=seeds, params={"n": 6}, backend=backend, jobs=jobs
        )
        return time.perf_counter() - start, rows_digest(rows)

    small = range(2)
    serial_t, serial_d = timed("serial", small)
    inproc_t, inproc_d = benchmark.pedantic(
        lambda: timed("inproc", small), rounds=1, iterations=1
    )
    parallel_t, parallel_d = timed("parallel", small, jobs=4)
    assert serial_d == inproc_d == parallel_d

    large = range(24)
    serial_lt, serial_ld = timed("serial", large)
    inproc_lt, inproc_ld = timed("inproc", large)
    parallel_lt, parallel_ld = timed("parallel", large, jobs=4)
    assert serial_ld == inproc_ld == parallel_ld

    rows = [
        f"small({len(small)} seeds): serial={serial_t:.3f}s "
        f"inproc={inproc_t:.3f}s parallel(j4)={parallel_t:.3f}s",
        f"large({len(large)} seeds): serial={serial_lt:.3f}s "
        f"inproc={inproc_lt:.3f}s parallel(j4)={parallel_lt:.3f}s",
    ]
    print("\n".join(rows))
    attach_rows(benchmark, rows)
    # The qualitative shape: on the small sweep the pool's spawn overhead
    # must dominate — inproc beats the subprocess backend outright.
    assert inproc_t < parallel_t

