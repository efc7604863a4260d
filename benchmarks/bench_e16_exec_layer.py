"""E16 — the unified execution layer: journal, resume, streaming.

Not a paper table; this guards the PR that moved sweep, fuzz, and the
monitored CLI onto one job/executor core (``repro.exec``). Three
properties must hold:

1. **journaling is cheap**: checkpointing every completed case to the
   JSONL journal costs a small fraction of the run (the cases dominate;
   a pickle+flush per case does not);
2. **resume restores, never recomputes**: a run killed mid-way and
   resumed from its journal reproduces the uninterrupted digest while
   re-executing only the unjournaled cases — so the resumed remainder
   runs in roughly the remaining fraction of the time;
3. **streaming sinks are near-free**: attaching an in-order result sink
   does not measurably change the run (or its digest).

Multi-host dispatch is the ``remote`` backend's job; its cost is the
``fuzz_remote`` workload of ``benchmarks/record``.
"""

import time

from repro.analysis.fuzz import run_fuzz
from repro.analysis.sweep import rows_digest, run_sweep
from repro.exec import CollectSink

from conftest import attach_rows

SWEEP_SEEDS = 24
FUZZ_COUNT = 60


def test_bench_journal_overhead(benchmark, tmp_path):
    """Journaled vs plain sweep: same digest, small constant overhead."""
    kwargs = dict(seeds=range(SWEEP_SEEDS), params={"n": 6})
    start = time.perf_counter()
    plain = run_sweep("e7", **kwargs)
    plain_s = time.perf_counter() - start

    path = tmp_path / "sweep.jsonl"

    def journaled():
        return run_sweep("e7", journal=path, **kwargs)

    rows = benchmark.pedantic(journaled, rounds=1, iterations=1)
    journaled_s = benchmark.stats.stats.mean
    assert rows_digest(rows) == rows_digest(plain)
    # The journal must not dominate: allow generous CI jitter, but a
    # 2x run is a regression (a pickle+flush per case costs far less
    # than a simulated case).
    assert journaled_s < plain_s * 2.0, (journaled_s, plain_s)
    attach_rows(
        benchmark,
        [
            f"plain={plain_s * 1000:.1f}ms",
            f"journaled={journaled_s * 1000:.1f}ms",
            f"overhead={(journaled_s / plain_s - 1) * 100:+.1f}%",
            f"journal_bytes={path.stat().st_size}",
        ],
    )


def test_bench_resume_skips_completed_work(benchmark, tmp_path):
    """Truncate the journal mid-run; the resume redoes only the rest.

    Detector-driven scenarios run to a virtual-time horizon and cost an
    order of magnitude more than injected-fault ones, which would make
    the timing depend on *which* half got journaled; a detector-free
    space keeps per-scenario cost roughly uniform so the saving tracks
    the journaled fraction.
    """
    from repro.analysis.fuzz import FuzzConfig

    config = FuzzConfig(detectors=("none",))
    path = tmp_path / "fuzz.jsonl"
    start = time.perf_counter()
    full = run_fuzz(seed=0, count=FUZZ_COUNT, config=config, journal=path)
    full_s = time.perf_counter() - start

    lines = path.read_text().splitlines()
    keep = 1 + FUZZ_COUNT // 2  # header + half the results
    path.write_text("\n".join(lines[:keep]) + "\n")

    def resume():
        return run_fuzz(
            seed=0, count=FUZZ_COUNT, config=config,
            journal=path, resume=True,
        )

    resumed = benchmark.pedantic(resume, rounds=1, iterations=1)
    resume_s = benchmark.stats.stats.mean
    assert resumed == full
    assert resumed.digest() == full.digest()
    # Half the scenarios are restored from the journal, so the resume
    # must beat re-running everything (scenario cost dominates restore
    # cost by orders of magnitude; the bound is deliberately loose).
    assert resume_s < full_s, (resume_s, full_s)
    attach_rows(
        benchmark,
        [
            f"digest={full.digest()[:16]}",
            f"uninterrupted={full_s * 1000:.1f}ms",
            f"resumed_half={resume_s * 1000:.1f}ms",
            f"saved={(1 - resume_s / full_s) * 100:.0f}%",
        ],
    )


def test_bench_streaming_sink_overhead(benchmark):
    """An attached in-order sink must not change the run or its cost."""
    start = time.perf_counter()
    bare = run_fuzz(seed=1, count=FUZZ_COUNT)
    bare_s = time.perf_counter() - start

    def streamed():
        sink = CollectSink()
        report = run_fuzz(seed=1, count=FUZZ_COUNT, sink=sink)
        return report, sink

    (report, sink) = benchmark.pedantic(streamed, rounds=1, iterations=1)
    streamed_s = benchmark.stats.stats.mean
    assert report == bare
    assert sink.results == list(report.outcomes)
    assert streamed_s < bare_s * 2.0, (streamed_s, bare_s)
    attach_rows(
        benchmark,
        [
            f"bare={bare_s * 1000:.1f}ms",
            f"with_sink={streamed_s * 1000:.1f}ms",
            f"per_result_overhead="
            f"{(streamed_s - bare_s) / FUZZ_COUNT * 1e6:.1f}us",
        ],
    )
