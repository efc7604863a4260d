"""Tests for the coverage-guided adaptive fuzz campaign.

The load-bearing property everywhere: an adaptive campaign is a pure
function of ``(seed, count, batch, config)`` — backend, stepping policy,
worker count, and journal resume point may change *where and when* work
happens, never the report, the coverage map, or any digest.
"""

import multiprocessing
from pathlib import Path

import pytest

from repro.analysis.coverage import CoverageMap, derive_weights
from repro.analysis.fuzz import (
    DEFAULT_CONFIG,
    FUZZ_MAX_EVENTS,
    FuzzConfig,
    adaptive_campaign_digest,
    build_scenario_world,
    generate_scenario,
    generate_weighted_scenario,
    job_scenario,
    run_adaptive_fuzz,
    scenario_job,
)
from repro.errors import SimulationError
from repro.exec import CollectSink, job_digest
from repro.sim.multiworld import ShardedRunner

SEED = 6
COUNT = 18
BATCH = 6


@pytest.fixture(scope="module")
def campaign():
    return run_adaptive_fuzz(seed=SEED, count=COUNT, batch=BATCH)


class TestAdaptiveDeterminism:
    def test_replay_is_bit_identical(self, campaign):
        assert campaign.report.findings == ()
        again = run_adaptive_fuzz(seed=SEED, count=COUNT, batch=BATCH)
        assert again.digest() == campaign.digest()
        assert again.coverage.digest() == campaign.coverage.digest()
        assert again.batches == campaign.batches

    def test_serial_backend_matches_inproc(self, campaign):
        serial = run_adaptive_fuzz(
            seed=SEED, count=COUNT, batch=BATCH, backend="serial"
        )
        assert serial.digest() == campaign.digest()

    def test_parallel_backend_matches_inproc(self, campaign):
        parallel = run_adaptive_fuzz(
            seed=SEED, count=COUNT, batch=BATCH,
            backend="parallel", jobs=2,
        )
        assert parallel.digest() == campaign.digest()

    def test_the_pool_outlives_batches_not_the_campaign(self, campaign):
        # One pool serves every batch (one fork per worker, not one per
        # batch), and is gone when the campaign returns.
        class PidSink(CollectSink):
            pids: set[int]

            def open(self, total):
                super().open(total)
                self.pids = set()

            def emit(self, index, job, result):
                super().emit(index, job, result)
                self.pids |= {p.pid for p in multiprocessing.active_children()}

        sink = PidSink()
        runner = ShardedRunner()
        parallel = run_adaptive_fuzz(
            seed=SEED, count=COUNT, batch=BATCH,
            backend="parallel", jobs=2, sink=sink, runner=runner,
        )
        assert len(parallel.batches) >= 3
        assert parallel.digest() == campaign.digest()
        assert 0 < len(sink.pids) <= 2
        assert multiprocessing.active_children() == []
        # The runner's stats count the pool's scenarios, as inproc's do.
        assert runner.stats.shards == COUNT

    def test_stepping_policy_is_unobservable(self, campaign):
        sequential = run_adaptive_fuzz(
            seed=SEED, count=COUNT, batch=BATCH,
            runner=ShardedRunner(stepping="sequential"),
        )
        assert sequential.digest() == campaign.digest()

    def test_window_and_quantum_are_unobservable(self, campaign):
        tight = run_adaptive_fuzz(
            seed=SEED, count=COUNT, batch=BATCH,
            runner=ShardedRunner(
                stepping="round_robin", quantum=7, window=2
            ),
        )
        assert tight.digest() == campaign.digest()

    def test_runner_stats_cover_the_whole_campaign(self, campaign):
        # One loop drives one runner, so its stats sum over the batches:
        # the same engine-event count under either stepping, equal to
        # the scenarios run one at a time.
        events = []
        for stepping in ("round_robin", "sequential"):
            runner = ShardedRunner(stepping=stepping, quantum=64, window=4)
            run_adaptive_fuzz(
                seed=SEED, count=COUNT, batch=BATCH, runner=runner
            )
            assert runner.stats.shards == COUNT
            events.append(runner.stats.events)
        serial = 0
        for outcome in campaign.outcomes:
            scenario = outcome.scenario
            world = build_scenario_world(scenario)
            world.start()
            if scenario.horizon is None:
                world.scheduler.run_to_quiescence(max_events=FUZZ_MAX_EVENTS)
            else:
                world.scheduler.run(
                    until=scenario.horizon, max_events=FUZZ_MAX_EVENTS
                )
            serial += world.scheduler.processed
        assert events == [serial, serial]


class TestAdaptiveStructure:
    def test_batch_ledger_tiles_the_campaign(self, campaign):
        assert [r.batch for r in campaign.batches] == [0, 1, 2]
        assert campaign.batches[0].start == 0
        assert campaign.batches[-1].end == COUNT
        for earlier, later in zip(campaign.batches, campaign.batches[1:]):
            assert earlier.end == later.start

    def test_final_coverage_digest_matches_last_batch(self, campaign):
        assert (
            campaign.batches[-1].coverage_digest
            == campaign.coverage.digest()
        )

    def test_coverage_folds_every_outcome(self, campaign):
        assert campaign.coverage.scenarios == COUNT
        rebuilt = CoverageMap.from_outcomes(campaign.outcomes)
        assert rebuilt.digest() == campaign.coverage.digest()

    def test_adaptive_jobs_carry_their_weights(self):
        weights = derive_weights(DEFAULT_CONFIG, CoverageMap())
        weighted = scenario_job(SEED, 0, DEFAULT_CONFIG, weights=weights)
        uniform = scenario_job(SEED, 0, DEFAULT_CONFIG)
        assert weighted.param("weights") == weights
        assert job_digest(weighted) != job_digest(uniform)
        # and the job materialises through the adaptive generator
        assert job_scenario(weighted) == generate_weighted_scenario(
            SEED, 0, DEFAULT_CONFIG, weights
        )

    def test_adaptive_rng_namespace_is_disjoint_from_uniform(self):
        weights = derive_weights(DEFAULT_CONFIG, CoverageMap())
        adaptive = generate_weighted_scenario(
            SEED, 0, DEFAULT_CONFIG, weights
        )
        uniform = generate_scenario(SEED, 0, DEFAULT_CONFIG)
        assert adaptive != uniform

    def test_later_batches_reweight_from_coverage(self, campaign):
        # Batch 0 uses uniform weights; by batch 1 the map is non-empty,
        # so the derived weights must differ from uniform.
        uniform = derive_weights(DEFAULT_CONFIG, CoverageMap())
        partial = CoverageMap.from_outcomes(campaign.outcomes[:BATCH])
        assert derive_weights(DEFAULT_CONFIG, partial) != uniform

    def test_summary_mentions_batches_and_coverage(self, campaign):
        text = campaign.summary()
        assert "batches: 3" in text
        assert "coverage:" in text

    def test_count_zero_is_an_empty_campaign(self):
        empty = run_adaptive_fuzz(seed=SEED, count=0, batch=BATCH)
        assert empty.outcomes == ()
        assert empty.batches == ()
        assert len(empty.coverage) == 0


class TestAdaptiveValidation:
    def test_rejects_negative_count(self):
        with pytest.raises(SimulationError, match="count"):
            run_adaptive_fuzz(seed=0, count=-1)

    def test_rejects_zero_batch(self):
        with pytest.raises(SimulationError, match="batch"):
            run_adaptive_fuzz(seed=0, count=4, batch=0)

    def test_resume_requires_journal(self):
        with pytest.raises(SimulationError, match="journal"):
            run_adaptive_fuzz(seed=0, count=4, resume=True)

    @pytest.mark.parametrize("jobs", [0, -5])
    def test_worker_count_below_one_refused(self, jobs):
        with pytest.raises(SimulationError, match=f"jobs must be >= 1, got {jobs}"):
            run_adaptive_fuzz(seed=0, count=4, backend="parallel", jobs=jobs)

    def test_runner_only_drives_inproc(self):
        with pytest.raises(SimulationError, match="inproc"):
            run_adaptive_fuzz(
                seed=0, count=4, backend="serial",
                runner=ShardedRunner(),
            )

    def test_campaign_digest_covers_every_input(self):
        base = adaptive_campaign_digest(1, 10, 5, DEFAULT_CONFIG)
        assert adaptive_campaign_digest(2, 10, 5, DEFAULT_CONFIG) != base
        assert adaptive_campaign_digest(1, 11, 5, DEFAULT_CONFIG) != base
        assert adaptive_campaign_digest(1, 10, 6, DEFAULT_CONFIG) != base
        other = FuzzConfig(min_n=2, max_n=5)
        assert adaptive_campaign_digest(1, 10, 5, other) != base


class TestAdaptiveJournal:
    def test_full_resume_is_bit_identical(self, campaign, tmp_path):
        path = tmp_path / "campaign.jsonl"
        first = run_adaptive_fuzz(
            seed=SEED, count=COUNT, batch=BATCH, journal=path
        )
        resumed = run_adaptive_fuzz(
            seed=SEED, count=COUNT, batch=BATCH, journal=path, resume=True
        )
        assert first.digest() == campaign.digest()
        assert resumed.digest() == campaign.digest()

    def test_partial_resume_from_mid_batch_kill(self, campaign, tmp_path):
        path = tmp_path / "campaign.jsonl"
        run_adaptive_fuzz(
            seed=SEED, count=COUNT, batch=BATCH, journal=path
        )
        lines = path.read_text().splitlines()
        results = [line for line in lines if '"kind": "result"' in line]
        coverage = [line for line in lines if '"kind": "coverage"' in line]
        # Keep the header, the first batch and a half of results, and
        # batch 0's checkpoint — a kill mid-batch-1.
        survived = [lines[0]] + results[: BATCH + BATCH // 2] + coverage[:1]
        path.write_text("\n".join(survived) + "\n")
        resumed = run_adaptive_fuzz(
            seed=SEED, count=COUNT, batch=BATCH, journal=path, resume=True
        )
        assert resumed.digest() == campaign.digest()

    def test_resume_from_every_truncation_point(self, tmp_path):
        # Kill the campaign after any line, or midway through the next
        # (a torn line): the resume reaches the uninterrupted digests.
        small = dict(
            seed=SEED, count=6, batch=2,
            config=FuzzConfig(max_n=5, detectors=("none",)),
        )
        path = tmp_path / "campaign.jsonl"
        full = run_adaptive_fuzz(journal=path, **small)
        lines = path.read_text().splitlines(keepends=True)
        assert len(lines) == 1 + 6 + 3  # header, results, checkpoints
        for keep in range(len(lines)):
            for torn in ("", lines[keep][: len(lines[keep]) // 2]):
                path.write_text("".join(lines[:keep]) + torn)
                resumed = run_adaptive_fuzz(
                    journal=path, resume=True, **small
                )
                assert resumed.digest() == full.digest()
                assert resumed.coverage.digest() == full.coverage.digest()
                # ... and leaves the same lines (a resume rewrites the
                # salvaged results ahead of the salvaged checkpoints).
                assert sorted(
                    path.read_text().splitlines(keepends=True)
                ) == sorted(lines)

    def test_resume_refuses_a_different_campaign(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        run_adaptive_fuzz(seed=SEED, count=COUNT, batch=BATCH, journal=path)
        with pytest.raises(SimulationError, match="different plan"):
            run_adaptive_fuzz(
                seed=SEED + 1, count=COUNT, batch=BATCH,
                journal=path, resume=True,
            )

    def test_resume_refuses_a_different_batch_size(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        run_adaptive_fuzz(seed=SEED, count=COUNT, batch=BATCH, journal=path)
        with pytest.raises(SimulationError, match="different plan"):
            run_adaptive_fuzz(
                seed=SEED, count=COUNT, batch=BATCH + 1,
                journal=path, resume=True,
            )


class _CollectingSink:
    def __init__(self):
        self.opened = None
        self.indices = []
        self.closed = False

    def open(self, total):
        self.opened = total

    def emit(self, index, job, result):
        assert result.index == index
        self.indices.append(index)

    def close(self):
        self.closed = True


class TestAdaptiveSink:
    def test_sink_sees_every_outcome_in_index_order(self, campaign):
        sink = _CollectingSink()
        streamed = run_adaptive_fuzz(
            seed=SEED, count=COUNT, batch=BATCH, sink=sink
        )
        assert sink.opened == COUNT
        assert sink.indices == list(range(COUNT))
        assert sink.closed
        assert streamed.digest() == campaign.digest()
