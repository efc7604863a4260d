"""Tests for the deterministic scenario fuzzer."""

import multiprocessing
import pickle
from pathlib import Path

import pytest

from repro.analysis.checker import analyze
from repro.analysis.corpus import load_corpus, replay_entry
from repro.analysis.fuzz import (
    DEFAULT_CONFIG,
    FuzzConfig,
    Scenario,
    build_scenario_world,
    expected_clean,
    generate_scenario,
    judge_world,
    run_adaptive_fuzz,
    run_fuzz,
)
from repro.analysis.shrink import finding_kinds
from repro.errors import SimulationError
from repro.sim.failures import Fault
from repro.sim.multiworld import ShardedRunner

from tests.analysis.test_fuzz_oracle_seeding import MODELS, _clean_scenario
from tests.reference import run_and_compare_with_replay


class TestGeneration:
    def test_pure_function_of_inputs(self):
        for index in range(20):
            a = generate_scenario(3, index, DEFAULT_CONFIG)
            b = generate_scenario(3, index, DEFAULT_CONFIG)
            assert a == b
            assert repr(a) == repr(b)

    def test_different_seeds_differ(self):
        a = [generate_scenario(0, i, DEFAULT_CONFIG) for i in range(10)]
        b = [generate_scenario(1, i, DEFAULT_CONFIG) for i in range(10)]
        assert a != b

    def test_config_is_part_of_the_derivation(self):
        small = FuzzConfig(min_n=3, max_n=4)
        wide = FuzzConfig(min_n=3, max_n=12)
        assert [
            generate_scenario(0, i, small) for i in range(10)
        ] != [generate_scenario(0, i, wide) for i in range(10)]

    def test_respects_configured_bounds(self):
        config = FuzzConfig(
            min_n=4, max_n=6, protocols=("sfs",), detectors=("none",)
        )
        for index in range(25):
            scenario = generate_scenario(5, index, config)
            assert 4 <= scenario.n <= 6
            assert scenario.protocol == "sfs"
            assert scenario.detector == ("none", ())
            assert scenario.horizon is None
            assert scenario.n > scenario.t * scenario.t  # Corollary 8

    def test_detector_scenarios_get_a_horizon(self):
        config = FuzzConfig(detector_rate=1.0, detectors=("heartbeat",))
        scenario = generate_scenario(0, 0, config)
        assert scenario.detector[0] == "heartbeat"
        assert scenario.horizon == config.detector_horizon

    def test_invalid_config_rejected(self):
        with pytest.raises(SimulationError, match="min_n"):
            FuzzConfig(min_n=9, max_n=3)
        # n=1 would break the Corollary 8 invariant (n > t^2) the model
        # oracle relies on for sfs/transitive scenarios.
        with pytest.raises(SimulationError, match="min_n"):
            FuzzConfig(min_n=1, max_n=4)
        with pytest.raises(SimulationError, match="protocols"):
            FuzzConfig(protocols=("sfs", "paxos"))
        with pytest.raises(SimulationError, match="detectors"):
            FuzzConfig(detectors=("gossip",))

    @pytest.mark.parametrize(
        "field, value",
        [
            # Each of these used to be accepted, then failed mid-run with
            # a generator traceback or was silently drawn as if clamped.
            ("protocols", ()),
            ("delays", ()),
            ("detectors", ()),
            ("max_chatter", -1),
            ("fault_horizon", -1.0),
            ("fault_horizon", float("nan")),
            ("fault_horizon", float("inf")),
            ("detector_horizon", 0.0),
            ("detector_horizon", float("nan")),
            ("detector_rate", 2.0),
            ("detector_rate", float("nan")),
            ("adversary_rate", -1.0),
            ("partition_rate", 1.5),
        ],
    )
    def test_axes_it_cannot_draw_from_are_refused(self, field, value):
        with pytest.raises(SimulationError) as raised:
            FuzzConfig(**{field: value})
        message = str(raised.value)
        assert message.startswith(f"FuzzConfig.{field} ")
        assert "\n" not in message

    def test_every_axis_at_its_edge_still_runs(self):
        config = FuzzConfig(
            max_chatter=0, fault_horizon=0.0, detector_horizon=0.5,
            detector_rate=1.0, adversary_rate=1.0, partition_rate=0.0,
            detectors=("none", "heartbeat"),
        )
        report = run_fuzz(seed=0, count=4, config=config, backend="serial")
        assert report.count == 4 and not report.findings

    def test_repr_is_rendered_once_and_never_pickled(self):
        config = FuzzConfig(max_n=5)
        before = pickle.dumps(config)
        assert repr(config) is repr(config)
        assert pickle.dumps(config) == before
        assert repr(pickle.loads(before)) == repr(config)


class TestOracles:
    def test_expected_clean_per_protocol(self):
        def scenario_for(protocol, detector=("none", ())):
            return Scenario(
                index=0, seed=0, n=6, protocol=protocol, t=1,
                quorum_size=3 if protocol == "generic" else None,
                delay=("constant", (1.0,)), detector=detector, faults=(),
                holds=(), partition=None, heal_at=None, chatter=(),
                horizon=None,
            )

        assert set(expected_clean(scenario_for("sfs"))) == {
            "valid", "sFS2c", "sFS2b", "sFS2d", "Conditions1-3"
        }
        # A live detector can exceed the failure bound t, so only the
        # structural and FIFO-propagation guarantees remain.
        assert set(
            expected_clean(scenario_for("sfs", ("phi", (1.0, 2.0))))
        ) == {"valid", "sFS2c", "sFS2d"}
        assert set(expected_clean(scenario_for("unilateral"))) == {
            "valid", "sFS2c", "sFS2d"
        }
        assert set(expected_clean(scenario_for("generic"))) == {
            "valid", "sFS2c"
        }

    def test_judge_flags_expected_property_violation(self):
        # A unilateral mutual-suspicion scenario trips sFS2b — legal for
        # unilateral. Relabel it as sfs and the oracle must object.
        config = FuzzConfig(protocols=("unilateral",), detectors=("none",))
        scenario = None
        for index in range(100):
            candidate = generate_scenario(2, index, config)
            world = build_scenario_world(candidate)
            world.run_to_quiescence(max_events=500_000)
            if any(n == "sFS2b" for _, n in world.monitors.violation_log):
                scenario = candidate
                break
        assert scenario is not None, "no cycle-producing scenario found"
        world = build_scenario_world(scenario)
        world.run_to_quiescence(max_events=500_000)
        outcome = judge_world(scenario, world)
        assert outcome.ok  # legitimate for unilateral

        relabelled = Scenario(
            **{**scenario.__dict__, "protocol": "sfs"}
        )
        bad = judge_world(relabelled, world)
        assert any("model violation: sFS2b" in f for f in bad.findings)

    def test_streaming_agrees_with_batch_analyze(self):
        """The fuzzer's differential oracle, cross-checked against the
        one-call analyze() pipeline on the same histories."""
        for index in range(15):
            scenario = generate_scenario(4, index, DEFAULT_CONFIG)
            world = build_scenario_world(scenario)
            if scenario.horizon is not None:
                world.run(until=scenario.horizon)
            else:
                world.run_to_quiescence(max_events=500_000)
            outcome = judge_world(scenario, world)
            assert outcome.ok, outcome.findings
            report = analyze(
                world.history(), complete=False, pending_ok=True
            )
            monitor_results = world.monitors.check_results()
            assert report.sfs2b == monitor_results["sFS2b"]
            assert report.sfs2c == monitor_results["sFS2c"]
            assert report.sfs2d == monitor_results["sFS2d"]


def _must_satisfy(name, event, protocol="sfs"):
    return (
        f"model violation: {name} tripped at event {event} in a "
        f"{protocol} scenario that must satisfy it"
    )


CORPUS_FINDINGS_BEFORE_PR_24 = {
    "byzantine-phantom-receive": (_must_satisfy("valid", 0),),
    "crash-recovery-forged-self-detection": (_must_satisfy("sFS2c", 0),),
    "fail-stop-forged-detection-cycle": (
        _must_satisfy("sFS2b", 1),
        _must_satisfy("Conditions1-3", 1),
    ),
    "fail-stop-forged-self-detection": (
        _must_satisfy("sFS2c", 0),
        _must_satisfy("sFS2b", 0),
        _must_satisfy("Conditions1-3", 0),
    ),
}
"""What ``judge_world`` reported for each ``tests/corpus/`` entry while it
still replayed the history (taken from the parent commit, text for text)."""

CORPUS = {
    entry.name: entry
    for entry in load_corpus(Path(__file__).parents[1] / "corpus")
}


class TestStreamIsTheRecordedRun:
    """What ``judge_world`` replayed every scenario to find out, checked
    here instead: the full stream-vs-replay comparison over a fixed
    campaign, the observer plumbing it was really testing, and that the
    two invariants left in ``judge_world`` trip when that plumbing breaks.
    """

    @pytest.mark.parametrize("model", MODELS)
    def test_replay_agrees_on_every_scenario_of_the_pinned_campaign(
        self, model
    ):
        config = FuzzConfig(failure_model=model)
        outcomes = tuple(
            run_and_compare_with_replay(generate_scenario(0, index, config))
            for index in range(80)
        )
        assert outcomes == run_fuzz(seed=0, count=80, config=config).outcomes
        assert any(outcome.violations for outcome in outcomes)

    @pytest.mark.parametrize("model", MODELS)
    def test_trace_observer_is_shown_the_history_event_by_event(self, model):
        config = FuzzConfig(failure_model=model)
        for index in range(10):
            scenario = generate_scenario(0, index, config)
            world = build_scenario_world(scenario)
            shown = []
            world.trace.attach_observer(
                lambda idx, event, vector: shown.append((idx, event, vector))
            )
            if scenario.horizon is not None:
                world.run(until=scenario.horizon)
            else:
                world.run_to_quiescence(max_events=500_000)
            history = world.history()
            assert [idx for idx, _, _ in shown] == list(range(len(history)))
            assert all(
                event is history[idx] and vector == history.vectors[idx]
                for idx, event, vector in shown
            )
            assert world.monitors.events_seen == len(history) > 0
            world.dispose()

    def test_observers_detached_mid_run_is_an_events_divergence(self):
        scenario = _clean_scenario(chatter=((0.5, 0, 1, 0), (5.0, 2, 3, 1)))
        world = build_scenario_world(scenario)
        world.run(until=2.0)
        seen = len(world.trace)
        world.trace.detach_observers()
        world.run_to_quiescence()
        recorded = len(world.trace)
        assert 0 < seen < recorded
        outcome = judge_world(scenario, world)
        assert outcome.findings == (
            f"stream/batch divergence: monitors observed {seen} of "
            f"{recorded} recorded events",
        )
        assert finding_kinds(outcome.findings) == {"divergence:events"}

    def test_tampered_lock_in_index_is_a_log_divergence(self):
        scenario = _clean_scenario(
            protocol="unilateral", t=1,
            faults=(
                Fault("forge_failed", 2.0, 0, 1),
                Fault("forge_failed", 2.0, 1, 0),
            ),
        )
        world = build_scenario_world(scenario)
        world.run_to_quiescence()
        assert judge_world(scenario, world).ok
        locked = world.monitors.sfs2b.first_violation_index
        world.monitors.sfs2b.first_violation_index = locked - 1
        outcome = judge_world(scenario, world)
        assert finding_kinds(outcome.findings) == {"divergence:log"}
        # ... and so is a lock-in nothing pushed.
        world.monitors.sfs2b.first_violation_index = locked
        world.monitors.sfs2c.first_violation_index = 0
        outcome = judge_world(scenario, world)
        assert finding_kinds(outcome.findings) == {"divergence:log"}

    @pytest.mark.parametrize("name", sorted(CORPUS_FINDINGS_BEFORE_PR_24))
    def test_forged_history_keeps_push_equal_to_poll(self, name):
        # The monitors judge a history no run can produce; the differential
        # invariants are about the plumbing and stay silent, so the
        # findings are the ones the replaying judge_world reported.
        entry = CORPUS[name]
        world = build_scenario_world(entry.scenario)
        world.run_to_quiescence()
        monitors = world.monitors
        assert monitors.violation_log
        assert monitors.polled_violation_log() == monitors.violation_log
        assert monitors.events_seen == len(world.trace)
        outcome = judge_world(entry.scenario, world)
        assert outcome.findings == CORPUS_FINDINGS_BEFORE_PR_24[name]
        assert replay_entry(entry) == outcome


class TestRunFuzz:
    def test_replays_identically(self):
        first = run_fuzz(seed=11, count=30)
        second = run_fuzz(seed=11, count=30)
        assert first == second
        assert first.digest() == second.digest()

    def test_stepping_policy_invisible(self):
        round_robin = run_fuzz(seed=5, count=25)
        sequential = run_fuzz(
            seed=5, count=25,
            runner=ShardedRunner(stepping="sequential"),
        )
        tiny_quanta = run_fuzz(
            seed=5, count=25,
            runner=ShardedRunner(stepping="round_robin", quantum=3, window=2),
        )
        assert round_robin.digest() == sequential.digest()
        assert round_robin.digest() == tiny_quanta.digest()

    def test_no_findings_across_the_default_space(self):
        report = run_fuzz(seed=0, count=120)
        assert report.findings == ()
        assert report.count == 120
        # The space is actually adversarial: some scenarios must trip
        # *legitimate* violations (unilateral cycles etc).
        assert any(outcome.violations for outcome in report.outcomes)

    def test_summary_mentions_findings_count(self):
        report = run_fuzz(seed=0, count=5)
        assert "findings: 0" in report.summary()
        assert "scenarios: 5" in report.summary()

    def test_zero_count(self):
        report = run_fuzz(seed=0, count=0)
        assert report.outcomes == ()
        assert report.findings == ()

    def test_negative_count_rejected(self):
        with pytest.raises(SimulationError, match="count"):
            run_fuzz(seed=0, count=-1)


class TestExecutionLayer:
    def test_backends_bit_identical(self):
        inproc = run_fuzz(seed=7, count=12)
        serial = run_fuzz(seed=7, count=12, backend="serial")
        parallel = run_fuzz(seed=7, count=12, backend="parallel", jobs=2)
        assert inproc == serial == parallel
        assert inproc.digest() == serial.digest() == parallel.digest()

    def test_unknown_backend_rejected(self):
        with pytest.raises(SimulationError, match="backend"):
            run_fuzz(seed=0, count=1, backend="gpu")

    def test_runner_conflicts_with_other_backends(self):
        with pytest.raises(SimulationError, match="inproc"):
            run_fuzz(
                seed=0, count=1, backend="serial",
                runner=ShardedRunner(),
            )

    def test_job_round_trip(self):
        from repro.analysis.fuzz import (
            generate_scenario,
            job_scenario,
            scenario_job,
        )

        job = scenario_job(3, 5, DEFAULT_CONFIG)
        assert job.seed == 3 and job.param("index") == 5
        assert job_scenario(job) == generate_scenario(3, 5, DEFAULT_CONFIG)

    def test_interrupted_resume_is_bit_identical(self, tmp_path):
        path = tmp_path / "fuzz.jsonl"
        baseline = run_fuzz(seed=9, count=10)
        run_fuzz(seed=9, count=10, journal=path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:5]) + "\n")  # keep 4 of 10
        runner = ShardedRunner()
        resumed = run_fuzz(
            seed=9, count=10, journal=path, resume=True, runner=runner
        )
        assert resumed == baseline
        assert resumed.digest() == baseline.digest()
        # Restored, not recomputed: only the six unjournaled scenarios ran.
        assert runner.stats.shards == 6

    def test_backends_agree_at_the_livelock_valve(self, monkeypatch):
        # Regression guard: the whole-job form (serial/parallel) runs
        # the scenario as a one-shard ShardedRunner pass, so a scenario
        # that completes just past the valve inside its first quantum is
        # judged on every backend — not judged inproc but aborted
        # serially.
        import repro.analysis.fuzz as fuzz_module

        scenario = generate_scenario(3, 0, DEFAULT_CONFIG)
        world = build_scenario_world(scenario)
        if scenario.horizon is not None:
            world.run(until=scenario.horizon)
        else:
            world.run_to_quiescence()
        events = len(world.trace)
        monkeypatch.setattr(fuzz_module, "FUZZ_MAX_EVENTS", events - 1)
        inproc = run_fuzz(seed=3, count=1)
        serial = run_fuzz(seed=3, count=1, backend="serial")
        assert inproc == serial
        assert inproc.digest() == serial.digest()

    def test_whole_jobs_build_no_runner(self, monkeypatch):
        # The serial/parallel/remote form of a scenario calls the
        # engine's run-one-shard code directly; a runner (with its stats,
        # results list and collector pause) per job is what it replaced.
        def refuse(self, *args, **kwargs):
            raise AssertionError("a whole fuzz job built a ShardedRunner")

        monkeypatch.setattr(ShardedRunner, "__init__", refuse)
        report = run_fuzz(seed=0, count=30, backend="serial")
        assert report.digest() == FUZZ30_FAIL_STOP_DIGEST

    def test_default_runner_runs_one_world_at_a_time(self, monkeypatch):
        # No runner passed: the engine's own default, not a second one
        # kept by the fuzzer.
        import repro.analysis.fuzz as fuzz_module

        built = []

        def spy(*args, **kwargs):
            built.append(make_executor(*args, **kwargs))
            return built[-1]

        make_executor = fuzz_module.make_executor
        monkeypatch.setattr(fuzz_module, "make_executor", spy)
        report = run_fuzz(seed=0, count=30)
        assert report.digest() == FUZZ30_FAIL_STOP_DIGEST
        (executor,) = built
        assert executor.name == "inproc"
        assert executor.runner.stepping == "sequential"
        assert executor.runner.stats.shards == 30
        assert executor.runner.stats.peak_live_shards == 1

    @pytest.mark.parametrize("jobs", [0, -5])
    def test_worker_count_below_one_refused(self, jobs):
        # Both used to return a digest: a pool of max(jobs, 1) workers
        # degenerated to the serial loop.
        with pytest.raises(SimulationError, match=f"jobs must be >= 1, got {jobs}"):
            run_fuzz(seed=0, count=4, backend="parallel", jobs=jobs)

    def test_the_pool_is_gone_when_run_fuzz_returns(self):
        report = run_fuzz(seed=0, count=30, backend="parallel", jobs=2)
        assert report.digest() == FUZZ30_FAIL_STOP_DIGEST
        assert multiprocessing.active_children() == []

    def test_parallel_with_one_worker_normalises_to_serial(self):
        # Same guard run_sweep has: a one-worker pool is pure overhead
        # for bit-identical outcomes, so it must not spawn at all.
        report = run_fuzz(seed=2, count=3, backend="parallel", jobs=1)
        assert report == run_fuzz(seed=2, count=3, backend="serial")

    def test_sink_streams_outcomes_in_index_order(self):
        from repro.exec import CollectSink

        def runner():
            return ShardedRunner(stepping="round_robin", quantum=3, window=2)

        sink, streamed, bare = CollectSink(), runner(), runner()
        report = run_fuzz(seed=4, count=8, sink=sink, runner=streamed)
        assert sink.results == list(report.outcomes)
        assert [o.index for o in sink.results] == list(range(8))
        # Streaming adds one emit per outcome and no simulation work.
        assert run_fuzz(seed=4, count=8, runner=bare) == report
        assert bare.stats == streamed.stats


class TestJournalTail:
    """A kill can cut a journal at any byte. Resuming from every cut
    inside the last two lines reaches the uninterrupted digest; a cut at
    a line boundary leaves a clean file, which the resume appends to in
    place (same inode, bytes before the cut untouched), and every other
    cut is salvaged by the rewrite (a new inode). Either way the resumed
    file reads cleanly: a second resume appends to it and changes
    nothing."""

    CONFIG = FuzzConfig(max_n=3, detectors=("none",), max_chatter=0)

    @pytest.mark.parametrize(
        "campaign",
        [
            dict(backend="serial"),
            dict(backend="inproc"),
            dict(adaptive=True, batch=4),
        ],
        ids=["serial", "inproc", "adaptive-batch-4"],
    )
    def test_resume_from_every_cut_in_the_last_two_lines(
        self, campaign, tmp_path
    ):
        campaign = dict(campaign)
        driver = run_adaptive_fuzz if campaign.pop("adaptive", False) else run_fuzz

        def run(**journal):
            return driver(
                seed=0, count=12, config=self.CONFIG, **campaign, **journal
            ).digest()

        path = tmp_path / "fuzz.jsonl"
        digest = run(journal=path)
        data = path.read_bytes()
        lines = data.splitlines(keepends=True)
        if "batch" in campaign:
            assert b'"kind": "coverage"' in lines[-1]  # a checkpoint line
        first_cut = len(data) - len(lines[-1]) - len(lines[-2])
        appended = rewritten = 0
        for cut in range(first_cut, len(data)):
            path.write_bytes(data[:cut])
            inode = path.stat().st_ino
            clean = cut in (first_cut, len(data) - len(lines[-1]))
            assert run(journal=path, resume=True) == digest, cut
            resumed = path.read_bytes()
            if clean:
                assert path.stat().st_ino == inode, cut
                assert resumed.startswith(data[:cut]), cut
                appended += 1
            else:
                assert path.stat().st_ino != inode, cut
                rewritten += 1
            assert sorted(resumed.splitlines()) == sorted(data.splitlines())
            inode = path.stat().st_ino
            assert run(journal=path, resume=True) == digest, cut
            assert path.stat().st_ino == inode, cut
            assert path.read_bytes() == resumed, cut
        assert appended == 2
        assert rewritten == len(data) - first_cut - 2


FUZZ30_FAIL_STOP_DIGEST = (
    "986757eff010d4e0d44aaa1b301fc53294182cd8be8bb22e7d9b9cc16ef1c1ef"
)
"""Pinned pre-failure-model digest of ``run_fuzz(seed=0, count=30)``.

The load-bearing invariant of the pluggable failure-model layer: the
default ``fail-stop`` model reproduces the historical engine bit for
bit — scenario stream, reprs, and report digest.
"""

LEGACY_SCENARIO_0_REPR = (
    "Scenario(index=0, seed=3356188775, n=4, protocol='unilateral', t=2, "
    "quorum_size=None, delay=('uniform', (0.3965, 1.3963)), "
    "detector=('phi', (1.4073, 2.5032)), faults=(), holds=(), "
    "partition=None, heal_at=None, chatter=((2.1481, 1, 3, 2), "
    "(3.3666, 1, 0, 1), (9.448, 1, 3, 0)), horizon=30.0)"
)


class TestFailureModelAxis:
    def test_fail_stop_digest_is_bit_identical_to_legacy(self):
        assert run_fuzz(seed=0, count=30).digest() == FUZZ30_FAIL_STOP_DIGEST

    def test_default_scenario_repr_matches_legacy_byte_for_byte(self):
        scenario = generate_scenario(0, 0, DEFAULT_CONFIG)
        assert repr(scenario) == LEGACY_SCENARIO_0_REPR

    def test_default_config_repr_hides_the_new_field(self):
        assert "failure_model" not in repr(FuzzConfig())
        assert "failure_model='crash-recovery'" in repr(
            FuzzConfig(failure_model="crash-recovery")
        )

    def test_non_default_scenario_repr_shows_the_model(self):
        config = FuzzConfig(failure_model="crash-recovery")
        scenario = generate_scenario(0, 0, config)
        assert "failure_model='crash-recovery'" in repr(scenario)

    def test_unknown_model_rejected(self):
        with pytest.raises(SimulationError, match="unknown failure model"):
            FuzzConfig(failure_model="krash")

    def test_crash_recovery_scenarios_draw_recover_faults(self):
        config = FuzzConfig(failure_model="crash-recovery")
        kinds = {
            fault.kind
            for index in range(40)
            for fault in generate_scenario(0, index, config).faults
        }
        assert "recover" in kinds
        assert "suspicion" not in kinds

    def test_byzantine_scenarios_draw_compromise_faults(self):
        config = FuzzConfig(failure_model="byzantine-crash")
        kinds = {
            fault.kind
            for index in range(40)
            for fault in generate_scenario(0, index, config).faults
        }
        assert "compromise" in kinds

    def test_crash_recovery_worlds_run_wrapped_protocols(self):
        from repro.protocols import is_recovering

        config = FuzzConfig(failure_model="crash-recovery")
        scenario = generate_scenario(0, 0, config)
        world = build_scenario_world(scenario)
        assert all(is_recovering(proc) for proc in world.processes)
        assert world.model.name == "crash-recovery"
        assert world.monitors.model.name == "crash-recovery"

    def test_expected_clean_is_model_aware(self):
        cr = generate_scenario(
            0, 0, FuzzConfig(failure_model="crash-recovery")
        )
        byz = generate_scenario(
            0, 0, FuzzConfig(failure_model="byzantine-crash")
        )
        assert expected_clean(cr) == ("valid", "sFS2c", "recovery")
        assert expected_clean(byz) == ("valid", "sFS2c")

    def test_model_campaign_digest_reproduces(self):
        config = FuzzConfig(failure_model="crash-recovery")
        first = run_fuzz(seed=7, count=15, config=config)
        second = run_fuzz(seed=7, count=15, config=config)
        assert first.digest() == second.digest()

    @pytest.mark.parametrize("model", ["crash-recovery", "byzantine-crash"])
    def test_model_campaign_clean_and_reproducible(self, model):
        config = FuzzConfig(failure_model=model)
        runner = ShardedRunner()
        report = run_fuzz(seed=0, count=40, config=config, runner=runner)
        assert report.findings == ()
        assert report.digest() == run_fuzz(
            seed=0, count=40, config=config
        ).digest()
        # The model's faults and adversary at most double the work of the
        # same fail-stop campaign: scheduler events, and recorded events
        # (what the trace and the monitors pay for).
        fail_stop = ShardedRunner()
        baseline = run_fuzz(seed=0, count=40, runner=fail_stop)
        assert runner.stats.events < 2 * fail_stop.stats.events
        assert sum(o.events for o in report.outcomes) < 2 * sum(
            o.events for o in baseline.outcomes
        )
