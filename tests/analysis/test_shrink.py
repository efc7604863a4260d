"""Tests for the finding shrinker."""

import pytest

from repro.analysis.fuzz import Scenario, run_scenario
from repro.analysis.shrink import (
    finding_kinds,
    scenario_size,
    shrink,
)
from repro.errors import SimulationError
from repro.sim.failures import Fault


def _sabotaged_scenario(**overrides) -> Scenario:
    """A deliberately baroque scenario with one seeded violation."""
    fields = dict(
        index=0, seed=42, n=6, protocol="sfs", t=2, quorum_size=None,
        delay=("uniform", (0.1, 0.8)), detector=("none", ()),
        faults=(
            Fault("crash", 2.0, 1),
            Fault("suspicion", 2.5, 0, 1),
            Fault("forge_failed", 3.0, 4, 4),
        ),
        holds=((2, (2, 3)),),
        partition=((0, 1, 2), (3, 4, 5)),
        heal_at=12.0,
        chatter=((1.0, 0, 2, 0), (2.0, 3, 5, 1), (4.0, 2, 0, 2)),
        horizon=None,
    )
    fields.update(overrides)
    return Scenario(**fields)


class TestFindingKinds:
    def test_model_violations_classify_by_monitor(self):
        kinds = finding_kinds([
            "model violation: sFS2c tripped at event 7 in a sfs "
            "scenario that must satisfy it",
            "model violation: valid tripped at event 3 in a sfs "
            "scenario that must satisfy it",
        ])
        assert kinds == {"model:sFS2c", "model:valid"}

    def test_divergence_layers_classify_separately(self):
        kinds = finding_kinds([
            "stream/batch divergence: violation logs differ (...)",
            "stream/batch divergence: monitors observed 4 of 5 recorded events",
            "stream/batch divergence: bad-pair counts differ (1 != 2)",
        ])
        assert kinds == {
            "divergence:log",
            "divergence:events",
            "other",  # a text only the retired replay comparison wrote
        }

    def test_unknown_messages_still_count(self):
        assert finding_kinds(["something new"]) == {"other"}

    def test_empty_findings_empty_kinds(self):
        assert finding_kinds([]) == frozenset()


class TestScenarioSize:
    def test_fewer_processes_is_smaller(self):
        big = _sabotaged_scenario()
        small = _sabotaged_scenario(
            n=3, faults=(Fault("forge_failed", 3.0, 2, 2),),
            holds=(), partition=None, heal_at=None, chatter=(),
        )
        assert scenario_size(small) < scenario_size(big)

    def test_detector_and_horizon_count(self):
        plain = _sabotaged_scenario()
        with_detector = _sabotaged_scenario(
            detector=("heartbeat", (1.0, 5.0)), horizon=30.0
        )
        assert scenario_size(with_detector) > scenario_size(plain)


class TestShrink:
    @pytest.fixture(scope="class")
    def result(self):
        return shrink(_sabotaged_scenario())

    def test_minimal_is_strictly_smaller(self, result):
        assert scenario_size(result.minimal) < scenario_size(
            result.original
        )

    def test_minimal_reproduces_the_kinds(self, result):
        observed = finding_kinds(run_scenario(result.minimal).findings)
        assert result.kinds <= observed

    def test_minimal_drops_the_irrelevant_structure(self, result):
        # The seeded violation is a single forged self-detection; all
        # the adversary scheduling and chatter is noise the shrinker
        # must strip.
        assert result.minimal.holds == ()
        assert result.minimal.partition is None
        assert result.minimal.chatter == ()
        assert len(result.minimal.faults) == 1
        assert result.minimal.faults[0].kind == "forge_failed"
        assert result.minimal.n == 2

    def test_shrinking_is_deterministic(self, result):
        again = shrink(_sabotaged_scenario())
        assert repr(again.minimal) == repr(result.minimal)
        assert again.steps == result.steps
        assert again.attempts == result.attempts

    def test_steps_log_matches_size_trajectory(self, result):
        assert len(result.steps) >= 1
        assert all("size" in step for step in result.steps)

    def test_summary_carries_the_reproducer(self, result):
        assert repr(result.minimal) in result.summary()

    def test_replays_are_the_probe_plus_one_per_attempt(self, monkeypatch):
        # Shrinking costs one replay per attempt, of a candidate smaller
        # than the one it would replace, after the probe run.
        import repro.analysis.shrink as shrink_module

        sizes = []

        def spy(scenario):
            sizes.append(scenario_size(scenario))
            return run_scenario(scenario)

        monkeypatch.setattr(shrink_module, "run_scenario", spy)
        original = _sabotaged_scenario()
        result = shrink(original)
        assert len(sizes) == 1 + result.attempts
        assert sizes[0] == scenario_size(original)
        assert all(size < sizes[0] for size in sizes[1:])

    def test_attempt_budget_is_respected(self):
        tight = shrink(_sabotaged_scenario(), max_attempts=3)
        assert tight.attempts <= 3
        # Still a valid (if less minimal) reproducer.
        observed = finding_kinds(run_scenario(tight.minimal).findings)
        assert tight.kinds <= observed

    def test_clean_scenario_refuses_to_shrink(self):
        clean = _sabotaged_scenario(
            faults=(Fault("crash", 2.0, 1), Fault("suspicion", 2.5, 0, 1))
        )
        with pytest.raises(SimulationError, match="no findings"):
            shrink(clean)

    def test_explicit_kinds_override_the_probe_run(self):
        # Preserve only one of the kinds the scenario produces; the
        # shrinker may then drop structure the other kinds needed.
        result = shrink(_sabotaged_scenario(), kinds=["model:sFS2c"])
        observed = finding_kinds(run_scenario(result.minimal).findings)
        assert "model:sFS2c" in observed


class TestShrinkProcessRemoval:
    def test_pid_remap_keeps_reproducing_with_high_pid_sabotage(self):
        # The sabotage fault sits at the highest pid; removing any other
        # process must remap it rather than break it.
        scenario = _sabotaged_scenario(
            faults=(Fault("forge_failed", 3.0, 5, 5),),
            holds=(), partition=None, heal_at=None,
        )
        result = shrink(scenario)
        assert result.minimal.n == 2
        fault = result.minimal.faults[0]
        assert fault.kind == "forge_failed"
        assert fault.proc == fault.target < result.minimal.n

    def test_crash_recovery_scenarios_shrink_too(self):
        scenario = _sabotaged_scenario(
            failure_model="crash-recovery",
            faults=(
                Fault("crash", 1.0, 0),
                Fault("recover", 2.0, 0),
                Fault("forge_failed", 4.0, 3, 3),
            ),
        )
        result = shrink(scenario)
        observed = finding_kinds(run_scenario(result.minimal).findings)
        assert result.kinds <= observed
        assert scenario_size(result.minimal) < scenario_size(scenario)
