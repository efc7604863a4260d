"""Tests for the extension experiments (E11 probe, A1 ablation, E17, the
monitor scenarios); E11 and A1 run at the scale of their paper tables."""

from repro.analysis.extensions import run_a1, run_e11


class TestA1Ablation:
    def test_deferral_is_load_bearing(self):
        rows = run_a1(seeds=range(10))
        with_deferral = next(r for r in rows if r.defer_app)
        without = next(r for r in rows if not r.defer_app)
        assert with_deferral.sfs2d_violations == 0
        assert without.sfs2d_violations == without.runs
        assert without.violation_rate == 1.0


class TestE11Probe:
    def test_rows_well_formed(self):
        rows = run_e11(seeds=range(4))
        assert {r.protocol for r in rows} == {"sfs", "sfs+piggyback"}
        for row in rows:
            assert row.runs == 4
            assert 0 <= row.inversions
            assert 0 <= row.truncated_logs <= row.runs

    def test_piggybacking_changes_nothing_measurable(self):
        # The Section 6 finding at table scale: knowledge rides the same
        # FIFO channels as the confirmations, so both columns match.
        rows = run_e11(seeds=range(25))
        plain = next(r for r in rows if r.protocol == "sfs")
        piggy = next(r for r in rows if r.protocol == "sfs+piggyback")
        assert piggy.inversions == plain.inversions
        assert piggy.truncated_logs == plain.truncated_logs
        assert plain.sfs_conformant == plain.runs
        assert piggy.sfs_conformant == piggy.runs
        assert plain.inversions > 0


class TestE17FailureModels:
    def test_one_row_per_model_in_registry_order(self):
        from repro.analysis.extensions import E17_MODELS, run_e17

        rows = run_e17(seeds=range(3))
        assert tuple(row.failure_model for row in rows) == E17_MODELS

    def test_all_models_decide_and_stay_clean(self):
        from repro.analysis.extensions import run_e17

        for row in run_e17(seeds=range(5)):
            assert row.decided_runs == row.runs
            assert row.clean == row.runs

    def test_models_inject_their_own_fault_vocabulary(self):
        from repro.analysis.extensions import run_e17

        by_model = {
            row.failure_model: row for row in run_e17(seeds=range(10))
        }
        assert by_model["crash-recovery"].recoveries > 0
        assert by_model["byzantine-crash"].compromised > 0
        assert by_model["fail-stop"].recoveries == 0
        assert by_model["fail-stop"].compromised == 0

    def test_sweep_table_field_order_matches_dataclass(self):
        # Regression pin for the PR 5 sweep_table contract: columns render
        # in first-appearance (dataclass field) order, not sorted.
        from repro.analysis.extensions import E17Row
        from repro.analysis.sweep import run_sweep, sweep_table

        rows = run_sweep("e17", seeds=range(1))
        header = sweep_table(rows).splitlines()[0]
        columns = [part.strip() for part in header.split("|")]
        expected = [
            "failure_model", "n", "t", "runs", "decided_runs",
            "crashes", "recoveries", "compromised", "events", "clean",
        ]
        assert [f.name for f in __import__("dataclasses").fields(E17Row)] \
            == expected
        assert columns[-len(expected):] == expected

    def test_sweep_rows_bit_identical_across_backends(self):
        from repro.analysis.sweep import rows_digest, run_sweep

        serial = run_sweep("e17", seeds=range(2), backend="serial")
        parallel = run_sweep(
            "e17", seeds=range(2), backend="parallel", jobs=2
        )
        assert rows_digest(serial) == rows_digest(parallel)


class TestBenorMonitorScenario:
    def test_registered(self):
        from repro.analysis.extensions import MONITOR_SCENARIOS

        assert "benor" in MONITOR_SCENARIOS

    def test_runs_clean_under_every_model_with_stop(self):
        from repro.analysis.extensions import run_monitor_case

        for model in ("fail-stop", "crash-recovery", "byzantine-crash"):
            result = run_monitor_case(
                "benor", seed=1, stop=True, failure_model=model
            )
            assert result.ok
            assert not result.halted

    def test_crash_recovery_decision_reached(self):
        from repro.apps.ben_or import decision_events
        from repro.analysis.extensions import build_monitor_world

        world = build_monitor_world(
            "benor", seed=0, failure_model="crash-recovery"
        )
        monitors = world.attach_monitor(stop_on_violation=True)
        world.run_to_quiescence(max_events=200_000)
        assert not world.scheduler.stop_requested
        assert monitors.ok_so_far
        assert decision_events(world.history())

    def test_demo_scenario_accepts_crash_recovery(self):
        from repro.analysis.extensions import run_monitor_case

        result = run_monitor_case(
            "demo", seed=0, stop=True, failure_model="crash-recovery"
        )
        assert result.ok
