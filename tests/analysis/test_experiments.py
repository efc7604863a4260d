"""Small-scale runs of every experiment driver, asserting the paper's shapes.

The benchmarks run these at full scale; here each driver runs with tiny
parameters so the suite stays fast while still checking the qualitative
claims end to end.
"""

import pytest

from repro.analysis.experiments import (
    run_e1,
    run_e2,
    run_e3,
    run_e3_single,
    run_e4,
    run_e5,
    run_e6,
    run_e7,
    run_e8,
    run_e9,
    run_e10,
)
from repro.core.bounds import min_quorum_size


class TestE1:
    def test_false_suspicions_decrease_with_timeout(self):
        rows = run_e1(seeds=range(4), timeout_factors=(1.5, 8.0))
        assert rows[0].total_false_suspicions >= rows[1].total_false_suspicions
        assert rows[0].total_false_suspicions > 0  # Theorem 1

    def test_rates_well_formed(self):
        rows = run_e1(seeds=range(2), timeout_factors=(2.0,))
        assert 0.0 <= rows[0].false_run_rate <= 1.0


class TestE2:
    def test_full_conformance_and_witnesses(self):
        rows = run_e2(configs=((6, 2),), seeds=range(6))
        row = rows[0]
        assert row.sfs_conformant == row.runs
        assert row.witnesses_verified == row.runs

    def test_bad_pairs_occur_somewhere(self):
        rows = run_e2(configs=((9, 2),), seeds=range(6))
        assert rows[0].runs_with_bad_pairs > 0


class TestE3:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_cycle_exactly_below_bound(self, k):
        n = 3 * k
        available = n - (-(-n // k))
        below = run_e3_single(k, n, available)
        at = run_e3_single(k, n, min_quorum_size(n, k))
        assert below.cycle_formed and below.cycle_length == k
        assert not at.cycle_formed
        assert at.detections == 0

    def test_run_e3_pairs(self):
        rows = run_e3(ks=(2,))
        assert rows[0].cycle_formed and not rows[1].cycle_formed


class TestE4:
    def test_table_internally_consistent(self):
        rows = run_e4(ns=(9, 10, 16))
        for row in rows:
            assert row.min_quorum > row.n * (row.t - 1) / row.t
            assert row.family_intersection_empty
            if row.t <= row.max_t:
                assert row.feasible


class TestE5:
    def test_zero_cycles_at_bound(self):
        legal = min_quorum_size(12, 3)
        rows = run_e5(quorum_sizes=(3, legal), seeds=range(4))
        below, at = rows
        assert below.runs_with_cycle > 0
        assert at.runs_with_cycle == 0
        assert at.at_or_above_bound


class TestE6:
    def test_quadratic_message_shape(self):
        rows = run_e6(ns=(4, 9))
        fixed = [r for r in rows if r.policy == "fixed"]
        small, large = fixed
        # Messages grow superlinearly with n (Theta(n^2) echo).
        assert large.protocol_messages > 2 * small.protocol_messages

    def test_wait_for_all_slower_first_detection(self):
        rows = run_e6(ns=(9,))
        fixed = next(r for r in rows if r.policy == "fixed")
        wfa = next(r for r in rows if r.policy == "wait-for-all")
        assert fixed.first_detection_latency <= wfa.first_detection_latency


class TestE7:
    def test_cheap_cycles_sfs_none(self):
        rows = run_e7(seeds=range(8))
        cheap = next(r for r in rows if r.protocol == "unilateral")
        sfs = next(r for r in rows if r.protocol == "sfs")
        assert cheap.cycle_rate > 0
        assert sfs.cycle_rate == 0
        assert sfs.runs_distinguishable == 0
        assert cheap.runs_distinguishable == cheap.runs_with_cycle

    def test_a_broken_witness_builder_is_not_a_section_6_result(
        self, monkeypatch
    ):
        """Only CannotRearrangeError means "distinguishable from
        fail-stop"; any other exception is a bug and must surface."""
        from repro.analysis import experiments
        from repro.analysis.sweep import SweepCase, run_case

        def broken(history):
            raise TypeError("witness builder bug")

        monkeypatch.setattr(experiments, "fail_stop_witness", broken)
        with pytest.raises(TypeError, match="witness builder bug"):
            run_case(SweepCase("e7", seed=1, params=(("n", 6),)))


class TestE8:
    def test_sfs_correct_unilateral_broken(self):
        rows = run_e8(seeds=range(5))
        sfs = next(r for r in rows if r.protocol == "sfs")
        cheap = next(r for r in rows if r.protocol == "unilateral")
        assert sfs.correct_rate == 1.0
        assert cheap.recoveries_unsolvable == cheap.runs


class TestE9:
    def test_split_brain_raw_only(self):
        row = run_e9(seeds=range(5))
        assert row.raw_runs_with_two_leaders == row.runs
        assert row.witness_runs_with_two_leaders == 0
        assert row.max_witness_leaders <= 1


class TestE10:
    def test_threshold_tradeoff(self):
        rows = run_e10(seeds=range(3), thresholds=(0.5, 8.0))
        aggressive, conservative = rows
        assert aggressive.false_suspicions >= conservative.false_suspicions
        assert conservative.crash_detected_runs >= 1
        if conservative.mean_detection_delay is not None:
            assert conservative.mean_detection_delay >= 0


class TestSeededDriverRegistry:
    def test_all_seeded_drivers_registered(self):
        import repro.analysis.extensions  # noqa: F401  (registers e11/a1/e14)
        from repro.analysis.experiments import SEEDED_DRIVERS

        assert set(SEEDED_DRIVERS) == {
            "e1", "e2", "e5", "e7", "e8", "e9", "e10", "e11", "a1", "e14",
            "e17",
        }
        assert SEEDED_DRIVERS["e1"] is run_e1

    def test_duplicate_id_rejected(self):
        from repro.analysis.experiments import seeded_driver

        with pytest.raises(ValueError, match="already registered"):
            seeded_driver("e1")(lambda seeds=(): [])

    def test_driver_without_seeds_rejected(self):
        from repro.analysis.experiments import seeded_driver

        def no_seeds_driver(n=3):
            return []

        with pytest.raises(ValueError, match="'seeds' keyword"):
            seeded_driver("e99")(no_seeds_driver)

    def test_seedless_drivers_not_registered(self):
        from repro.analysis.experiments import SEEDED_DRIVERS

        assert "e3" not in SEEDED_DRIVERS
        assert "e4" not in SEEDED_DRIVERS
        assert "e6" not in SEEDED_DRIVERS
