"""Every experiment driver at the scale of its paper table, asserting the
paper's shapes.

Each ``TestE*`` class runs its driver with the parameters of the table it
reproduces (``python -m repro experiment <id>`` prints the same table at
a smaller seed count) and asserts the qualitative claim: who wins, where
the edge falls, which rates are exactly zero. All of them together take
about two seconds on a 2-vCPU guest.
"""

import pytest

from repro.analysis.experiments import (
    run_e1,
    run_e2,
    run_e3,
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
    def test_false_suspicions_at_every_timeout(self):
        rows = run_e1(seeds=range(12), timeout_factors=(1.5, 2.0, 4.0, 8.0))
        totals = [row.total_false_suspicions for row in rows]
        # Aggressive timeouts misfire more; none reach zero (Theorem 1).
        assert totals[0] >= totals[-1]
        assert all(total > 0 for total in totals)

    def test_rates_well_formed(self):
        rows = run_e1(seeds=range(2), timeout_factors=(2.0,))
        assert 0.0 <= rows[0].false_run_rate <= 1.0


class TestE2:
    def test_full_conformance_witnesses_and_bad_pairs(self):
        rows = run_e2(
            configs=((4, 1), (6, 2), (9, 2), (12, 3)), seeds=range(20)
        )
        for row in rows:
            assert row.sfs_conformant == row.runs
            assert row.witnesses_verified == row.runs
        # Bad pairs occur, so the witness construction is exercised.
        nine_two = next(row for row in rows if (row.n, row.t) == (9, 2))
        assert nine_two.runs_with_bad_pairs > 0


class TestE3:
    def test_cycle_exactly_below_bound_none_at_it(self):
        rows = run_e3(ks=(2, 3, 4, 5), multiplier=3)
        below = [row for row in rows if row.quorum_size < row.legal_quorum]
        at = [row for row in rows if row.quorum_size >= row.legal_quorum]
        # One row each side of the bound per k (all() of [] would pass).
        assert [row.k for row in below] == [row.k for row in at] == [
            2, 3, 4, 5
        ]
        assert all(
            row.cycle_formed and row.cycle_length == row.k for row in below
        )
        assert all(
            not row.cycle_formed and row.detections == 0 for row in at
        )


class TestE4:
    def test_table_and_feasibility_edge(self):
        rows = run_e4(ns=(4, 9, 10, 16, 25, 26, 49, 50, 100, 101))
        for row in rows:
            assert row.min_quorum > row.n * (row.t - 1) / row.t
            assert row.family_intersection_empty
            # Corollary 8: feasible exactly when n > t^2.
            assert row.feasible == (row.n > row.t * row.t)


class TestE5:
    def test_cycles_below_bound_zero_at_and_above(self):
        legal = min_quorum_size(12, 3)
        rows = run_e5(
            n=12, t=3, quorum_sizes=range(2, legal + 2), seeds=range(25)
        )
        below = [row for row in rows if not row.at_or_above_bound]
        at_or_above = [row for row in rows if row.at_or_above_bound]
        assert [row.quorum_size for row in at_or_above] == [legal, legal + 1]
        three = next(row for row in below if row.quorum_size == 3)
        assert three.runs_with_cycle > 0
        assert all(row.runs_with_cycle == 0 for row in at_or_above)


class TestE6:
    NS = (4, 6, 9, 12, 16, 25)

    def test_quadratic_message_shape(self):
        fixed = {
            r.n: r for r in run_e6(ns=self.NS) if r.policy == "fixed"
        }
        # Theta(n^2) echo: messages grow superlinearly with n, and n=25
        # dwarfs n=4 per target by far more than 25/4.
        assert fixed[9].protocol_messages > 2 * fixed[4].protocol_messages
        assert fixed[25].messages_per_target > (
            4 * fixed[4].messages_per_target
        )

    def test_wait_for_all_slower_first_detection(self):
        rows = run_e6(ns=self.NS)
        for n in self.NS:
            fixed = next(r for r in rows if r.n == n and r.policy == "fixed")
            wfa = next(
                r for r in rows if r.n == n and r.policy == "wait-for-all"
            )
            assert fixed.first_detection_latency <= (
                wfa.first_detection_latency
            )


class TestE7:
    def test_cheap_cycles_sfs_none(self):
        rows = run_e7(n=6, seeds=range(40))
        cheap = next(r for r in rows if r.protocol == "unilateral")
        sfs = next(r for r in rows if r.protocol == "sfs")
        assert cheap.cycle_rate > 0.9
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
        rows = run_e8(n=5, seeds=range(25))
        sfs = next(r for r in rows if r.protocol == "sfs")
        cheap = next(r for r in rows if r.protocol == "unilateral")
        assert sfs.correct_rate == 1.0
        assert cheap.recoveries_unsolvable == cheap.runs


class TestE9:
    def test_split_brain_raw_only(self):
        row = run_e9(n=6, seeds=range(25))
        assert row.raw_runs_with_two_leaders == row.runs
        assert row.witness_runs_with_two_leaders == 0
        assert row.max_raw_leaders == 2
        assert row.max_witness_leaders <= 1


class TestE10:
    def test_threshold_tradeoff(self):
        seeds = range(8)
        rows = run_e10(thresholds=(0.5, 1.0, 2.0, 4.0, 8.0), seeds=seeds)
        false_counts = [row.false_suspicions for row in rows]
        assert false_counts[0] >= false_counts[-1]
        assert rows[-1].crash_detected_runs >= len(seeds) - 1
        delays = [
            row.mean_detection_delay
            for row in rows
            if row.mean_detection_delay is not None
        ]
        assert all(delay >= 0 for delay in delays)


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
