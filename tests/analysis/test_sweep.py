"""Tests for the deterministic multi-seed sweep runner."""

import gc
import multiprocessing

import pytest

from repro.analysis.sweep import (
    SWEEP_BACKENDS,
    SweepCase,
    SweepRow,
    available_experiments,
    case_to_job,
    job_to_case,
    plan_cases,
    rows_digest,
    run_case,
    run_sweep,
    run_sweep_job,
    sweep_table,
)
from repro.errors import SimulationError


class TestPlanning:
    def test_plan_is_deterministic(self):
        kwargs = dict(
            seeds=range(3),
            params={"n": 6},
            grid={"quorum_sizes": [(3,), (4,)]},
        )
        assert plan_cases("e5", **kwargs) == plan_cases("e5", **kwargs)

    def test_plan_order_grid_major_seed_minor(self):
        cases = plan_cases(
            "e7", seeds=[0, 1], grid={"n": [6, 9]}
        )
        assert [(dict(c.params)["n"], c.seed) for c in cases] == [
            (6, 0), (6, 1), (9, 0), (9, 1)
        ]

    def test_fixed_params_precede_grid(self):
        (case,) = plan_cases("e7", seeds=[4], params={"n": 6})
        assert case == SweepCase(experiment="e7", seed=4, params=(("n", 6),))

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SimulationError):
            plan_cases("e99", seeds=[0])

    def test_seeds_param_reserved(self):
        with pytest.raises(SimulationError, match="seeds"):
            plan_cases("e7", seeds=[0], params={"seeds": (3,)})
        with pytest.raises(SimulationError, match="seeds"):
            plan_cases("e7", seeds=[0], grid={"seeds": [(3,)]})

    def test_params_grid_overlap_rejected(self):
        with pytest.raises(SimulationError, match="both params and grid"):
            plan_cases("e7", seeds=[0], params={"n": 6}, grid={"n": [9]})

    def test_available_experiments(self):
        ids = available_experiments()
        assert "e1" in ids and "e11" in ids and "a1" in ids
        assert "e3" not in ids  # seedless drivers are not sweepable


class TestExecution:
    def test_run_case_tags_rows(self):
        (case,) = plan_cases("e7", seeds=[2], params={"n": 6})
        rows = run_case(case)
        assert len(rows) == 2  # unilateral + sfs
        assert all(r.seed == 2 and r.experiment == "e7" for r in rows)
        assert all(r.row.runs == 1 for r in rows)

    def test_serial_matches_parallel_bit_for_bit(self):
        kwargs = dict(seeds=range(4), params={"n": 6})
        serial = run_sweep("e7", jobs=1, **kwargs)
        parallel = run_sweep("e7", jobs=2, **kwargs)
        assert serial == parallel
        assert rows_digest(serial) == rows_digest(parallel)

    def test_rows_do_not_depend_on_the_collector(self):
        """run_sweep pauses the cyclic collector per job (run_job);
        run_case called directly does not. Same rows either way — with
        at most one collection per paused job, and many when forced."""
        kwargs = dict(seeds=range(3), params={"n": 9})
        collections = 0

        def count(phase, info):
            nonlocal collections
            collections += phase == "start"

        thresholds = gc.get_threshold()
        gc.collect()  # start both arms from an allocation count of zero
        gc.callbacks.append(count)
        try:
            paused = run_sweep("e7", **kwargs)
            while_paused, collections = collections, 0
            gc.set_threshold(50)  # a young pass every 50 allocations
            forced = [
                row
                for case in plan_cases("e7", **kwargs)
                for row in run_case(case)
            ]
        finally:
            gc.set_threshold(*thresholds)
            gc.callbacks.remove(count)
        assert forced == paused
        assert while_paused <= 3 < collections

    def test_digest_is_order_sensitive(self):
        rows = run_sweep("e7", seeds=range(2), params={"n": 6})
        assert rows_digest(rows) != rows_digest(list(reversed(rows)))

    def test_grid_sweep_rows(self):
        rows = run_sweep(
            "e5",
            seeds=range(2),
            params={"n": 6, "t": 2},
            grid={"quorum_sizes": [(3,), (4,)]},
        )
        # 2 grid combos x 2 seeds x 1 row per (single-size) sweep call.
        assert len(rows) == 4
        assert {dict(r.params)["quorum_sizes"] for r in rows} == {
            (3,), (4,)
        }

    def test_single_row_drivers_normalised(self):
        rows = run_sweep("e9", seeds=[1], params={"n": 6})
        assert len(rows) == 1
        assert rows[0].row.runs == 1


class TestRendering:
    def test_sweep_table_lists_params_and_fields(self):
        rows = run_sweep("e7", seeds=range(2), params={"n": 6})
        table = sweep_table(rows)
        assert "seed" in table and "n" in table and "protocol" in table

    def test_empty_table(self):
        assert sweep_table([]) == "(no rows)"


class TestEarlyStop:
    def test_early_stop_cases_planned(self):
        cases = plan_cases("e14", seeds=[0, 1], early_stop=True)
        assert all(c.early_stop for c in cases)

    def test_early_stop_rejected_for_unsupported_driver(self):
        with pytest.raises(SimulationError, match="early_stop"):
            plan_cases("e7", seeds=[0], early_stop=True)

    def test_early_stop_not_a_driver_param(self):
        with pytest.raises(SimulationError, match="execution mode"):
            plan_cases("e14", seeds=[0], params={"early_stop": True})

    def test_run_case_rejects_unsupported_early_stop(self):
        case = SweepCase(experiment="e7", seed=0, early_stop=True)
        with pytest.raises(SimulationError, match="early_stop"):
            run_case(case)

    def test_early_stop_rows_tag_violation_index(self):
        rows = run_sweep(
            "e14", seeds=range(2), params={"n": 6}, early_stop=True
        )
        assert all(r.row.violation_event_index is not None for r in rows)
        assert all(r.row.early_stop for r in rows)

    @pytest.mark.parametrize("early_stop", [False, True])
    def test_serial_parallel_bit_identical_in_both_modes(self, early_stop):
        kwargs = dict(seeds=range(3), params={"n": 6}, early_stop=early_stop)
        serial = run_sweep("e14", jobs=1, **kwargs)
        parallel = run_sweep("e14", jobs=2, **kwargs)
        assert serial == parallel
        assert rows_digest(serial) == rows_digest(parallel)

    def test_early_stop_agrees_with_full_mode_on_index(self):
        kwargs = dict(seeds=range(5), params={"n": 6})
        full = run_sweep("e14", **kwargs)
        early = run_sweep("e14", early_stop=True, **kwargs)
        assert [r.row.violation_event_index for r in early] == [
            r.row.violation_event_index for r in full
        ]
        assert all(r.row.violated for r in early)
        assert all(
            e.row.events_recorded <= f.row.events_recorded
            for e, f in zip(early, full)
        )
        # The cycle closes within the first ~40 of ~4k events per run.
        full_events = sum(r.row.events_recorded for r in full)
        early_events = sum(r.row.events_recorded for r in early)
        assert early_events * 10 <= full_events
        # Rows carry the mode, so the two digests legitimately differ.
        assert rows_digest(early) != rows_digest(full)


class TestBackends:
    def test_known_backends(self):
        assert SWEEP_BACKENDS == ("serial", "parallel", "inproc", "remote")

    def test_unknown_backend_rejected(self):
        with pytest.raises(SimulationError, match="backend"):
            run_sweep("e7", seeds=[0], backend="gpu")

    def test_default_backend_follows_jobs(self):
        # backend=None must keep the historical jobs semantics: the rows
        # are what the explicit backends produce.
        kwargs = dict(seeds=range(2), params={"n": 6})
        assert run_sweep("e7", **kwargs) == run_sweep(
            "e7", backend="serial", **kwargs
        )

    def test_inproc_bit_identical_to_serial(self):
        kwargs = dict(seeds=range(4), params={"n": 6})
        serial = run_sweep("e7", backend="serial", **kwargs)
        inproc = run_sweep("e7", backend="inproc", **kwargs)
        assert serial == inproc
        assert rows_digest(serial) == rows_digest(inproc)

    def test_inproc_bit_identical_to_parallel(self):
        kwargs = dict(seeds=range(4), params={"n": 6})
        parallel = run_sweep("e7", backend="parallel", jobs=2, **kwargs)
        assert multiprocessing.active_children() == []
        inproc = run_sweep("e7", backend="inproc", **kwargs)
        assert rows_digest(parallel) == rows_digest(inproc)

    @pytest.mark.parametrize("backend", [None, "parallel", "serial"])
    def test_worker_count_below_one_refused(self, backend):
        # jobs=0 used to return rows (serial, whatever the backend).
        with pytest.raises(SimulationError, match="jobs must be >= 1, got 0"):
            run_sweep("e7", seeds=range(2), params={"n": 6}, jobs=0,
                      backend=backend)

    def test_inproc_early_stop_identical(self):
        kwargs = dict(seeds=range(3), params={"n": 6}, early_stop=True)
        serial = run_sweep("e14", **kwargs)
        inproc = run_sweep("e14", backend="inproc", **kwargs)
        assert serial == inproc

    def test_inproc_grid_sweep(self):
        kwargs = dict(
            seeds=range(2),
            params={"n": 6, "t": 2},
            grid={"quorum_sizes": [(3,), (4,)]},
        )
        assert run_sweep("e5", **kwargs) == run_sweep(
            "e5", backend="inproc", **kwargs
        )


class TestJobBridge:
    def test_case_job_round_trip(self):
        case = SweepCase(
            experiment="e14", seed=3, params=(("n", 6),), early_stop=True
        )
        job = case_to_job(case)
        assert job.kind == "repro.analysis.sweep:run_sweep_job"
        assert job.spec_id == "e14" and job.seed == 3
        assert job.param("early_stop") is True
        assert job_to_case(job) == case

    def test_round_trip_without_early_stop(self):
        case = SweepCase(experiment="e7", seed=1, params=(("n", 6),))
        job = case_to_job(case)
        assert job.param("early_stop", False) is False
        assert job_to_case(job) == case

    def test_run_sweep_job_equals_run_case(self):
        case = SweepCase(experiment="e7", seed=2, params=(("n", 6),))
        assert run_sweep_job(case_to_job(case)) == run_case(case)


class TestJournalResume:
    def test_journaled_run_matches_plain(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        kwargs = dict(seeds=range(3), params={"n": 6})
        plain = run_sweep("e7", **kwargs)
        journaled = run_sweep("e7", journal=path, **kwargs)
        assert rows_digest(journaled) == rows_digest(plain)
        assert path.exists()

    def test_interrupted_resume_is_bit_identical(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        kwargs = dict(seeds=range(4), params={"n": 6})
        baseline = run_sweep("e7", **kwargs)
        run_sweep("e7", journal=path, **kwargs)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:3]) + "\n")  # keep 2 of 4 cases
        resumed = run_sweep("e7", journal=path, resume=True, **kwargs)
        assert resumed == baseline
        assert rows_digest(resumed) == rows_digest(baseline)

    def test_resume_skips_journaled_cases(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        kwargs = dict(seeds=range(3), params={"n": 6})
        run_sweep("e7", journal=path, **kwargs)
        entries = len(path.read_text().splitlines()) - 1  # minus header
        assert entries == 3
        # A fully journaled resume reuses every case (the journal is
        # rewritten with the same three entries, none re-executed —
        # guarded indirectly: digest unchanged and entry count stable).
        resumed = run_sweep("e7", journal=path, resume=True, **kwargs)
        assert len(path.read_text().splitlines()) - 1 == 3
        assert rows_digest(resumed) == rows_digest(run_sweep("e7", **kwargs))

    def test_streaming_sink_sees_cases_in_plan_order(self):
        from repro.exec import CollectSink

        sink = CollectSink()
        rows = run_sweep(
            "e7", seeds=range(3), params={"n": 6},
            backend="inproc", sink=sink,
        )
        flat = [row for case_rows in sink.results for row in case_rows]
        assert flat == rows
        assert sink.total == 3 and sink.closed


class TestMixedRowRendering:
    def test_union_of_field_names_across_mixed_rows(self):
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class RowA:
            alpha: int
            shared: int

        @dataclass(frozen=True)
        class RowB:
            shared: int
            beta: str

        rows = [
            SweepRow("x", 0, (("p", 1),), RowA(alpha=1, shared=2)),
            SweepRow("x", 1, (("p", 2),), RowB(shared=3, beta="b")),
        ]
        table = sweep_table(rows)
        header = table.splitlines()[0]
        for name in ("alpha", "shared", "beta"):
            assert name in header
        assert "-" in table  # missing cells padded, not misaligned

    def test_mixed_dataclass_and_plain_rows(self):
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class RowA:
            alpha: int

        rows = [
            SweepRow("x", 0, (), RowA(alpha=1)),
            SweepRow("x", 1, (), 42),
        ]
        table = sweep_table(rows)
        header = table.splitlines()[0]
        assert "alpha" in header and "row" in header
        assert "42" in table

    def test_union_renders_in_first_seen_field_order(self):
        # Regression guard: the union of field names across mixed row
        # types must follow first appearance (row order, then dataclass
        # field order within each row) — never set iteration order,
        # which varies between runs and would make tables unstable.
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class RowA:
            zulu: int
            alpha: int

        @dataclass(frozen=True)
        class RowB:
            beta: int
            alpha: int
            gamma: int

        rows = [
            SweepRow("x", 0, (("p", 1),), RowA(zulu=1, alpha=2)),
            SweepRow("x", 1, (("q", 2),), RowB(beta=3, alpha=4, gamma=5)),
        ]
        header = sweep_table(rows).splitlines()[0]
        assert header.split() == [
            "seed", "|", "p", "|", "q", "|",
            "zulu", "|", "alpha", "|", "beta", "|", "gamma",
        ]
        # Stable across repeated renders of the same rows.
        assert sweep_table(rows) == sweep_table(rows)

    def test_field_order_follows_row_order(self):
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class RowA:
            zulu: int
            alpha: int

        @dataclass(frozen=True)
        class RowB:
            beta: int
            alpha: int
            gamma: int

        a = SweepRow("x", 0, (), RowA(zulu=1, alpha=2))
        b = SweepRow("x", 1, (), RowB(beta=3, alpha=4, gamma=5))
        header_ab = sweep_table([a, b]).splitlines()[0]
        header_ba = sweep_table([b, a]).splitlines()[0]
        assert header_ab.split() == [
            "seed", "|", "zulu", "|", "alpha", "|", "beta", "|", "gamma",
        ]
        assert header_ba.split() == [
            "seed", "|", "beta", "|", "alpha", "|", "gamma", "|", "zulu",
        ]
