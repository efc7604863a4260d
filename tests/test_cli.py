"""Tests for the ``python -m repro`` command-line interface."""

import hashlib
import multiprocessing
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.__main__ import main
from tests.conftest import SRC, run_python, stage_src


class TestDemo:
    def test_demo_succeeds(self, capsys):
        assert main(["demo", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "FS witness exists" in out

    def test_demo_parameters(self, capsys):
        assert main(["demo", "--n", "6", "--t", "2", "--seed", "1"]) == 0
        assert "n=6 t=2" in capsys.readouterr().out


class TestBadParametersAreOneLine:
    """demo, bounds, experiment and cycle have no ReproError handler of
    their own; main() renders one for them, as sweep, fuzz, monitor and
    worker render theirs."""

    CASES = {
        "cycle 0": (2, "cycle: K must be at least 2"),
        "cycle 1": (2, "cycle: K must be at least 2"),
        "cycle 2 --n 1": (1, "cycle failed: quorum size must be at least 1"),
        "demo --n 2": (1, "demo failed: n=2 cannot tolerate t=2"),
        "demo --n 3 --t 5": (1, "demo failed: n=3 cannot tolerate t=5"),
        "bounds 0": (2, "bounds: N must be at least 1"),
        "bounds -3": (2, "bounds: N must be at least 1"),
        "bounds 9 0": (2, "bounds: T must be between 1 and N=9"),
        "bounds 9 -2": (2, "bounds: T must be between 1 and N=9"),
        "bounds 9 12": (2, "bounds: T must be between 1 and N=9"),
    }

    @pytest.mark.parametrize("command", CASES)
    def test_exit_code_and_one_stderr_line(self, command, capsys):
        code, start = self.CASES[command]
        assert main(command.split()) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(start)
        assert captured.err.count("\n") == 1

    def test_a_repro_error_from_an_experiment_driver(self, capsys,
                                                     monkeypatch):
        from repro.analysis import experiments
        from repro.errors import BoundsError

        def refuse():
            raise BoundsError("n=2 is too small")

        monkeypatch.setattr(experiments, "run_e3", refuse)
        assert main(["experiment", "e3"]) == 1
        assert capsys.readouterr().err == (
            "experiment failed: n=2 is too small\n"
        )


class TestBounds:
    def test_bounds_all_t(self, capsys):
        assert main(["bounds", "10"]) == 0
        out = capsys.readouterr().out
        assert "min_quorum" in out

    def test_bounds_specific_t(self, capsys):
        assert main(["bounds", "9", "2"]) == 0
        out = capsys.readouterr().out
        assert "5" in out  # min quorum for (9, 2)

    def test_bounds_t_equal_to_n_is_a_row(self, capsys):
        assert main(["bounds", "9", "9"]) == 0
        assert "(no rows)" not in capsys.readouterr().out


class TestExperiment:
    @pytest.mark.parametrize("eid", ["e3", "e4", "e6", "a1"])
    def test_fast_experiments_run(self, eid, capsys):
        assert main(["experiment", eid]) == 0
        assert f"experiment {eid.upper()}" in capsys.readouterr().out

    def test_experiment_ids_case_insensitive(self, capsys):
        assert main(["experiment", "E3"]) == 0
        assert "experiment E3" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "e99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestSweep:
    def test_sweep_serial(self, capsys):
        assert main(
            ["sweep", "e7", "--seeds", "2", "--param", "n=6"]
        ) == 0
        out = capsys.readouterr().out
        assert "sweep E7" in out
        assert "digest=" in out

    def test_sweep_parallel_output_identical(self, capsys):
        args = ["sweep", "e7", "--seeds", "2", "--param", "n=6"]
        assert main(args) == 0
        serial_out = capsys.readouterr().out
        assert main(args + ["--jobs", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert serial_out == parallel_out

    def test_sweep_seed_list(self, capsys):
        assert main(
            ["sweep", "e7", "--seeds", "3,5", "--param", "n=6"]
        ) == 0
        out = capsys.readouterr().out
        assert "(2 seeds)" in out

    def test_sweep_unknown_experiment(self, capsys):
        assert main(["sweep", "e3"]) == 2
        assert "unknown sweepable experiment" in capsys.readouterr().err

    def test_sweep_bad_params_fail_cleanly(self, capsys):
        assert main(
            ["sweep", "e7", "--seeds", "1", "--param", "n=3",
             "--param", "bogus=1"]
        ) == 1
        assert "sweep failed" in capsys.readouterr().err

    def test_sweep_seeds_param_rejected_cleanly(self, capsys):
        # 'seeds' is runner-supplied; passing it must be a usage error,
        # not a TypeError traceback from inside the driver.
        assert main(
            ["sweep", "e7", "--seeds", "1", "--param", "seeds=3"]
        ) == 1
        err = capsys.readouterr().err
        assert "sweep failed" in err and "seeds" in err

    @pytest.mark.parametrize(
        "backend", ["serial", "inproc", "parallel", "remote"]
    )
    @pytest.mark.parametrize("n, says", [("1", "no process 1"),
                                         ("abc", "n >= 1")])
    def test_sweep_bad_world_size_fails_in_one_line(
        self, capsys, backend, n, says
    ):
        # n=1 used to surface as an IndexError from inside Scheduler.run
        # (the deferred suspicion indexing process 1), n=abc as a
        # TypeError from build_world's range() — and on ``remote`` both
        # arrived as the worker's twenty-frame traceback.
        fleet = {"parallel": ["--jobs", "2"], "remote": ["--workers", "2"]}
        assert main(
            ["sweep", "e7", "--seeds", "2", "--param", f"n={n}",
             "--backend", backend, *fleet.get(backend, [])]
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith("sweep failed: ") and says in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_sweep_jobs_refused_where_they_would_not_apply(self, capsys):
        args = ["sweep", "e7", "--seeds", "2", "--param", "n=6"]
        refused = [["--jobs", "0"], ["--jobs", "-3"]] + [
            ["--backend", backend, "--jobs", "2"]
            for backend in ("serial", "inproc", "remote")
        ]
        for extra in refused:
            assert main(args + extra) == 2, extra
            err = capsys.readouterr().err
            assert err.startswith("sweep failed: --jobs takes a worker")
            assert len(err.splitlines()) == 1
        # One worker is what those backends are; it stays accepted.
        assert main(args + ["--backend", "inproc", "--jobs", "1"]) == 0


class TestSweepList:
    def test_list_prints_registered_experiments(self, capsys):
        assert main(["sweep", "--list"]) == 0
        out = capsys.readouterr().out
        for eid in ("e1", "e10", "e11", "e14", "a1"):
            assert eid in out
        assert "repro.analysis.experiments:run_e1" in out
        assert "repro.analysis.extensions:run_e14" in out

    def test_missing_eid_without_list_is_usage_error(self, capsys):
        assert main(["sweep"]) == 2
        assert "--list" in capsys.readouterr().err


class TestSweepExecLayer:
    def test_journal_then_resume_prints_same_digest(self, capsys, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        args = ["sweep", "e7", "--seeds", "3", "--param", "n=6",
                "--journal", path]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args + ["--resume"]) == 0
        resumed = capsys.readouterr().out
        assert first == resumed

    def test_stream_prints_cases_live(self, capsys):
        assert main(
            ["sweep", "e7", "--seeds", "2", "--param", "n=6", "--stream"]
        ) == 0
        out = capsys.readouterr().out
        assert "[case 1/2]" in out and "[case 2/2]" in out

    def test_stream_rows_precede_table(self, capsys):
        assert main(
            ["sweep", "e7", "--seeds", "1,", "--param", "n=6", "--stream"]
        ) == 0
        out = capsys.readouterr().out
        assert out.index("[case 1/1]") < out.index("== sweep E7")


class TestSweepBackend:
    def test_backend_inproc_output_identical_to_serial(self, capsys):
        args = ["sweep", "e7", "--seeds", "2", "--param", "n=6"]
        assert main(args) == 0
        serial_out = capsys.readouterr().out
        assert main(args + ["--backend", "inproc"]) == 0
        inproc_out = capsys.readouterr().out
        assert serial_out == inproc_out

    def test_backend_validated_by_argparse(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "e7", "--seeds", "1", "--backend", "gpu"])


class TestFuzz:
    def test_fuzz_runs_and_prints_digest(self, capsys):
        assert main(["fuzz", "--seed", "3", "--count", "10"]) == 0
        out = capsys.readouterr().out
        assert "scenarios: 10" in out
        assert "digest=" in out
        assert "findings: 0" in out

    def test_fuzz_replays_identically(self, capsys):
        args = ["fuzz", "--seed", "5", "--count", "8"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert first == capsys.readouterr().out

    def test_fuzz_stepping_invisible_in_report(self, capsys):
        # Two genuinely different paths to one digest: the default steps
        # the plan as one batch of shards, --backend serial runs each
        # scenario as a whole job.
        args = ["fuzz", "--seed", "5", "--count", "8"]
        assert main(args) == 0
        shards = capsys.readouterr().out
        assert main(args + ["--backend", "serial"]) == 0
        whole_jobs = capsys.readouterr().out
        digest = [l for l in shards.splitlines() if "digest=" in l]
        assert len(digest) == 1
        assert digest == [
            l for l in whole_jobs.splitlines() if "digest=" in l
        ]

    def test_fuzz_restricted_protocols(self, capsys):
        assert main(
            ["fuzz", "--seed", "0", "--count", "6",
             "--protocols", "unilateral", "--detectors", "none"]
        ) == 0
        out = capsys.readouterr().out
        assert "unilateral=6" in out

    def test_fuzz_bad_config_fails_cleanly(self, capsys):
        assert main(
            ["fuzz", "--count", "1", "--protocols", "paxos"]
        ) == 2
        assert "fuzz failed" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--protocols", "--detectors"])
    def test_empty_list_is_refused_not_read_as_default(self, flag, capsys):
        assert main(["fuzz", "--count", "1", flag, ""]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"fuzz failed: FuzzConfig.{flag[2:]} is empty")
        assert err.count("\n") == 1

    def test_fuzz_bad_delay_tuple_fails_in_one_line(self, capsys,
                                                    monkeypatch):
        # A scenario carrying a delay tuple the sampler cannot draw from
        # (a corpus entry, a literal Scenario) used to be a traceback
        # from inside the run's first send.
        from repro.analysis import fuzz as fuzz_mod

        bad = {
            "constant": (-1.0,),
            "uniform": (1.0, 0.5),
            "exponential": (0.0,),
            "lognormal": (0.0, 0.5),
            "pareto": (0.5, 0.0),
        }
        monkeypatch.setattr(
            fuzz_mod, "_draw_delay_params", lambda family, rng: bad[family]
        )
        assert main(["fuzz", "--seed", "0", "--count", "2"]) == 2
        err = capsys.readouterr().err
        assert re.match(r"fuzz failed: \w+Delay\.\w+ must be ", err)
        assert err.count("\n") == 1


class TestDeletedFlags:
    """One way to run in process: the flags that selected another are
    gone, not accepted and ignored."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["fuzz", "--count", "2", "--stepping", "sequential"],
            ["fuzz", "--count", "2", "--quantum", "8"],
            ["fuzz", "--count", "2", "--window", "8"],
            ["monitor", "demo", "--backend", "inproc"],
        ],
        ids=" ".join,
    )
    def test_deleted_flags_are_argparse_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fuzz", "monitor"])
    def test_help_names_no_deleted_flag(self, command, capsys):
        gone = {
            "fuzz": ("--stepping", "--quantum", "--window"),
            "monitor": ("--backend",),
        }[command]
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        text = capsys.readouterr().out
        assert "--journal" in text
        for flag in gone:
            assert flag not in text


class TestFuzzExecLayer:
    def test_backend_serial_prints_same_digest(self, capsys):
        args = ["fuzz", "--seed", "5", "--count", "8"]
        assert main(args) == 0
        inproc = capsys.readouterr().out
        assert main(args + ["--backend", "serial"]) == 0
        serial = capsys.readouterr().out
        digest = [l for l in inproc.splitlines() if "digest=" in l]
        assert digest == [l for l in serial.splitlines() if "digest=" in l]
        # The engine line is the default's (the in-process engine or the
        # pool, whichever this machine picks); serial has none.
        assert any("engine:" in l for l in inproc.splitlines())
        assert not any("engine:" in l for l in serial.splitlines())

    def test_journal_then_resume_prints_same_digest(self, capsys, tmp_path):
        path = str(tmp_path / "fuzz.jsonl")
        args = ["fuzz", "--seed", "2", "--count", "6", "--journal", path]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args + ["--resume"]) == 0
        resumed = capsys.readouterr().out
        digest = [l for l in first.splitlines() if "digest=" in l]
        assert digest == [l for l in resumed.splitlines() if "digest=" in l]

    def test_resume_over_corrupt_journal_fails_in_one_line(
        self, capsys, tmp_path
    ):
        path = tmp_path / "fuzz.jsonl"
        for extra in ([], ["--adaptive", "--batch", "3"]):
            args = ["fuzz", "--seed", "2", "--count", "6",
                    "--journal", str(path)] + extra
            assert main(args) == 0
            lines = path.read_text().splitlines()
            lines[2] = "null"  # valid JSON, not an entry
            path.write_text("\n".join(lines) + "\n")
            capsys.readouterr()
            assert main(args + ["--resume"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("fuzz failed: journal ")
            assert "corrupt line 3" in err and "Traceback" not in err
            assert len(err.splitlines()) == 1

    def test_stream_prints_scenarios_live(self, capsys):
        assert main(
            ["fuzz", "--seed", "3", "--count", "4", "--stream"]
        ) == 0
        out = capsys.readouterr().out
        assert "[scenario 1/4]" in out and "[scenario 4/4]" in out

    def test_resumed_run_reports_restored_scenarios(self, capsys, tmp_path):
        path = str(tmp_path / "fuzz.jsonl")
        assert main(
            ["fuzz", "--seed", "2", "--count", "5", "--journal", path]
        ) == 0
        full = capsys.readouterr().out
        assert "engine:" in full and "restored" not in full
        assert main(
            ["fuzz", "--seed", "2", "--count", "5", "--journal", path,
             "--resume"]
        ) == 0
        resumed = capsys.readouterr().out
        assert "all 5 scenarios restored from journal" in resumed


def _lines(out, *prefixes):
    return [l for l in out.splitlines() if l.startswith(prefixes)]


class TestDefaultBackend:
    """``fuzz`` and ``sweep`` without ``--backend`` fan out over the CPUs
    this process may use, and print what the in-process run prints."""

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here"
    )
    def test_a_child_pinned_to_one_cpu_runs_in_process(self):
        def child(pinned):
            cpu = min(os.sched_getaffinity(0))
            return subprocess.run(
                [sys.executable, "-m", "repro", "fuzz", "--seed", "1",
                 "--count", "12"],
                env=dict(os.environ, PYTHONPATH=str(SRC)),
                capture_output=True, text=True, check=True,
                preexec_fn=(lambda: os.sched_setaffinity(0, {cpu}))
                if pinned else None,
            ).stdout

        pinned, free = child(True), child(False)
        assert "(inproc) ==" in pinned
        if len(os.sched_getaffinity(0)) > 1:
            assert "(parallel) ==" in free
        same = ("digest=", "engine: ")
        assert _lines(pinned, *same) == _lines(free, *same)
        assert len(_lines(free, *same)) == 2

    def test_jobs_without_backend_sizes_the_pool(self, capsys):
        fuzz = ["fuzz", "--seed", "1", "--count", "6"]
        assert main(fuzz + ["--backend", "inproc"]) == 0
        inproc = capsys.readouterr().out
        assert main(fuzz + ["--jobs", "3"]) == 0
        pooled = capsys.readouterr().out
        assert "(parallel) ==" in pooled
        same = ("digest=", "engine: ")
        assert _lines(pooled, *same) == _lines(inproc, *same)
        # One worker is no pool: the run stays in process.
        assert main(fuzz + ["--jobs", "1"]) == 0
        assert "(inproc) ==" in capsys.readouterr().out
        sweep = ["sweep", "e7", "--seeds", "3", "--param", "n=6"]
        assert main(sweep) == 0
        rows = capsys.readouterr().out
        assert main(sweep + ["--jobs", "3"]) == 0
        assert capsys.readouterr().out == rows

    @pytest.mark.parametrize("adaptive", [[], ["--adaptive", "--batch", "3"]])
    def test_journals_cross_between_the_pool_and_inproc(
        self, capsys, tmp_path, adaptive
    ):
        # A journal either one writes, cut after four lines, resumes on
        # both to the same digests and the same engine line. (The pool
        # records results in arrival order, so which four survive the
        # cut depends on the writer, not on the reader.)
        path = tmp_path / "fuzz.jsonl"
        fuzz = ["fuzz", "--seed", "2", "--count", "6", "--journal",
                str(path), *adaptive]
        backends = (["--backend", "inproc"], ["--jobs", "2"])
        same = ("digest=", "coverage=", "engine: ")
        for writer in backends:
            path.unlink(missing_ok=True)
            assert main(fuzz + writer) == 0
            full = capsys.readouterr().out
            assert "restored" not in full
            cut = "\n".join(path.read_text().splitlines()[:5]) + "\n"
            resumed = []
            for reader in backends:
                path.write_text(cut)
                assert main(fuzz + reader + ["--resume"]) == 0
                part = capsys.readouterr().out
                assert "scenarios restored from journal)" in part
                assert main(fuzz + reader + ["--resume"]) == 0
                whole = capsys.readouterr().out
                assert "engine: idle — all 6 scenarios restored" in whole
                resumed.append([_lines(out, *same) for out in (part, whole)])
                assert _lines(part, "digest=") == _lines(full, "digest=")
            assert resumed[0] == resumed[1]

    def test_a_job_raising_in_a_worker_is_one_line_and_no_worker(
        self, capsys, monkeypatch
    ):
        from repro.errors import SimulationError
        from repro.exec.executors import FORKS
        from repro.sim import multiworld

        if not FORKS:
            pytest.skip("workers are spawned: they would not see the patch")

        def boom(spec, collect):
            raise SimulationError(f"shard exploded in process {os.getpid()}")

        # Forked workers inherit the patch; only a worker runs a shard.
        monkeypatch.setattr(multiworld, "run_shard", boom)
        assert main(["fuzz", "--count", "6", "--jobs", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("fuzz failed: shard ") and "exploded" in err
        assert not err.endswith(f"process {os.getpid()}\n")
        assert len(err.splitlines()) == 1
        assert multiprocessing.active_children() == []


class TestFuzzAdaptive:
    def test_adaptive_prints_coverage_and_digest(self, capsys):
        assert main(
            ["fuzz", "--seed", "3", "--count", "8",
             "--adaptive", "--batch", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "adaptive" in out
        assert "batches: 2" in out
        assert "coverage=" in out
        assert "digest=" in out
        # One runner runs every batch, so its stats cover the campaign.
        engine = [l for l in out.splitlines() if l.startswith("engine: ")]
        assert len(engine) == 1
        assert re.fullmatch(r"engine: \d+ scheduler events", engine[0])

    def test_adaptive_replays_identically(self, capsys):
        args = ["fuzz", "--seed", "4", "--count", "6",
                "--adaptive", "--batch", "3"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert first == capsys.readouterr().out

    def test_adaptive_serial_backend_prints_same_digests(self, capsys):
        args = ["fuzz", "--seed", "4", "--count", "6",
                "--adaptive", "--batch", "3"]
        assert main(args) == 0
        inproc = capsys.readouterr().out
        assert main(args + ["--backend", "serial"]) == 0
        serial = capsys.readouterr().out
        for marker in ("coverage=", "digest="):
            assert [l for l in inproc.splitlines() if marker in l] == [
                l for l in serial.splitlines() if marker in l
            ]

    def test_adaptive_journal_then_resume_same_digest(self, capsys,
                                                      tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        args = ["fuzz", "--seed", "2", "--count", "6", "--adaptive",
                "--batch", "3", "--journal", path]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args + ["--resume"]) == 0
        resumed = capsys.readouterr().out
        assert [l for l in first.splitlines() if "digest=" in l] == [
            l for l in resumed.splitlines() if "digest=" in l
        ]
        assert "engine:" in first and "restored" not in first
        assert "all 6 scenarios restored from journal" in resumed
        # A kill mid-batch-1 (header + 4 results + batch 0's checkpoint).
        lines = Path(path).read_text().splitlines()
        Path(path).write_text("\n".join(lines[:5] + lines[7:8]) + "\n")
        assert main(args + ["--resume"]) == 0
        assert "(4 of 6 scenarios restored from journal)" in (
            capsys.readouterr().out
        )

    def test_resume_over_another_kind_of_journal_refused_in_one_line(
        self, capsys, tmp_path
    ):
        uniform = ["fuzz", "--seed", "2", "--count", "6"]
        adaptive = uniform + ["--adaptive", "--batch", "3"]
        path = tmp_path / "fuzz.jsonl"

        def refused(args):
            capsys.readouterr()
            assert main(args + ["--journal", str(path), "--resume"]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"fuzz failed: journal {path} was written "
                                  "for a different plan")
            assert err.endswith("delete it or drop --resume\n")
            assert len(err.splitlines()) == 1

        assert main(uniform + ["--journal", str(path)]) == 0
        refused(adaptive)
        assert main(adaptive + ["--journal", str(path)]) == 0
        refused(uniform)
        # The previous format bound an adaptive journal's header under
        # another key; such a file is refused, not misread.
        text = path.read_text()
        assert text.count('"plan": ') == 1
        path.write_text(text.replace('"plan": ', '"campaign": '))
        refused(adaptive)

    def test_batch_requires_adaptive(self, capsys):
        # Detection is by presence, so the default's value is refused too.
        for value in ("10", "50"):
            assert main(["fuzz", "--count", "2", "--batch", value]) == 2
            err = capsys.readouterr().err
            assert "--batch" in err and "--adaptive" in err

    def test_jobs_requires_the_parallel_backend(self, capsys):
        # --jobs had a real default (2), so it was silently dropped on
        # every other backend; detection is by presence now, so the old
        # default's value is refused too. Without --backend it sizes the
        # default's pool.
        fuzz = ["fuzz", "--count", "3", "--jobs", "2"]
        for backend in ("serial", "inproc", "remote"):
            assert main(fuzz + ["--backend", backend]) == 2, backend
            err = capsys.readouterr().err
            assert "--jobs" in err and "--backend parallel" in err
            assert len(err.splitlines()) == 1
        for value in ("0", "-3"):
            assert main(
                ["fuzz", "--count", "3", "--backend", "parallel",
                 "--jobs", value]
            ) == 2
            err = capsys.readouterr().err
            assert "--jobs" in err and ">= 1" in err
            assert len(err.splitlines()) == 1


class TestFuzzShrinkAndCorpus:
    @pytest.fixture()
    def seeded_finding(self, monkeypatch):
        # The random generators never draw the sabotage fault kinds, so
        # a real campaign is (by design) findings-free; plant one seeded
        # violation behind run_fuzz to exercise the shrink/corpus path.
        from repro.analysis import fuzz as fuzz_mod
        from repro.sim.failures import Fault

        scenario = fuzz_mod.Scenario(
            index=0, seed=9, n=5, protocol="sfs", t=2, quorum_size=None,
            delay=("constant", (0.4,)), detector=("none", ()),
            faults=(Fault("forge_failed", 2.0, 3, 3),),
            holds=(), partition=None, heal_at=None,
            chatter=((0.5, 0, 1, 0),), horizon=None,
        )
        outcome = fuzz_mod.run_scenario(scenario)
        assert outcome.findings

        def fake_run_fuzz(*, seed, count, **kwargs):
            return fuzz_mod.FuzzReport(
                seed=seed, count=count, outcomes=(outcome,)
            )

        monkeypatch.setattr(fuzz_mod, "run_fuzz", fake_run_fuzz)
        return outcome

    def test_shrink_prints_minimal_reproducer(self, capsys,
                                              seeded_finding):
        assert main(
            ["fuzz", "--seed", "9", "--count", "1", "--shrink"]
        ) == 1
        out = capsys.readouterr().out
        assert "-- shrink scenario 0 --" in out
        assert "forge_failed" in out
        assert "model:sFS2c" in out

    def test_corpus_writes_a_replayable_entry(self, capsys, tmp_path,
                                              seeded_finding):
        from repro.analysis.corpus import check_entry, load_corpus

        assert main(
            ["fuzz", "--seed", "9", "--count", "1",
             "--corpus", str(tmp_path)]
        ) == 1
        out = capsys.readouterr().out
        assert "corpus entry written:" in out
        (entry,) = load_corpus(tmp_path)
        assert entry.name == "fuzz-seed9-i0"
        ok, detail = check_entry(entry)
        assert ok, detail

    def test_shrink_is_a_noop_without_findings(self, capsys):
        assert main(
            ["fuzz", "--seed", "3", "--count", "4", "--shrink"]
        ) == 0
        assert "shrink" not in capsys.readouterr().out


class TestMonitorExecLayer:
    def test_journal_then_resume_replays_verdicts(self, capsys, tmp_path):
        path = str(tmp_path / "mon.jsonl")
        args = ["monitor", "cycle", "--seed", "1", "--journal", path]
        assert main(args) == 1
        first = capsys.readouterr().out
        assert "VIOLATED" in first
        # Resume: no re-simulation, identical verdict text and exit code.
        assert main(args + ["--resume"]) == 1
        resumed = capsys.readouterr().out
        assert first == resumed

    def test_resume_without_journal_fails_cleanly(self, capsys):
        assert main(["monitor", "demo", "--resume"]) == 1
        assert "monitor failed" in capsys.readouterr().err


class TestCycle:
    def test_cycle_construction(self, capsys):
        assert main(["cycle", "3"]) == 0
        out = capsys.readouterr().out
        assert "CYCLE of length 3" in out
        assert "no cycle" in out


class TestMonitor:
    def test_monitor_demo_conformant(self, capsys):
        assert main(["monitor", "demo", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "monitor demo" in out
        assert "sFS2b" in out

    def test_monitor_cycle_reports_violation(self, capsys):
        assert main(["monitor", "cycle", "--seed", "1"]) == 1
        out = capsys.readouterr().out
        assert "VIOLATED" in out
        assert "failed-before cycle" in out

    def test_monitor_stop_halts_early(self, capsys):
        assert main(["monitor", "e14", "--seed", "0", "--stop"]) == 1
        out = capsys.readouterr().out
        assert "halted at first violation" in out

    def test_monitor_verbose_streams_events(self, capsys):
        assert main(
            ["monitor", "cycle", "--seed", "1", "--verbose", "--stop"]
        ) == 1
        out = capsys.readouterr().out
        assert "[event " in out

    def test_monitor_unknown_scenario(self, capsys):
        assert main(["monitor", "nope"]) == 2
        assert "unknown monitored" in capsys.readouterr().err

    def test_monitor_bad_params_fail_cleanly(self, capsys):
        # n=4 violates Corollary 8 for the demo scenario's t=2: a clean
        # one-line error, not a BoundsError traceback.
        assert main(["monitor", "demo", "--n", "4"]) == 1
        assert "monitor failed" in capsys.readouterr().err

    def test_monitor_livelock_fails_cleanly(self, capsys):
        assert main(["monitor", "e14", "--max-events", "10"]) == 1
        assert "monitor failed" in capsys.readouterr().err


#: ``monitor <scenario> [--stop] --failure-model <model>`` -> (exit code,
#: sha256 of stdout). Every line of the verdict text is rendered from the
#: property machines (live lock-ins, summary, cycle), so a change to how
#: they are held or folded must leave these bytes alone.
MONITOR_GOLDEN = {
    ("demo", False, "fail-stop"): (
        0, "d904c1e4d9beb4d2450fb8dad83aac7a70a563769f7d521fe3cc911e50e238b7"),
    ("demo", False, "crash-recovery"): (
        0, "c10c299bf31ee52142362a4e00e9df8c028cc111bba27bef9e6f7ff5f2e40637"),
    ("demo", True, "fail-stop"): (
        0, "d904c1e4d9beb4d2450fb8dad83aac7a70a563769f7d521fe3cc911e50e238b7"),
    ("demo", True, "crash-recovery"): (
        0, "c10c299bf31ee52142362a4e00e9df8c028cc111bba27bef9e6f7ff5f2e40637"),
    ("cycle", False, "fail-stop"): (
        1, "c96acba94b93bdb0b73e9b6d30c531ae85163f4de5dc6463ef68760eee52efd2"),
    ("cycle", False, "crash-recovery"): (
        1, "fd36d46e1d354a4ffbc5bc40fc0ef4b028fdbb41a31629bbb91f466454910666"),
    ("cycle", True, "fail-stop"): (
        1, "eab60407867042ff0a3c0c6c8706ef0b98603f3dc87e1647f56fd5abc13492cd"),
    ("cycle", True, "crash-recovery"): (
        1, "cd031506c1449147eea266d25e4bb710938dcfec4102a143817eee70c6c3f0d2"),
    ("e14", False, "fail-stop"): (
        1, "c7490e79d4c2a3eeef01fc4fc0e707d1456e014eda82af9bfec5a4d90fdb02e3"),
    ("e14", False, "crash-recovery"): (
        1, "52055e4454e4751ebfc136460434af6963b3acca48ce669a7331e89b3cb2a8d7"),
    ("e14", True, "fail-stop"): (
        1, "0f0fe97afaffdc6a989fa43a1d0a8a9b43f97b6e669696a5da858dc7977d1529"),
    ("e14", True, "crash-recovery"): (
        1, "6b34e14718d047ad8858b2ff51022e1393bfe6f88982b83d23726d7c573d07a9"),
    ("benor", False, "fail-stop"): (
        0, "b7e4d693e28ae56761757c5d2b0a98f86c7560004373783b1c2be46a91c0bd52"),
    ("benor", False, "crash-recovery"): (
        0, "14e896a682f1f2ea35b21801ac6cb8994b89b60bb4af56f010d1f584e367f8da"),
    ("benor", True, "fail-stop"): (
        0, "b7e4d693e28ae56761757c5d2b0a98f86c7560004373783b1c2be46a91c0bd52"),
    ("benor", True, "crash-recovery"): (
        0, "14e896a682f1f2ea35b21801ac6cb8994b89b60bb4af56f010d1f584e367f8da"),
}

MONITOR_CYCLE_TEXT = """\
[event      1] t=   1.000  !! sFS2b VIOLATED by failed_1(0)
[event      1] t=   1.000  !! Conditions1-3 VIOLATED by failed_1(0)

== monitor cycle seed=0: 12 events ==
valid          ok
FS1            ok
FS2            VIOLATED (locked at event [0])
sFS2a          ok
sFS2b          VIOLATED (locked at event [1])
sFS2c          ok
sFS2d          ok
Conditions1-3  VIOLATED (locked at event [1])
bad pairs      7
sFS2b: failed-before cycle: 0 failed-before 1 , 1 failed-before 0
"""


class TestMonitorGolden:
    """The ``monitor`` command's stdout, byte for byte, on every scenario
    with and without ``--stop`` under two failure models."""

    @pytest.mark.parametrize(
        "scenario, stop, model",
        list(MONITOR_GOLDEN),
        ids=lambda value: {True: "stop", False: "run"}.get(value, value),
    )
    def test_stdout_is_pinned(self, scenario, stop, model, capsys):
        argv = ["monitor", scenario, "--failure-model", model]
        code = main(argv + ["--stop"] if stop else argv)
        out = capsys.readouterr().out
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (
            MONITOR_GOLDEN[scenario, stop, model]
        )

    def test_cycle_text_in_full(self, capsys):
        assert main(["monitor", "cycle"]) == 1
        assert capsys.readouterr().out == MONITOR_CYCLE_TEXT


class TestSweepEarlyStop:
    def test_sweep_early_stop_runs(self, capsys):
        assert main(
            ["sweep", "e14", "--seeds", "2", "--param", "n=6",
             "--early-stop"]
        ) == 0
        out = capsys.readouterr().out
        assert "early-stop" in out
        assert "violation_event_index" in out

    def test_sweep_early_stop_unsupported_driver(self, capsys):
        assert main(
            ["sweep", "e7", "--seeds", "1", "--param", "n=6",
             "--early-stop"]
        ) == 1
        err = capsys.readouterr().err
        assert "early_stop" in err


class TestReproCoreErrors:
    """A ``REPRO_CORE`` the process cannot honour is one line on stderr
    and exit code 2 from every subcommand, never a traceback."""

    @pytest.mark.parametrize("argv", [("version",), ("bounds", "5")])
    def test_invalid_value(self, argv):
        proc = run_python(SRC, "bogus", "-m", "repro", *argv)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            "repro: REPRO_CORE must be 'accel', 'pure', or unset, "
            "got 'bogus'\n"
        )

    def test_accel_without_a_built_extension(self, tmp_path):
        staged = stage_src(tmp_path, extension=False)
        proc = run_python(staged, "accel", "-m", "repro", "version")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith(
            "repro: REPRO_CORE=accel but the compiled core is unavailable"
        )
        assert proc.stderr.count("\n") == 1


class TestImportBudget:
    """A command imports what it runs. The package ``__init__``s are lazy
    namespaces and ``src/`` imports from defining submodules, so a fuzz
    run, a journal resume and a worker load neither the experiment
    drivers, the apps nor the remote fleet and its sockets — and no
    command loads networkx (~0.13 s and ~14 MB per process): the
    failed-before predicates are stdlib, and the one function that hands
    the relation out as a ``DiGraph``, ``failed_before_graph``, is
    called by nothing in ``src/``."""

    FUZZ = ("fuzz", "--seed", "0", "--count", "5")
    # The sweeps that judge the relation: is_acyclic (E7, E5) and
    # last_failed_candidates (E8).
    SWEEPS = (
        ("sweep", "e7", "--seeds", "2", "--param", "n=6"),
        ("sweep", "e8", "--seeds", "2"),
        ("sweep", "e5", "--seeds", "2"),
    )
    # Prefixes: none of these, nor a submodule of one, may be loaded.
    NEVER_ON_THE_FUZZ_PATH = (
        "repro.apps",
        *(f"repro.analysis.{name}" for name in (
            "experiments", "extensions", "checker", "sweep", "metrics",
            "report",
        )),
        "repro.exec.remote",
        *(f"repro.core.{name}" for name in (
            "indistinguishability", "runs", "semantics",
        )),
        "multiprocessing", "socket", "selectors", "subprocess", "platform",
        "networkx",
    )
    MAX_REPRO_MODULES = 54  # 68 with eager package __init__s, 52 without
    # Children run under the suite's own core (CI runs this class once
    # per core); the compiled core adds three modules to the count.
    CORE = os.environ.get("REPRO_CORE") or None

    def test_fuzz_and_journal_paths_leave_networkx_unimported(self, tmp_path):
        script = textwrap.dedent(f"""
            import contextlib, io, re, sys
            from repro.__main__ import main

            def loaded(*prefixes):
                return sorted(
                    name for name in sys.modules
                    if any(name == p or name.startswith(p + ".")
                           for p in prefixes)
                )

            def digest(argv):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    assert main(argv) == 0
                return re.search("^digest=(.+)$", out.getvalue(), re.M)[1]

            # The in-process path; the default fans out to a pool on a
            # machine with more than one usable CPU.
            fuzz = list({self.FUZZ!r}) + ["--backend", "inproc"]
            journaled = fuzz + ["--journal", sys.argv[1]]
            assert main(fuzz) == 0
            assert main(journaled) == 0
            assert main(journaled + ["--resume"]) == 0
            assert loaded(*{self.NEVER_ON_THE_FUZZ_PATH!r}) == []
            ours = loaded("repro")
            assert len(ours) <= {self.MAX_REPRO_MODULES}, ours
            # Control: the pool is still wired.
            pooled = digest(list({self.FUZZ!r}) + ["--jobs", "2"])
            assert pooled == digest(fuzz)
            assert loaded("multiprocessing")
        """)
        proc = run_python(
            SRC, self.CORE, "-c", script, str(tmp_path / "j.jsonl")
        )
        assert proc.returncode == 0, proc.stderr
        assert "all 5 scenarios restored from journal" in proc.stdout

    # The simulator half of a fuzz run (repro.analysis.fuzz_world and all
    # it imports), which a run that executes no job must not load.
    SIMULATOR = (
        *(f"repro.sim.{name}" for name in (
            "world", "network", "scheduler", "process", "multiworld",
        )),
        "repro.protocols",
        "repro.analysis.monitors",
    )
    MAX_REPRO_MODULES_ON_RESUME = 28

    @pytest.mark.parametrize("core", ["pure", "accel"])
    def test_a_complete_resume_and_a_fleet_coordinator_load_no_simulator(
        self, core, tmp_path, capsys
    ):
        """A ``fuzz --resume`` over a complete journal restores every
        outcome, and the coordinator of a remote fleet ships every job
        away: neither runs one, so neither loads what running one needs."""
        if core == "accel":
            pytest.importorskip("repro._accel._ccore")
        journal = str(tmp_path / "j.jsonl")
        fuzz = [*self.FUZZ, "--backend", "serial", "--journal", journal]
        assert main(fuzz) == 0
        digest = re.search("^digest=.+$", capsys.readouterr().out, re.M)[0]
        script = textwrap.dedent(f"""
            import sys
            from repro.__main__ import main

            def loaded(*prefixes):
                return sorted(
                    name for name in sys.modules
                    if any(name == p or name.startswith(p + ".")
                           for p in prefixes)
                )

            assert main({fuzz!r} + ["--resume"]) == 0
            assert loaded(*{self.SIMULATOR!r}) == []
            ours = loaded("repro")
            assert len(ours) <= {self.MAX_REPRO_MODULES_ON_RESUME}, ours
            fleet = ["--backend", "remote", "--workers", "2"]
            assert main({list(self.FUZZ)!r} + fleet) == 0
            assert loaded(*{self.SIMULATOR!r}) == []
        """)
        proc = run_python(SRC, core, "-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count(digest + "\n") == 2
        assert "(serial) ==" in proc.stdout and "(remote) ==" in proc.stdout

    def test_sweeps_that_judge_the_relation_leave_networkx_unimported(self):
        script = textwrap.dedent(f"""
            import sys
            from repro.__main__ import main

            for sweep in {self.SWEEPS!r}:
                assert main(list(sweep)) == 0
            assert "repro.analysis.experiments" in sys.modules
            assert "repro.apps.last_to_fail" in sys.modules
            assert "networkx" not in sys.modules
            # Control: the opt-in function still loads it, and its graph
            # is the pair list.
            from repro.core.events import failed
            from repro.core.failed_before import (
                failed_before_graph, failed_before_pairs,
            )
            from repro.core.history import History

            history = History([failed(1, 0), failed(2, 1)], n=4)
            graph = failed_before_graph(history)
            assert type(graph) is sys.modules["networkx"].DiGraph
            assert sorted(graph.nodes) == [0, 1, 2, 3]
            assert sorted(graph.edges) == [(0, 1), (1, 2)]
            assert sorted(graph.edges) == sorted(failed_before_pairs(history))
        """)
        proc = run_python(SRC, self.CORE, "-c", script)
        assert proc.returncode == 0, proc.stderr

    def test_a_worker_imports_no_simulator_before_its_first_job(self):
        """``import repro.exec.remote`` is all ``python -m repro worker``
        loads until a job names its runner."""
        proc = run_python(
            SRC, self.CORE, "-c",
            "import sys, repro.exec.remote\n"
            "print(*(name for name in sys.modules if name.startswith(("
            "'repro.analysis', 'repro.sim', 'repro.apps', 'networkx'))))",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == []

    def test_spawned_workers_run_with_networkx_unimportable(
        self, tmp_path, capsys
    ):
        """A worker's ``sys.modules`` cannot be read from here, so every
        process of the fleet gets a ``sitecustomize`` that turns any
        ``import networkx`` into an error; no run may notice, and every
        sweep prints the digest it prints in this (unblocked) process."""
        (tmp_path / "sitecustomize.py").write_text(
            "import sys\nsys.modules['networkx'] = None\n"
        )
        env = dict(
            os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), str(SRC)])
        )

        def blocked(*argv):
            return subprocess.run(
                [sys.executable, *argv],
                env=env, capture_output=True, text=True, cwd=tmp_path,
            )

        def digest_line(stdout):
            return [ln for ln in stdout.splitlines() if "digest=" in ln]

        fleet = ("--backend", "remote", "--workers", "2")
        remote = blocked("-m", "repro", *self.FUZZ, *fleet)
        assert remote.returncode == 0, remote.stderr
        assert "digest=" in remote.stdout
        for sweep in self.SWEEPS:
            assert main(list(sweep)) == 0
            expected = digest_line(capsys.readouterr().out)
            assert len(expected) == 1
            for backend in ((), fleet):
                proc = blocked("-m", "repro", *sweep, *backend)
                assert proc.returncode == 0, proc.stderr
                assert digest_line(proc.stdout) == expected, (sweep, backend)
        # Control: the block is live, and the one function that wants
        # the library says so in one line naming the extra.
        graph = blocked(
            "-c",
            "from repro.core.failed_before import failed_before_graph\n"
            "from repro.core.history import History\n"
            "from repro.errors import SimulationError\n"
            "try:\n"
            "    failed_before_graph(History([], n=2))\n"
            "except SimulationError as exc:\n"
            "    print(exc)\n",
        )
        assert graph.returncode == 0, graph.stderr
        assert len(graph.stdout.splitlines()) == 1
        assert "networkx" in graph.stdout and "repro[graph]" in graph.stdout
