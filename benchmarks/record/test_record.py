"""Self-test of the benchmark of record, at tiny sizes.

Runs the same runner code the driver runs — real ``python -m repro``
children, the staged in-process pass, every probe — against the package
the test interpreter already imports (no staging, no build), and checks
the benchmark's own contract: every workload and metric named in
``BENCHMARK.json`` is emitted with its unit, spans nest, exact counts
repeat, and a wrong digest pin fails the run.
"""

from __future__ import annotations

import copy
import json
import os
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run as record  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads(record.SPEC.read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("record")
    path, pythonpath = list(sys.path), os.environ.get("PYTHONPATH")
    children_before = set(record.surviving_children())
    env = record.make_env(record.ROOT / "src", tmp / "scratch")
    session = record.Session(
        env, out=tmp, pins={}, tiny=True, noop_jobs=20, startup_samples=1
    )
    yield session
    # Every child, pool and remote fleet the runner started is gone.
    assert set(record.surviving_children()) <= children_before
    sys.path[:] = path
    if pythonpath is None:
        del os.environ["PYTHONPATH"]
    else:
        os.environ["PYTHONPATH"] = pythonpath


@pytest.fixture(scope="module")
def results(session):
    """Every workload once each way: ``{name: (end_to_end, traced)}``."""
    return {
        name: (session.end_to_end(name, 3, 0.0, setup_s=0.5),
               session.traced(name, 3))
        for name in WORKLOADS
    }


def test_benchmark_json_names_the_workloads_that_exist():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["paths"] == ["benchmarks/record"]
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)


def test_every_named_metric_is_emitted_with_its_unit(session, results):
    for name, pair in results.items():
        for result, kind in zip(pair, ("end_to_end", "per_layer")):
            assert result["correct"], (name, result["problems"])
            assert result["failed"] == 0 < result["attempted"]
            assert all(NAME.match(metric) for metric in result["metrics"])
            line = json.loads(session.contract_line(result))
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert list(line["metrics"]) == [m["name"] for m in SPEC[kind]]
            for metric in SPEC[kind]:
                emitted = line["metrics"][metric["name"]]
                assert emitted["unit"] == metric["unit"], (name, metric)
                assert isinstance(emitted["value"], (int, float))
        assert all(m["value"] > 0 for m in pair[0]["metrics"].values())


def test_workload_specific_layers_are_in_the_table(results):
    def layers_of(name):
        return set(results[name][1]["metrics"])

    assert {"fuzz.generate.s", "fuzz.build_world.s", "fuzz.judge.s",
            "fuzz.digest.s"} <= layers_of("fuzz_small_worlds")
    assert {"fuzz.generate_weighted.us_per_job", "adaptive.batches",
            "adaptive.batch_run.s", "adaptive.batch_gap.s",
            "coverage.add_outcome.us_per_job",
            "coverage.derive_weights.us_per_batch"
            } <= layers_of("fuzz_adaptive")
    assert {"sweep.plan.s", "sweep.run_case.s", "sweep.run_case.ms_p50",
            "sweep.run_case.ms_p90", "sweep.digest.s", "sweep.table.s",
            "runtime.gc.s"} <= layers_of("sweep_large_n")
    assert {"exec.remote.fleet_up.s", "exec.remote.steady.s",
            "exec.remote.fleet_down.s", "exec.remote.cpu_over_serial"
            } <= layers_of("fuzz_remote")
    assert results["fuzz_adaptive"][1]["counts"]["batches"] == 3


def test_exact_counts_repeat_between_passes(results):
    # The end-to-end run and the traced run each make their own staged
    # pass over the plan; the counts they take must agree exactly.
    for name, (end_to_end, traced) in results.items():
        repeated = {k: traced["counts"][k] for k in end_to_end["counts"]}
        assert repeated == end_to_end["counts"], name
        assert end_to_end["counts"]["engine_events"] > 0


def test_spans_nest_under_their_job_and_workload(session, results):
    trace = json.loads((session.out / "trace.json").read_text())
    spans = {span["id"]: span for span in trace["spans"]}
    assert trace["workload"] == list(WORKLOADS)[-1]
    jobs_seen = set()
    for span in spans.values():
        assert span["start"] <= span["end"]
        if span["job"] is None:
            continue
        chain = []
        parent = span
        while parent is not None:
            chain.append(parent["name"])
            # A child lies inside its parent and shares its job.
            up = spans.get(parent["parent"])
            if up is not None:
                assert up["start"] <= parent["start"]
                assert parent["end"] <= up["end"]
                assert up["job"] in (None, span["job"])
            parent = up
        assert "job" in chain and chain[-1] == "workload", chain
        jobs_seen.add(span["job"])
    assert jobs_seen == set(range(WORKLOADS["journal_resume"].tiny["jobs"]))


def test_a_wrong_digest_pin_fails_the_run(session, capsys):
    wrong = copy.copy(session)
    wrong.pins = {"fuzz_small_worlds": {"3": {"digest": "0" * 64}}}
    result = wrong.end_to_end("fuzz_small_worlds", 3, 0.0, setup_s=0.5)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert any("pin" in problem for problem in result["problems"])
    assert record.report(wrong, [result], contract=True) != 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] > 0


def test_compare_judges_and_refuses(results):
    # Three seeds a side (the same measurements under three seed labels):
    # fewer pairs than that can clear a metric but not convict it.
    runs = [dict(result, seed=seed) for seed in (3, 4, 5)
            for pair in results.values() for result in pair]
    base = {"tags": runs[0]["tags"], "runs": runs}
    assert compare.refusal(base, base) is None
    assert {row[-1] for row in compare.verdicts(base, base, SPEC)} == {"ok"}

    def verdict_of(change):
        return {(row[0], row[1]): row[-1]
                for row in compare.verdicts(base, change, SPEC)}

    slower = copy.deepcopy(base)
    for run in slower["runs"]:
        if run["workload"] == "fuzz_default" and not run["trace"]:
            run["metrics"]["wall_s"]["value"] *= 2
            run["metrics"]["engine_events_per_ref"]["value"] /= 2
    assert verdict_of(slower)["fuzz_default", "wall_s"] == "regressed"
    assert verdict_of(slower)["fuzz_default",
                              "engine_events_per_ref"] == "regressed"
    assert verdict_of(slower)["fuzz_default", "cpu_s"] == "ok"
    assert verdict_of(slower)["fuzz_remote", "wall_s"] == "ok"

    one_pair = {"tags": base["tags"], "runs": runs[:len(runs) // 3]}
    one_slower = copy.deepcopy(one_pair)
    one_slower["runs"][0]["metrics"]["wall_s"]["value"] *= 2
    assert "unresolved" in {
        row[-1] for row in compare.verdicts(one_pair, one_slower, SPEC)
    }

    other_core = copy.deepcopy(base)
    other_core["tags"] = dict(base["tags"], core="other")
    assert "core" in compare.refusal(base, other_core)
    other_work = copy.deepcopy(base)
    other_work["runs"][0]["counts"]["engine_events"] += 1
    assert "exact counts" in compare.refusal(base, other_work)
