"""Property tests: the execution layer cannot influence results.

The PR 5 contracts, stated over *random* inputs: for both sweep rows and
fuzz reports, the content digest is invariant under

* **executor choice** — serial, parallel, and inproc produce
  bit-identical results for the same plan;
* **chunk size** — the parallel pool's chunking is pure dispatch policy;
* **journal resume point** — a run killed after any number of completed
  cases and resumed from its journal reproduces the uninterrupted
  digest;
* **result arrival order** — an adversarial executor that completes jobs
  in any permutation still yields planned-order results, and sinks
  observe exactly that order.

These are the load-bearing guarantees of ``repro.exec``: everything the
executor decides (where, when, in what interleaving) must be invisible
in what it returns.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.fuzz import (
    DEFAULT_CONFIG,
    run_adaptive_fuzz,
    run_fuzz,
    scenario_job,
)
from repro.analysis.sweep import (
    case_to_job,
    plan_cases,
    rows_digest,
    run_sweep,
)
from repro.exec import CollectSink, Executor, run_job, run_jobs

seed_sets = st.lists(
    st.integers(min_value=0, max_value=50_000),
    min_size=1,
    max_size=3,
    unique=True,
)


class _PermutedExecutor(Executor):
    """Completes jobs in a hypothesis-chosen permutation of plan order."""

    name = "permuted"

    def __init__(self, shuffle_seed: int):
        self.shuffle_seed = shuffle_seed

    def submit(self, pending, on_result):
        import random

        order = list(pending)
        random.Random(self.shuffle_seed).shuffle(order)
        for index, job in order:
            on_result(index, run_job(job))


@settings(max_examples=4, deadline=None)
@given(seeds=seed_sets, chunksize=st.integers(min_value=1, max_value=8))
def test_sweep_digest_invariant_under_executor_and_chunksize(
    seeds, chunksize
):
    kwargs = dict(seeds=seeds, params={"n": 6})
    serial = run_sweep("e7", backend="serial", **kwargs)
    inproc = run_sweep("e7", backend="inproc", **kwargs)
    parallel = run_sweep(
        "e7", backend="parallel", jobs=2, chunksize=chunksize, **kwargs
    )
    assert rows_digest(serial) == rows_digest(inproc)
    assert rows_digest(serial) == rows_digest(parallel)


@settings(max_examples=4, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    count=st.integers(min_value=1, max_value=6),
)
def test_fuzz_digest_invariant_under_executor(seed, count):
    inproc = run_fuzz(seed=seed, count=count)
    serial = run_fuzz(seed=seed, count=count, backend="serial")
    assert inproc == serial
    assert inproc.digest() == serial.digest()


@settings(max_examples=5, deadline=None)
@given(
    seeds=seed_sets,
    cut=st.integers(min_value=0, max_value=10),
)
def test_sweep_digest_invariant_under_resume_point(tmp_path_factory, seeds, cut):
    """Kill the journal after ``cut`` completed cases; resume; same digest."""
    path = tmp_path_factory.mktemp("exec") / "sweep.jsonl"
    kwargs = dict(seeds=seeds, params={"n": 6})
    baseline = run_sweep("e7", **kwargs)
    full = run_sweep("e7", journal=path, **kwargs)
    assert rows_digest(full) == rows_digest(baseline)
    lines = path.read_text().splitlines()
    keep = 1 + min(cut, len(lines) - 1)  # header + cut result lines
    path.write_text("\n".join(lines[:keep]) + "\n")
    resumed = run_sweep("e7", journal=path, resume=True, **kwargs)
    assert rows_digest(resumed) == rows_digest(baseline)


def _adaptive(**kwargs):
    """An adaptive campaign of two-scenario batches: the unfolding plan
    as a third input next to the sweep and the uniform fuzz run."""
    return run_adaptive_fuzz(batch=2, **kwargs)


@settings(max_examples=6, deadline=None)
@given(
    run=st.sampled_from((run_fuzz, _adaptive)),
    seed=st.integers(min_value=0, max_value=10_000),
    count=st.integers(min_value=2, max_value=6),
    cut=st.integers(min_value=0, max_value=9),
)
def test_fuzz_digest_invariant_under_resume_point(
    tmp_path_factory, run, seed, count, cut
):
    path = tmp_path_factory.mktemp("exec") / "fuzz.jsonl"
    baseline = run(seed=seed, count=count)
    full = run(seed=seed, count=count, journal=path)
    assert full.digest() == baseline.digest()
    lines = path.read_text().splitlines()
    # header + cut result (adaptive: and coverage checkpoint) lines
    keep = 1 + min(cut, len(lines) - 1)
    path.write_text("\n".join(lines[:keep]) + "\n")
    resumed = run(seed=seed, count=count, journal=path, resume=True)
    assert resumed == baseline
    assert resumed.digest() == baseline.digest()


@settings(max_examples=5, deadline=None)
@given(
    seeds=seed_sets,
    shuffle_seed=st.integers(min_value=0, max_value=1_000_000),
)
def test_results_and_sink_order_invariant_under_arrival_order(
    seeds, shuffle_seed
):
    jobs = [case_to_job(c) for c in plan_cases("e7", seeds, {"n": 6})]
    sink = CollectSink()
    permuted = run_jobs(
        jobs, executor=_PermutedExecutor(shuffle_seed), sink=sink
    )
    ordered = run_jobs(jobs)
    assert permuted == ordered
    assert sink.results == permuted  # planned order, whatever the arrival

    flat_digest = rows_digest([row for rows in permuted for row in rows])
    baseline = rows_digest(run_sweep("e7", seeds=seeds, params={"n": 6}))
    assert flat_digest == baseline


@settings(max_examples=3, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    count=st.integers(min_value=1, max_value=5),
    shuffle_seed=st.integers(min_value=0, max_value=1_000_000),
)
def test_fuzz_outcomes_invariant_under_arrival_order(
    seed, count, shuffle_seed
):
    jobs = [scenario_job(seed, i, DEFAULT_CONFIG) for i in range(count)]
    permuted = run_jobs(jobs, executor=_PermutedExecutor(shuffle_seed))
    assert permuted == list(run_fuzz(seed=seed, count=count).outcomes)

    # The unfolding plan: every batch of an adaptive campaign arrives
    # permuted; sink order, outcomes and both digests do not move.
    baseline = _adaptive(seed=seed, count=count)
    sink = CollectSink()
    with mock.patch(
        "repro.analysis.fuzz.make_executor",
        return_value=_PermutedExecutor(shuffle_seed),
    ):
        permuted = _adaptive(
            seed=seed, count=count, backend="serial", sink=sink
        )
    assert sink.results == list(baseline.outcomes)
    assert permuted == baseline
    assert permuted.digest() == baseline.digest()


# ---------------------------------------------------------------------------
# PR 6: the failure-model axis is just data to the execution layer.
# Crash-recovery and byzantine-crash campaigns must be exactly as
# backend-, chunking-, and resume-invariant as fail-stop ones.

import dataclasses

from repro.analysis.fuzz import FuzzConfig

model_names = st.sampled_from(("crash-recovery", "byzantine-crash"))


def _model_config(model: str) -> FuzzConfig:
    return dataclasses.replace(DEFAULT_CONFIG, failure_model=model)


@settings(max_examples=4, deadline=None)
@given(
    model=model_names,
    seed=st.integers(min_value=0, max_value=10_000),
    count=st.integers(min_value=1, max_value=5),
)
def test_failure_model_fuzz_digest_invariant_under_executor(
    model, seed, count
):
    config = _model_config(model)
    inproc = run_fuzz(seed=seed, count=count, config=config)
    serial = run_fuzz(seed=seed, count=count, config=config, backend="serial")
    parallel = run_fuzz(
        seed=seed, count=count, config=config, backend="parallel", jobs=2
    )
    assert inproc.digest() == serial.digest()
    assert inproc.digest() == parallel.digest()


@settings(max_examples=3, deadline=None)
@given(
    model=model_names,
    seed=st.integers(min_value=0, max_value=10_000),
    count=st.integers(min_value=2, max_value=5),
    cut=st.integers(min_value=0, max_value=5),
)
def test_failure_model_fuzz_digest_invariant_under_resume_point(
    tmp_path_factory, model, seed, count, cut
):
    config = _model_config(model)
    path = tmp_path_factory.mktemp("exec") / "fuzz.jsonl"
    baseline = run_fuzz(seed=seed, count=count, config=config)
    full = run_fuzz(seed=seed, count=count, config=config, journal=path)
    assert full.digest() == baseline.digest()
    lines = path.read_text().splitlines()
    keep = 1 + min(cut, len(lines) - 1)
    path.write_text("\n".join(lines[:keep]) + "\n")
    resumed = run_fuzz(
        seed=seed, count=count, config=config, journal=path, resume=True
    )
    assert resumed == baseline
    assert resumed.digest() == baseline.digest()


@settings(max_examples=4, deadline=None)
@given(
    model=model_names,
    seed=st.integers(min_value=0, max_value=10_000),
    count=st.integers(min_value=1, max_value=4),
    shuffle_seed=st.integers(min_value=0, max_value=1_000_000),
)
def test_failure_model_fuzz_invariant_under_arrival_order(
    model, seed, count, shuffle_seed
):
    config = _model_config(model)
    jobs = [scenario_job(seed, i, config) for i in range(count)]
    permuted = run_jobs(jobs, executor=_PermutedExecutor(shuffle_seed))
    baseline = run_fuzz(seed=seed, count=count, config=config)
    assert permuted == list(baseline.outcomes)


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_fail_stop_default_config_unchanged_by_new_axis(seed):
    """The default-model scenario stream ignores the new field entirely:
    constructing the config with an explicit ``failure_model="fail-stop"``
    is bit-identical to the legacy implicit default."""
    explicit = dataclasses.replace(DEFAULT_CONFIG, failure_model="fail-stop")
    assert repr(explicit) == repr(DEFAULT_CONFIG)
    a = run_fuzz(seed=seed, count=3, config=explicit)
    b = run_fuzz(seed=seed, count=3)
    assert a.digest() == b.digest()
