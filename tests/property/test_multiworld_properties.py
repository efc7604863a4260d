"""Property tests: backend equivalence and fuzzer reproducibility.

The PR 4 contracts, stated over *random* inputs:

* for any seed set, the ``serial``, ``inproc``, and ``parallel`` sweep
  backends produce bit-identical row digests;
* a fuzz report is a pure function of ``(seed, config)`` — replaying
  reproduces it byte for byte, whatever the sharding policy.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.fuzz import FuzzConfig, generate_scenario, run_fuzz
from repro.analysis.sweep import rows_digest, run_sweep
from repro.sim.multiworld import ShardedRunner

seed_sets = st.lists(
    st.integers(min_value=0, max_value=50_000),
    min_size=1,
    max_size=3,
    unique=True,
)


@settings(max_examples=6, deadline=None)
@given(seeds=seed_sets)
def test_serial_and_inproc_digests_identical(seeds):
    kwargs = dict(seeds=seeds, params={"n": 6})
    serial = run_sweep("e7", backend="serial", **kwargs)
    inproc = run_sweep("e7", backend="inproc", **kwargs)
    assert serial == inproc
    assert rows_digest(serial) == rows_digest(inproc)


@settings(max_examples=4, deadline=None)
@given(seeds=seed_sets)
def test_parallel_and_inproc_digests_identical(seeds):
    kwargs = dict(seeds=seeds, params={"n": 6})
    parallel = run_sweep("e7", backend="parallel", jobs=2, **kwargs)
    inproc = run_sweep("e7", backend="inproc", **kwargs)
    assert rows_digest(parallel) == rows_digest(inproc)


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    index=st.integers(min_value=0, max_value=500),
    max_n=st.integers(min_value=3, max_value=10),
)
def test_scenario_generation_is_pure(seed, index, max_n):
    config = FuzzConfig(max_n=max_n)
    first = generate_scenario(seed, index, config)
    second = generate_scenario(seed, index, config)
    assert first == second
    assert repr(first) == repr(second)


@settings(max_examples=5, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    count=st.integers(min_value=1, max_value=8),
    quantum=st.integers(min_value=1, max_value=600),
)
def test_fuzz_report_reproducible_from_seed_and_config(seed, count, quantum):
    baseline = run_fuzz(seed=seed, count=count)
    replay = run_fuzz(
        seed=seed,
        count=count,
        runner=ShardedRunner(
            stepping="round_robin", quantum=quantum, window=2
        ),
    )
    sequential = run_fuzz(
        seed=seed, count=count,
        runner=ShardedRunner(stepping="sequential", quantum=quantum),
    )
    assert baseline == replay == sequential
    assert baseline.digest() == replay.digest() == sequential.digest()

