"""Tests for JobSpec and kind resolution (repro.exec.job)."""

import gc
import pickle

import pytest

import toykinds
from repro.errors import SimulationError
from repro.exec import (
    JobSpec,
    job_digest,
    plan_digest,
    resolve_kind,
    run_job,
    shard_form,
)

SQUARE = "toykinds:square"


class TestJobSpec:
    def test_frozen_and_hashable(self):
        job = JobSpec(kind=SQUARE, spec_id="x", seed=3)
        with pytest.raises(AttributeError):
            job.seed = 4
        assert hash(job) == hash(JobSpec(kind=SQUARE, spec_id="x", seed=3))

    def test_param_lookup(self):
        job = JobSpec(
            kind=SQUARE, spec_id="x", seed=0,
            params=(("a", 1), ("b", "two"), ("a", 3)),
        )
        assert job.param("a") == 1  # first occurrence wins
        assert job.param("b") == "two"
        assert job.param("missing", "fallback") == "fallback"

    def test_pickle_round_trip(self):
        job = JobSpec(
            kind=SQUARE, spec_id="x", seed=7, params=(("n", (1, 2)),)
        )
        assert pickle.loads(pickle.dumps(job)) == job


class TestResolution:
    def test_resolve_and_run(self):
        assert resolve_kind(SQUARE) is toykinds.square
        assert run_job(JobSpec(kind=SQUARE, spec_id="x", seed=5)) == 25

    def test_resolution_is_cached(self):
        assert resolve_kind(SQUARE) is resolve_kind(SQUARE)

    @pytest.mark.parametrize(
        "kind", ["no-colon", ":attr", "module:", "nosuchmodule:fn"]
    )
    def test_bad_kinds_rejected(self, kind):
        with pytest.raises(SimulationError):
            resolve_kind(kind)

    def test_missing_attribute_rejected(self):
        with pytest.raises(SimulationError, match="no.*attribute"):
            resolve_kind("toykinds:nope")

    def test_non_callable_rejected(self):
        with pytest.raises(SimulationError, match="not callable"):
            resolve_kind("toykinds:not_callable")


class TestCollectorPause:
    """run_job pauses the cyclic collector for the job and hands the
    caller's collector state back, whatever the job did."""

    JOB = JobSpec(kind="toykinds:collector_enabled", spec_id="x", seed=0)

    @pytest.fixture(autouse=True)
    def _collector_on(self):
        assert gc.isenabled()  # pytest's default; the tests rely on it
        yield
        gc.enable()

    def test_paused_during_the_job_and_restored_after(self):
        assert run_job(self.JOB) is False
        assert gc.isenabled()

    def test_restored_after_a_raising_job(self):
        with pytest.raises(RuntimeError, match="boom on seed 3"):
            run_job(JobSpec(kind="toykinds:boom", spec_id="x", seed=3))
        assert gc.isenabled()

    def test_left_disabled_when_the_caller_had_it_disabled(self):
        gc.disable()
        assert run_job(self.JOB) is False
        assert not gc.isenabled()

    def test_nested_under_the_sharded_runner(self):
        from repro.protocols import SfsProcess
        from repro.sim import ShardedRunner, ShardSpec, build_world

        def collect(spec, world):
            # The inner pause must not re-enable the outer one on exit.
            return run_job(self.JOB), gc.isenabled()

        spec = ShardSpec(
            key=0, build=lambda: build_world(4, lambda: SfsProcess(t=1))
        )
        assert ShardedRunner().run([spec, spec], collect) == [
            (False, False), (False, False),
        ]
        assert gc.isenabled()


class TestShardForm:
    def test_plain_runner_has_none(self):
        assert shard_form(JobSpec(kind=SQUARE, spec_id="x", seed=0)) is None

    def test_fuzz_jobs_advertise_shards(self):
        from repro.analysis.fuzz import DEFAULT_CONFIG, scenario_job
        from repro.sim.multiworld import ShardSpec

        form = shard_form(scenario_job(0, 0, DEFAULT_CONFIG))
        assert form is not None
        spec, collect = form
        assert isinstance(spec, ShardSpec)
        assert callable(collect)


class TestDigests:
    def test_job_digest_is_content_stable(self):
        a = JobSpec(kind=SQUARE, spec_id="x", seed=1, params=(("n", 6),))
        b = JobSpec(kind=SQUARE, spec_id="x", seed=1, params=(("n", 6),))
        assert job_digest(a) == job_digest(b)

    def test_job_digest_distinguishes_fields(self):
        base = JobSpec(kind=SQUARE, spec_id="x", seed=1)
        assert job_digest(base) != job_digest(
            JobSpec(kind=SQUARE, spec_id="x", seed=2)
        )
        assert job_digest(base) != job_digest(
            JobSpec(kind=SQUARE, spec_id="y", seed=1)
        )

    def test_plan_digest_is_order_sensitive(self):
        jobs = [
            JobSpec(kind=SQUARE, spec_id="x", seed=s) for s in range(3)
        ]
        assert plan_digest(jobs) != plan_digest(list(reversed(jobs)))
        assert plan_digest(jobs) == plan_digest(list(jobs))
