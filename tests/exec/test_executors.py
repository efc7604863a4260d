"""Tests for the executor registry and the run_jobs core."""

import multiprocessing
import os

import pytest

from repro.errors import SimulationError
from repro.exec import (
    CollectSink,
    Executor,
    InprocExecutor,
    JobSpec,
    ParallelExecutor,
    SerialExecutor,
    make_executor,
    run_job,
    run_jobs,
)

SQUARE = "toykinds:square"


def _plan(n=6):
    return [JobSpec(kind=SQUARE, spec_id="sq", seed=s) for s in range(n)]


class _ReversedExecutor(Executor):
    """Completes jobs in reverse plan order — the arrival-order adversary."""

    name = "reversed"

    def submit(self, pending, on_result):
        for index, job in reversed(list(pending)):
            on_result(index, run_job(job))


class TestExecutors:
    def test_registry_names(self):
        assert make_executor("serial").name == "serial"
        assert make_executor("parallel", workers=2).name == "parallel"
        assert make_executor("inproc").name == "inproc"
        assert make_executor("remote").name == "remote"

    def test_unknown_backend_rejected(self):
        with pytest.raises(SimulationError, match="backend"):
            make_executor("quantum")

    def test_remote_workers_rejected_off_backend(self):
        for backend in ("serial", "parallel", "inproc"):
            with pytest.raises(SimulationError, match="remote"):
                make_executor(backend, remote_workers=2)

    def test_remote_rejects_run_override(self):
        with pytest.raises(SimulationError, match="run override"):
            make_executor("remote", run=lambda job: None)

    def test_effective_backend_normalisation(self):
        from repro.exec import effective_backend

        # A pool needs both >1 job and >1 worker to pay for itself.
        assert effective_backend("parallel", 1, 8) == "serial"
        assert effective_backend("parallel", 8, 1) == "serial"
        assert effective_backend("parallel", 8, 2) == "parallel"
        # Everything else — including unknown names — passes through.
        assert effective_backend("serial", 1, 1) == "serial"
        assert effective_backend("inproc", 1, 1) == "inproc"
        assert effective_backend("gpu", 9, 9) == "gpu"

    def test_all_backends_equal_results(self):
        jobs = _plan()
        expected = [s * s for s in range(6)]
        assert run_jobs(jobs, executor=SerialExecutor()) == expected
        assert run_jobs(jobs, executor=InprocExecutor()) == expected
        with ParallelExecutor(workers=2) as executor:
            assert run_jobs(jobs, executor=executor) == expected

    def test_parallel_chunksize_is_invisible(self):
        jobs = _plan(7)
        expected = [s * s for s in range(7)]
        for chunksize in (1, 2, 5, 50):
            with ParallelExecutor(workers=3, chunksize=chunksize) as executor:
                assert run_jobs(jobs, executor=executor) == expected

    @pytest.mark.parametrize("workers", [0, -3])
    def test_parallel_refuses_a_worker_count_below_one(self, workers):
        # It used to clamp to one worker, so a caller's 0 or -3 ran
        # silently serial.
        with pytest.raises(SimulationError, match=f"workers .* {workers}"):
            make_executor("parallel", workers=workers)

    def test_serial_run_override(self):
        seen = []

        def spy(job):
            seen.append(job.seed)
            return -job.seed

        results = run_jobs(_plan(3), executor=SerialExecutor(run=spy))
        assert results == [0, -1, -2]
        assert seen == [0, 1, 2]

    def test_parallel_rejects_run_override(self):
        # inproc too: a job it runs whole goes to run_job, as a shard
        # form's world goes to the runner — neither is a seam for one.
        for backend in ("parallel", "inproc"):
            with pytest.raises(SimulationError, match="run override"):
                make_executor(backend, run=lambda job: None)
        with pytest.raises(TypeError):
            InprocExecutor(run=lambda job: None)

    def test_errors_propagate(self):
        jobs = [JobSpec(kind="toykinds:boom", spec_id="b", seed=1)]
        with pytest.raises(RuntimeError, match="boom on seed 1"):
            run_jobs(jobs, executor=SerialExecutor())

    def test_inproc_mixes_whole_jobs_under_pool(self):
        # square has no shard form, so inproc takes the whole-job path.
        assert run_jobs(_plan(4), executor=InprocExecutor()) == [0, 1, 4, 9]

    def test_empty_plan(self):
        # remote included: its submit() returns before connecting
        # anything when there is nothing to run.
        for backend in ("serial", "parallel", "inproc", "remote"):
            assert run_jobs([], executor=make_executor(backend)) == []


class TestRunJobsCore:
    def test_sink_sees_planned_order_despite_reversed_arrival(self):
        sink = CollectSink()
        results = run_jobs(_plan(5), executor=_ReversedExecutor(), sink=sink)
        assert results == [s * s for s in range(5)]
        assert sink.results == results  # emitted 0,1,2,... not 4,3,2,...
        assert sink.total == 5
        assert sink.closed

    def test_sink_closed_on_error(self):
        sink = CollectSink()
        jobs = [JobSpec(kind="toykinds:boom", spec_id="b", seed=0)]
        with pytest.raises(RuntimeError):
            run_jobs(jobs, executor=SerialExecutor(), sink=sink)
        assert sink.closed

    def test_resume_requires_journal(self):
        with pytest.raises(SimulationError, match="requires a journal"):
            run_jobs(_plan(1), resume=True)

    def test_missing_result_detected(self):
        class Lazy(Executor):
            name = "lazy"

            def submit(self, pending, on_result):
                for index, job in list(pending)[:-1]:
                    on_result(index, run_job(job))

        with pytest.raises(SimulationError, match="without reporting"):
            run_jobs(_plan(3), executor=Lazy())

    def test_resume_skips_journaled_jobs(self, tmp_path):
        path = tmp_path / "j.jsonl"
        jobs = _plan(6)
        run_jobs(jobs, journal=path)
        ran = []

        def spy(job):
            ran.append(job.seed)
            return run_job(job)

        # Fully journaled: nothing re-runs, results restored exactly.
        results = run_jobs(
            jobs, executor=SerialExecutor(run=spy),
            journal=path, resume=True,
        )
        assert results == [s * s for s in range(6)]
        assert ran == []

    def test_resume_sink_includes_restored_results(self, tmp_path):
        path = tmp_path / "j.jsonl"
        jobs = _plan(4)
        run_jobs(jobs, journal=path)
        sink = CollectSink()
        run_jobs(jobs, journal=path, resume=True, sink=sink)
        assert sink.total == 4
        assert sink.results == [0, 1, 4, 9]

    def test_default_executor_is_serial(self):
        assert run_jobs(_plan(3)) == [0, 1, 4]


class TestPoolLifetime:
    """One pool per executor: opened by the first batch, reused by every
    later one, gone once the executor is closed — on every exit path."""

    def test_one_pool_serves_every_batch_until_closed(self):
        with ParallelExecutor(workers=2, chunksize=1) as executor:
            pids = set()
            for start in (0, 10, 20):
                pids.update(run_jobs(
                    [JobSpec(kind="toykinds:pid", spec_id="p", seed=s)
                     for s in range(start, start + 10)],
                    executor=executor,
                ))
            assert os.getpid() not in pids and 0 < len(pids) <= 2
        assert multiprocessing.active_children() == []
        executor.close()  # idempotent

    def test_a_job_raising_in_a_worker_leaves_no_worker(self):
        jobs = _plan(5) + [JobSpec(kind="toykinds:boom", spec_id="b", seed=9)]
        with pytest.raises(RuntimeError, match="boom on seed 9"):
            with ParallelExecutor(workers=2) as executor:
                run_jobs(jobs, executor=executor)
        assert multiprocessing.active_children() == []

    def test_an_unclosed_executor_is_reaped_when_collected(self):
        executor = ParallelExecutor(workers=2)
        assert run_jobs(_plan(4), executor=executor) == [0, 1, 4, 9]
        assert multiprocessing.active_children()
        del executor
        assert multiprocessing.active_children() == []

    def test_the_pool_counts_shard_form_jobs_like_inproc(self):
        from repro.analysis.fuzz import DEFAULT_CONFIG, scenario_job
        from repro.sim.multiworld import RunnerStats, ShardedRunner

        jobs = [scenario_job(3, index, DEFAULT_CONFIG) for index in range(6)]
        runner = ShardedRunner()
        inproc = run_jobs(jobs, executor=InprocExecutor(runner=runner))
        stats = RunnerStats()
        with ParallelExecutor(workers=2, stats=stats) as executor:
            assert run_jobs(jobs, executor=executor) == inproc
        assert (stats.shards, stats.events) == (
            runner.stats.shards, runner.stats.events,
        )
        # Jobs without a shard form run whole and count nothing.
        with ParallelExecutor(workers=2, stats=stats) as executor:
            run_jobs(_plan(4), executor=executor)
        assert stats.shards == runner.stats.shards


class TestDefaultBackend:
    def test_the_pool_needs_two_jobs_and_two_workers(self):
        from repro.exec import default_backend

        assert default_backend("inproc", 8, 3) == ("parallel", 3)
        assert default_backend("serial", 8, 1) == ("serial", 1)
        assert default_backend("inproc", 1, 4) == ("inproc", 1)
        assert default_backend("serial", 0) == ("serial", 1)

    @pytest.mark.parametrize(
        "cpus, n_jobs, expected",
        # A pool gets at least MIN_JOBS_PER_WORKER (4) jobs a worker.
        [({0}, 50, ("inproc", 1)),
         ({0, 1, 2, 3}, 50, ("parallel", 4)),
         ({0, 1, 2, 3}, 12, ("parallel", 3)),
         ({0, 1, 2, 3}, 7, ("inproc", 1)),
         ({0, 1, 2, 3}, 1, ("inproc", 1))],
    )
    def test_workers_default_to_the_usable_cpus(
        self, monkeypatch, cpus, n_jobs, expected
    ):
        from repro.exec import executors

        monkeypatch.setattr(executors, "FORKS", True)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus,
                            raising=False)
        assert executors.default_backend("inproc", n_jobs) == expected
        # Where the pool would spawn, nothing fans out on its own.
        monkeypatch.setattr(executors, "FORKS", False)
        assert executors.default_backend("inproc", n_jobs) == ("inproc", 1)
