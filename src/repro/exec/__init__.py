"""The unified execution layer: deterministic fan-out for the whole repo.

Everything in this repository that runs *many independent simulations* —
multi-seed sweeps (:mod:`repro.analysis.sweep`), generated fuzz scenarios
(:mod:`repro.analysis.fuzz`), monitored CLI runs — describes its work as
frozen :class:`JobSpec` jobs and hands the plan to :func:`run_jobs` —
whole, or (the adaptive fuzz campaign) as a callable that unfolds the
next batch from the results so far. One core owns planning-order results,
executor dispatch, streaming delivery, and checkpoint/resume; the
subsystems are thin planners over it.

The pieces, and where they live:

========================  ==================================================
:class:`JobSpec`          one pure unit of work (``repro.exec.job``)
:class:`Executor`         serial / parallel / inproc / remote engines
                          (``repro.exec.executors``,
                          ``repro.exec.remote``)
:class:`ResultSink`       in-order streaming consumers (``repro.exec.sink``)
:class:`Journal`          the one JSONL checkpoint/resume log
                          (``repro.exec.journal``)
:func:`run_jobs`          the one fan-out loop (``repro.exec.core``)
========================  ==================================================

Design invariant, inherited from the paper's methodology: every job is a
pure function of its spec, so *nothing* in this layer — backend choice,
chunking, shard stepping, a kill and resume, sink attachment — can change
a result, only when and where it is computed. The tests pin that down as
bit-identical digests across every axis. A lazy namespace
(:mod:`repro._lazy`): ``repro.exec.remote`` — sockets, worker processes, the
detectors — loads when one of its four names is first read, not before.
"""

from repro._lazy import lazy_namespace

__getattr__, __dir__ = lazy_namespace(globals(), {
    "run_jobs": "core",
    "EXEC_BACKENDS": "executors",
    "Executor": "executors",
    "InprocExecutor": "executors",
    "ParallelExecutor": "executors",
    "SerialExecutor": "executors",
    "default_backend": "executors",
    "effective_backend": "executors",
    "make_executor": "executors",
    "JobSpec": "job",
    "job_digest": "job",
    "plan_digest": "job",
    "resolve_kind": "job",
    "run_job": "job",
    "shard_form": "job",
    "Journal": "journal",
    "RemoteExecutor": "remote",
    "RemoteStats": "remote",
    "parse_worker_spec": "remote",
    "run_worker": "remote",
    "CollectSink": "sink",
    "ResultSink": "sink",
})

__all__ = [
    "JobSpec",
    "job_digest",
    "plan_digest",
    "resolve_kind",
    "run_job",
    "shard_form",
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "InprocExecutor",
    "RemoteExecutor",
    "RemoteStats",
    "parse_worker_spec",
    "run_worker",
    "EXEC_BACKENDS",
    "default_backend",
    "effective_backend",
    "make_executor",
    "ResultSink",
    "CollectSink",
    "Journal",
    "run_jobs",
]
