"""The execution core: plan in, deterministic ordered results out.

:func:`run_jobs` is the one fan-out loop in the repository. It takes an
ordered plan of :class:`~repro.exec.job.JobSpec` jobs — given whole, or
*unfolding* batch by batch from the results so far (the adaptive fuzz
campaign) — and an executor, and owns everything the former
per-subsystem loops each reimplemented:

* **checkpointing** — with a journal, every completed result is recorded
  as it lands; with ``resume``, journaled results are restored instead of
  re-executed, and the final list is bit-identical to an uninterrupted
  run's (pure jobs + exact restoration; see :mod:`repro.exec.journal`);
* **order laundering** — executors report completions in whatever order
  their engine produces them; the core buffers and releases the longest
  finished prefix, so sinks always observe planned order
  (:mod:`repro.exec.sink`);
* **collection** — the return value is the full result list in planned
  order, whatever backend ran it.

Sweep rows, fuzz outcomes, and monitored runs are all just payloads here.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Sequence

from repro.errors import SimulationError
from repro.exec.executors import Executor, SerialExecutor
from repro.exec.job import JobSpec, plan_digest
from repro.exec.journal import Journal
from repro.exec.sink import ResultSink

_UNSET = object()

Unfold = Callable[
    [Sequence[Any]], tuple[str | None, Sequence[JobSpec] | None]
]


def run_jobs(
    jobs: Sequence[JobSpec] = (),
    executor: Executor | None = None,
    sink: ResultSink | None = None,
    journal: Journal | str | Path | None = None,
    resume: bool = False,
    unfold: Unfold | None = None,
    binding: str | None = None,
    total: int | None = None,
) -> list[Any]:
    """Execute a plan; return its results in planned order.

    Args:
        jobs: the ordered plan. Order is part of the plan's identity —
            it is the result order, the sink's emission order, and the
            journal's plan digest.
        executor: engine to run on (default: :class:`SerialExecutor`).
        sink: optional streaming consumer; receives every result in
            planned order as the finished prefix grows, including
            results restored from a resumed journal.
        journal: optional checkpoint file (path or
            :class:`~repro.exec.journal.Journal`). Every completed job is
            recorded as it finishes.
        resume: restore journaled results instead of re-running their
            jobs. Requires ``journal``; the journal must match the plan.
        unfold: instead of ``jobs``, a plan whose next batch depends on
            the results so far. Called with every result so far (all
            complete, in planned order; first with none), it returns
            ``(checkpoint, batch)``: a digest of the caller's fold over
            those results for the journal to record or, on resume,
            verify (``None``: nothing to checkpoint), and the jobs
            planned next, contiguous after the results given (``None``:
            the plan is complete). Each batch runs to completion before
            the next is asked for.
        binding, total: with ``unfold``, what the journal header binds
            the file to (a digest of the inputs that determine every
            batch) and the number of jobs the plan will reach. A fixed
            plan is the one-batch case: ``plan_digest(jobs)`` and
            ``len(jobs)``.
    """
    if resume and journal is None:
        raise SimulationError("resume=True requires a journal")
    executor = executor if executor is not None else SerialExecutor()
    owned = isinstance(journal, (str, Path))
    log = Journal(journal) if owned else journal
    if unfold is None:
        fixed = iter([jobs])

        def unfold(results):
            return None, next(fixed, None)

        binding = plan_digest(jobs) if log is not None else None
        total = len(jobs)

    plan: list[JobSpec] = []  # the batches unfolded so far
    results: list[Any] = []

    # The emit cursor: results stream to the sink in planned order, each
    # released the moment it and everything before it is available.
    cursor = 0

    def release_prefix() -> None:
        nonlocal cursor
        if sink is None:
            return
        while cursor < len(plan) and results[cursor] is not _UNSET:
            sink.emit(cursor, plan[cursor], results[cursor])
            cursor += 1

    def on_result(index: int, result: Any) -> None:
        results[index] = result
        if log is not None:
            log.record(index, plan[index], result)
        release_prefix()

    # The outer try owns the journal handle from the moment open()
    # opens it: a sink whose open() raises, a job exception, or a sink
    # error mid-run must all still close an owned journal (the flushed
    # lines it already holds are a valid resumable checkpoint either
    # way).
    try:
        if log is not None:
            log.open(binding, total, resume=resume)
        if sink is not None:
            # close() pairs with a *successful* open, so the inner try
            # starts only after it.
            sink.open(total)
        try:
            number = 0  # of the batch about to run
            while True:
                start = len(plan)
                checkpoint, batch = unfold(results)
                if checkpoint is not None and log is not None:
                    log.checkpoint(number - 1, start, checkpoint)
                if batch is None:
                    break
                plan.extend(batch)
                results.extend([_UNSET] * len(batch))
                if log is not None:
                    for index, result in log.restored(batch, start).items():
                        results[index] = result
                release_prefix()  # journaled results are already available
                pending = [
                    (index, job)
                    for index, job in enumerate(batch, start)
                    if results[index] is _UNSET
                ]
                executor.submit(pending, on_result)
                missing = [i for i, _ in pending if results[i] is _UNSET]
                if missing:
                    raise SimulationError(
                        f"executor {executor.name!r} completed without "
                        f"reporting {len(missing)} job(s) "
                        f"(first: {missing[0]})"
                    )
                number += 1
        finally:
            if sink is not None:
                sink.close()
    finally:
        if log is not None and owned:
            log.close()
    return results
