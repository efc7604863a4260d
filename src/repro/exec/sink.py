"""Result sinks: where finished job results stream, in deterministic order.

The execution core (:func:`repro.exec.core.run_jobs`) delivers every
result to a :class:`ResultSink` **in planned job order** — index 0, then
1, then 2 — regardless of the order the executor actually completed them
in. Delivery is *streaming*: a result is emitted the moment it and every
result before it are available, so a consumer watching the sink sees the
longest finished prefix grow live while later jobs are still running.
That ordering contract is what lets a live consumer (the CLI's
``--stream`` mode today, a dashboard over a socket tomorrow) render
partial output that is already final — nothing it has seen can be
reordered or retracted by later completions.

Sinks are synchronous and must not raise: a sink failure would otherwise
abort a long computation whose results are themselves fine. Exceptions
from :meth:`ResultSink.emit` are deliberately *not* swallowed here —
a crashing consumer is a bug to surface, not to hide — but sinks that
wrap fragile I/O should catch their own errors.
"""

from __future__ import annotations

from typing import Any

from repro.exec.job import JobSpec


class ResultSink:
    """Receives results in planned order, as their prefix completes.

    Lifecycle: ``open(total)`` once, then exactly ``total`` calls to
    ``emit(index, job, result)`` with strictly increasing ``index``,
    then ``close()`` once — also on error, so sinks may release
    resources unconditionally.
    """

    def open(self, total: int) -> None:
        """Called once before any result, with the emission count."""

    def emit(self, index: int, job: JobSpec, result: Any) -> None:
        """Called once per job, in strictly increasing index order."""

    def close(self) -> None:
        """Called once after the last result (or on abort)."""


class CollectSink(ResultSink):
    """Accumulates results in a list (planned order, by construction)."""

    def __init__(self) -> None:
        self.results: list[Any] = []
        self.total: int | None = None
        self.closed = False

    def open(self, total: int) -> None:
        self.total = total

    def emit(self, index: int, job: JobSpec, result: Any) -> None:
        del index, job
        self.results.append(result)

    def close(self) -> None:
        self.closed = True
