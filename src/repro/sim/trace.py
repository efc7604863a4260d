"""Trace recording: the bridge from simulation to the formal model.

The simulator executes; the :class:`TraceRecorder` writes down what happened
as :mod:`repro.core` events, in execution order, with virtual timestamps on
the side. Everything the library proves or measures about a run — Figure 1
conformance, failed-before cycles, the Theorem 5 witness, latency metrics —
is computed from this recording, never from simulator internals.

Recording rides on :class:`~repro.core.history.HistoryBuilder`, so the
send/recv/crash/failed indices and vector clocks grow in O(delta) per event
and :meth:`TraceRecorder.history` hands out a cache-seeded
:class:`~repro.core.history.History` without any O(len) recomputation —
the long-run regime (100k+ events) stays linear end to end
(``tests/sim/test_trace_clock.py`` counts zero rebuilds on an n=64
run). The time-of-event queries below are
index lookups against the same incremental state, not scans.

Quorum sets (Definition 5) are also recorded here, because they are
protocol-level bookkeeping that the Witness Property checker (Theorem 6)
needs but the pure event alphabet does not carry.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.events import (
    CrashEvent,
    Event,
    FailedEvent,
    InternalEvent,
    RecoverEvent,
    RecvEvent,
    SendEvent,
)
from repro.core.history import History, HistoryBuilder
from repro.core.messages import Message
from repro.core.quorum import QuorumRecord


@dataclass(frozen=True)
class TimedEvent:
    """An event plus the virtual time at which it executed."""

    time: float
    event: Event


class TraceRecorder:
    """Accumulates the events of one simulated run."""

    def __init__(self, n: int):
        self._n = n
        self._builder = HistoryBuilder(n)
        self._times: list[float] = []
        self._quorums: list[QuorumRecord] = []
        self._quorums_view: tuple[QuorumRecord, ...] | None = ()
        self._internal_seq: dict[tuple[int, object], int] = {}

    def attach_observer(self, observer) -> None:
        """Stream ``(index, event, vector)`` to ``observer`` per recording.

        Passes straight through to the underlying
        :meth:`~repro.core.history.HistoryBuilder.attach_observer`, so
        analyze-on-append monitors see every recorded event exactly once,
        with zero extra passes over the trace.
        """
        self._builder.attach_observer(observer)

    def detach_observers(self) -> None:
        """Drop all attached observers (see ``HistoryBuilder``); the
        recording itself stays fully readable."""
        self._builder.detach_observers()

    @property
    def n(self) -> int:
        """Number of processes in the recorded system."""
        return self._n

    def __len__(self) -> int:
        return len(self._builder)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _record(self, time: float, event: Event) -> Event:
        # Time first: builder observers fire inside append and may ask
        # for the virtual time of the event they are being shown.
        self._times.append(time)
        self._builder.append_one(event)
        return event

    def record_send(self, time: float, src: int, dst: int, msg: Message) -> Event:
        """``send_src(dst, msg)``."""
        return self._record(time, SendEvent(src, dst, msg))

    def record_recv(self, time: float, dst: int, src: int, msg: Message) -> Event:
        """``recv_dst(src, msg)`` — recorded at *consumption* time."""
        return self._record(time, RecvEvent(dst, src, msg))

    def record_crash(self, time: float, proc: int) -> Event:
        """``crash_proc``."""
        return self._record(time, CrashEvent(proc))

    def record_recover(self, time: float, proc: int, incarnation: int) -> Event:
        """``recover_proc`` — crash-recovery model only."""
        return self._record(time, RecoverEvent(proc, incarnation))

    def record_failed(self, time: float, detector: int, target: int) -> Event:
        """``failed_detector(target)``."""
        return self._record(time, FailedEvent(detector, target))

    def record_internal(self, time: float, proc: int, label: object) -> Event:
        """A tagged application step, auto-sequenced for uniqueness."""
        key = (proc, label)
        seq = self._internal_seq.get(key, 0)
        self._internal_seq[key] = seq + 1
        return self._record(time, InternalEvent(proc, label, seq))

    def record_quorum(
        self, detector: int, target: int, members: frozenset[int]
    ) -> QuorumRecord:
        """The quorum set behind a ``failed_detector(target)`` execution."""
        record = QuorumRecord(detector, target, members)
        self._quorums.append(record)
        self._quorums_view = None  # invalidate the cached read-only view
        return record

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def history(self) -> History:
        """The recorded history, as formal-model data (caches pre-built)."""
        return self._builder.snapshot()

    def iter_events(self):
        """Stream the recorded events without materializing a snapshot."""
        return iter(self._builder)

    def timed_events(self) -> list[TimedEvent]:
        """Events paired with their virtual execution times."""
        return [
            TimedEvent(t, e) for t, e in zip(self._times, self._builder.events)
        ]

    @property
    def quorum_records(self) -> tuple[QuorumRecord, ...]:
        """All recorded quorum sets, in detection order (read-only view).

        A cached tuple, rebuilt only after a new quorum is recorded — so
        repeated access (hot in ``collect_metrics`` and checker calls) is
        O(1), not an O(n) list copy per read as it used to be.
        """
        if self._quorums_view is None:
            self._quorums_view = tuple(self._quorums)
        return self._quorums_view

    def time_of_index(self, index: int) -> float:
        """Virtual time at which the event at ``index`` was recorded."""
        return self._times[index]

    def event_at(self, index: int) -> Event:
        """The recorded event at ``index`` (O(1), no snapshot)."""
        return self._builder.event_at(index)

    def time_of_crash(self, proc: int) -> float | None:
        """Virtual time of ``crash_proc``, or None (O(1))."""
        idx = self._builder.crash_index.get(proc)
        return None if idx is None else self._times[idx]

    def time_of_detection(self, detector: int, target: int) -> float | None:
        """Virtual time of ``failed_detector(target)``, or None (O(1))."""
        idx = self._builder.failed_index.get((detector, target))
        return None if idx is None else self._times[idx]

    def detection_times(self, target: int) -> dict[int, float]:
        """Map detector -> time it executed ``failed(target)``.

        O(detections) via the incremental failed index, not O(events).
        """
        out: dict[int, float] = {}
        for (detector, tgt), idx in self._builder.failed_index.items():
            if tgt == target:
                out[detector] = self._times[idx]
        return out
