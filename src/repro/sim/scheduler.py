"""Deterministic discrete-event scheduler.

The heart of the asynchronous-system substrate: a priority queue of
``(time, sequence)``-ordered callbacks. Determinism is absolute — given the
same schedule of calls, :meth:`Scheduler.run` executes the same callbacks in
the same order every time, so every simulated run (and every adversarial
counterexample) is replayable from its parameters.

Virtual time is a float with no relation to wall-clock time; "asynchrony"
in the paper's sense is modelled by the *delay distributions* and the
*adversary* (:mod:`repro.sim.adversary`), which may postpone a delivery
arbitrarily far — including forever.

Scaling notes (the engine is the bottleneck for every experiment):

* ``pending`` / :meth:`Scheduler.pending_nonperiodic` are maintained as
  incremental counters updated on schedule/step/cancel, so quiescence
  detection (:meth:`Scheduler.run_to_quiescence`) costs O(1) per event
  instead of a full queue scan.
* Cancelled entries are compacted out of the heap eagerly once they
  outnumber the live ones (the asyncio strategy), so a crash that cancels
  thousands of far-future heartbeat timers does not leave them rotting in
  the queue until their due times.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Callable

from repro.errors import SimulationError

_MIN_COMPACT_SIZE = 32
"""Heaps smaller than this are never compacted (rebuilds would dominate)."""


class _Entry:
    """One queued callback, ordered by ``(time, seq)``.

    A ``__slots__`` class with a hand-rolled ``__lt__`` (a generated
    ``dataclass(order=True)`` comparison would build two ``(time, seq)``
    tuples per call). The heap itself stores ``(time, seq, entry)``
    triples so the O(log n) comparisons per push/pop run entirely in C on
    the leading two fields — ``seq`` is unique per scheduler, so the
    comparison never falls through to the entry object. ``__lt__`` is
    kept as the authoritative statement of the ordering (time first,
    scheduling sequence as the tie-break) and as the tuple ordering's
    fallback; both agree by construction, guarded by
    ``tests/sim/test_entry_ordering.py``.
    """

    __slots__ = (
        "time", "seq", "callback", "cancelled", "periodic", "finished",
    )

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[[], None],
        cancelled: bool = False,
        periodic: bool = False,
        finished: bool = False,
    ):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = cancelled
        self.periodic = periodic
        self.finished = finished

    def __lt__(self, other: "_Entry") -> bool:
        time = self.time
        other_time = other.time
        return time < other_time or (
            time == other_time and self.seq < other.seq
        )

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        flags = "".join(
            flag
            for flag, on in (
                ("C", self.cancelled),
                ("P", self.periodic),
                ("F", self.finished),
            )
            if on
        )
        return f"_Entry(t={self.time}, seq={self.seq}{', ' + flags if flags else ''})"


def _noop() -> None:  # placeholder callback for disposed entries
    """Never runs; parks cleared entries without retaining closures."""


class TimerHandle:
    """Cancellation handle for a scheduled callback."""

    __slots__ = ("_entry", "_scheduler")

    def __init__(self, entry: _Entry, scheduler: "Scheduler"):
        self._entry = entry
        self._scheduler = scheduler

    def cancel(self) -> None:
        """Prevent the callback from running (idempotent).

        Safe to call any number of times, before or after the callback has
        fired, and before or after a heap compaction has physically removed
        the entry — the scheduler's accounting is only adjusted on the
        first effective cancellation.
        """
        entry = self._entry
        if entry.cancelled:
            return
        entry.cancelled = True
        if not entry.finished:
            self._scheduler._on_cancel(entry)

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called."""
        return self._entry.cancelled

    @property
    def active(self) -> bool:
        """Whether the callback is still queued (not fired, not cancelled)."""
        entry = self._entry
        return not entry.cancelled and not entry.finished

    @property
    def when(self) -> float:
        """The virtual time at which the callback is due."""
        return self._entry.time


class Scheduler:
    """A deterministic virtual-time event loop.

    Ties are broken by scheduling order (a monotone sequence number), so
    simultaneous events run first-scheduled-first.
    """

    def __init__(self) -> None:
        # Heap of (time, seq, entry) triples: time/seq comparisons happen
        # at C level inside heapq; seq is unique, so _Entry.__lt__ is
        # never consulted during heap operations.
        self._queue: list[tuple[float, int, _Entry]] = []
        self._seq = 0
        self._now = 0.0
        self._processed = 0
        # Incremental accounting: kept in lockstep with the heap so the
        # quiescence loop never has to scan it.
        self._pending = 0
        self._pending_nonperiodic = 0
        self._cancelled_in_heap = 0
        self._last_seq = -1
        self._stop_requested = False

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def processed(self) -> int:
        """Number of callbacks executed so far."""
        return self._processed

    @property
    def pending(self) -> int:
        """Number of queued, uncancelled callbacks (O(1))."""
        return self._pending

    @property
    def last_scheduled_seq(self) -> int:
        """Sequence number of the most recently scheduled entry (-1 if none).

        Tie order at equal times is first-scheduled-first, so a consumer
        that remembers this value can later prove "nothing else has been
        scheduled in between" — the guard :class:`~repro.sim.network.Network`
        uses to decide when joining a delivery burst cannot perturb the
        global execution order.
        """
        return self._last_seq

    @property
    def stop_requested(self) -> bool:
        """Whether a mid-run halt has been requested (and not cleared)."""
        return self._stop_requested

    def request_stop(self) -> None:
        """Halt :meth:`run` / :meth:`run_to_quiescence` before the next step.

        Safe to call from inside a running callback (the streaming-monitor
        use: a conformance violation observed while recording an event
        aborts the run right after that event completes). The flag is
        sticky until :meth:`clear_stop`; the queue itself is untouched, so
        a cleared scheduler resumes exactly where it halted — determinism
        is unaffected because stopping never reorders entries.
        """
        self._stop_requested = True

    def clear_stop(self) -> None:
        """Re-arm a scheduler halted by :meth:`request_stop`."""
        self._stop_requested = False

    def pending_nonperiodic(self) -> int:
        """Queued, uncancelled callbacks not marked periodic (O(1)).

        Used for quiescence detection: a run with heartbeat emitters never
        drains completely, but it *is* quiescent once only periodic
        housekeeping remains.
        """
        return self._pending_nonperiodic

    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        periodic: bool = False,
    ) -> TimerHandle:
        """Run ``callback`` after ``delay`` units of virtual time."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule_at(self._now + delay, callback, periodic=periodic)

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        periodic: bool = False,
    ) -> TimerHandle:
        """Run ``callback`` at absolute virtual ``time`` (>= now)."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule into the past: {time} < now {self._now}"
            )
        seq = self._seq
        self._seq = seq + 1
        self._last_seq = seq
        entry = Pure_Entry(time, seq, callback, False, periodic)
        heappush(self._queue, (time, seq, entry))
        self._pending += 1
        if not periodic:
            self._pending_nonperiodic += 1
        return PureTimerHandle(entry, self)

    def schedule_callback_at(
        self,
        time: float,
        callback: Callable[[], None],
        periodic: bool = False,
    ) -> None:
        """:meth:`schedule_at` without materialising a :class:`TimerHandle`.

        The network delivery path schedules one entry per burst and never
        cancels it, so the handle — one allocation per delivery — is pure
        overhead there. Identical semantics otherwise: same sequence
        numbering, same accounting, same ordering.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule into the past: {time} < now {self._now}"
            )
        seq = self._seq
        self._seq = seq + 1
        self._last_seq = seq
        entry = Pure_Entry(time, seq, callback, False, periodic)
        heappush(self._queue, (time, seq, entry))
        self._pending += 1
        if not periodic:
            self._pending_nonperiodic += 1

    def reschedule_interrupted(
        self,
        time: float,
        seq: int,
        callback: Callable[[], None],
        periodic: bool = False,
    ) -> None:
        """Requeue work an interrupted callback did not finish, at its
        original ``(time, seq)`` priority.

        Restricted use — the batched-delivery resume path: a burst whose
        drain was cut short by :meth:`request_stop` must re-enter the
        queue at the *fired entry's own* key, because equal-time order is
        first-scheduled-first and the undelivered remainder has to stay
        ahead of every entry scheduled after the burst formed (that is
        what keeps a resumed batched run bit-identical to the per-message
        path). ``seq`` must be the seq of an entry that has already been
        popped; ``last_scheduled_seq`` is deliberately not advanced, so
        no later send can join a resumed burst's slot.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot reschedule into the past: {time} < now {self._now}"
            )
        entry = Pure_Entry(time, seq, callback, False, periodic)
        heappush(self._queue, (time, seq, entry))
        self._pending += 1
        if not periodic:
            self._pending_nonperiodic += 1

    def _on_cancel(self, entry: _Entry) -> None:
        """Accounting for a first-time cancellation of a queued entry."""
        self._pending -= 1
        if not entry.periodic:
            self._pending_nonperiodic -= 1
        self._cancelled_in_heap += 1
        if (
            len(self._queue) >= _MIN_COMPACT_SIZE
            and self._cancelled_in_heap * 2 > len(self._queue)
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled entries — **in place**.

        Heap order is a function of the ``(time, seq)`` keys alone, so the
        pop order — and therefore every simulated history — is unaffected.
        The list object is reused (slice assignment, not rebinding):
        compaction can fire from a cancellation inside a running callback,
        and the run loops below hold the queue in a local variable.
        """
        queue = self._queue
        queue[:] = [item for item in queue if not item[2].cancelled]
        heapify(queue)
        self._cancelled_in_heap = 0

    def step(self) -> bool:
        """Execute the next callback. Returns False when nothing is queued."""
        queue = self._queue
        while queue:
            time, _seq, entry = heappop(queue)
            if entry.cancelled:
                self._cancelled_in_heap -= 1
                continue
            entry.finished = True
            self._pending -= 1
            if not entry.periodic:
                self._pending_nonperiodic -= 1
            self._now = time
            self._processed += 1
            entry.callback()
            return True
        return False

    def run(
        self,
        until: float | None = None,
        max_events: int | None = None,
    ) -> int:
        """Process queued callbacks in order.

        Args:
            until: stop once the next callback would run strictly after
                this virtual time (the clock advances to at most ``until``).
            max_events: stop after this many callbacks (safety valve).

        Returns:
            The number of callbacks executed by this call.

        The loop body is the former peek + :meth:`step` pair, inlined:
        this is the per-event path of every simulation, and the peek/pop
        split cost a second heap traversal plus two method calls per
        event. Semantics are unchanged (pinned by the reference-scheduler
        equivalence tests).
        """
        executed = 0
        queue = self._queue  # _compact() mutates in place; binding is safe
        while queue:
            if self._stop_requested:
                break
            if max_events is not None and executed >= max_events:
                break
            head = queue[0]
            entry = head[2]
            if entry.cancelled:
                heappop(queue)
                self._cancelled_in_heap -= 1
                continue
            time = head[0]
            if until is not None and time > until:
                if until > self._now:
                    self._now = until
                break
            heappop(queue)
            entry.finished = True
            self._pending -= 1
            if not entry.periodic:
                self._pending_nonperiodic -= 1
            self._now = time
            self._processed += 1
            entry.callback()
            executed += 1
        return executed

    def run_to_quiescence(
        self, max_events: int = 1_000_000, ignore_periodic: bool = True
    ) -> int:
        """Run until no (non-periodic) work remains.

        The remaining-work check is an O(1) counter read, so the loop is
        linear in the number of events executed. Raises
        :class:`SimulationError` if ``max_events`` is exceeded, which
        almost always indicates a livelock in a protocol under test.

        Like :meth:`run`, the per-event step is inlined into the loop.
        """
        executed = 0
        queue = self._queue  # _compact() mutates in place; binding is safe
        while True:
            if self._stop_requested:
                return executed
            remaining = (
                self._pending_nonperiodic if ignore_periodic else self._pending
            )
            if remaining == 0:
                return executed
            if executed >= max_events:
                raise SimulationError(
                    f"no quiescence after {max_events} events; "
                    "likely a livelock in the system under test"
                )
            entry = None
            while queue:
                time, _seq, popped = heappop(queue)
                if popped.cancelled:
                    self._cancelled_in_heap -= 1
                    continue
                entry = popped
                break
            if entry is None:
                return executed
            entry.finished = True
            self._pending -= 1
            if not entry.periodic:
                self._pending_nonperiodic -= 1
            self._now = time
            self._processed += 1
            entry.callback()
            executed += 1

    def clear_queue(self) -> None:
        """Park every queued callback and empty the heap (end of life).

        Used by :meth:`~repro.sim.world.World.dispose`: whatever is still
        queued (periodic heartbeats, cancelled timers) has its callback
        swapped for ``_noop`` so queued closures stop pinning the world,
        then the heap and the pending accounting are zeroed. The
        scheduler must not be run afterwards.
        """
        queue = self._queue
        for item in queue:
            item[2].callback = _noop
        queue.clear()
        self._pending = 0
        self._pending_nonperiodic = 0
        self._cancelled_in_heap = 0


# ---------------------------------------------------------------------------
# Core selection: when the compiled event core is active, the canonical
# names below are rebound to the accelerated implementations. The classes
# above remain importable as the Pure* aliases — they are the authoritative
# reference the compiled core is digest-pinned against (tests/accel/) —
# and their *internal* call-time references are spelled via these aliases
# so the pure implementation keeps working after the rebind.
# ---------------------------------------------------------------------------

Pure_Entry = _Entry
PureScheduler = Scheduler
PureTimerHandle = TimerHandle

from repro._core import USE_ACCEL  # noqa: E402

if USE_ACCEL:
    from repro._accel._ccore import (  # noqa: E402,F811
        Scheduler,
        TimerHandle,
        _Entry,
    )
