"""Histories and the happens-before relation (Section 2, [Lam78]).

A :class:`History` is the (finite prefix of the) event sequence of a run.
For any run ``r`` the history ``H_r`` is uniquely determined, and ``r`` can
be reconstructed from ``H_r`` plus the initial global state — so the library
treats histories as the canonical representation of runs and derives global
states on demand (:mod:`repro.core.runs`).

The paper's happens-before relation (reflexive, per their convention) is
computed with vector clocks: each event is stamped with a vector ``V`` where
``V[p]`` counts the events of process ``p`` in its causal past (inclusive).
Then for events ``a`` of process ``p_a`` and ``b``::

    a -> b   iff   V(b)[p_a] >= V(a)[p_a]

which is the standard characterization, and is reflexive as required.

Histories are immutable; rearrangement operations (used by the Theorem 5
construction in :mod:`repro.core.indistinguishability`) return new histories.

For *recording* — the long-run regime where events arrive one at a time and
the indices/vector clocks must stay queryable throughout — immutability plus
lazy caches is quadratic: every ``append`` returns a fresh ``History`` whose
first index access rebuilds O(len) state. :class:`HistoryBuilder` is the
appendable counterpart: it extends the send/recv/crash/failed indices, the
per-process index lists, and the vector clocks in O(delta) per appended
event (delta = number of processes, for the vector stamp) and snapshots to
a fully cache-seeded :class:`History` without recomputing anything:
``tests/sim/test_trace_clock.py`` counts zero rebuilds over an n=64
run's recording, and ``history.append.us_per_event`` in
``benchmarks/record/`` times the append.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from typing import Iterable

from repro.core.events import (
    CrashEvent,
    Event,
    FailedEvent,
    RecoverEvent,
    RecvEvent,
    SendEvent,
)
from repro.core.messages import Message


class History(Sequence[Event]):
    """An immutable sequence of events over processes ``0 .. n-1``.

    Args:
        events: the event sequence, in execution order.
        n: number of processes. If omitted, inferred as one more than the
            largest process id mentioned by any event (and at least 1).
    """

    __slots__ = (
        "_events",
        "_n",
        "_vectors",
        "_send_index",
        "_recv_index",
        "_crash_index",
        "_failed_index",
        "_recover_index",
        "_proc_indices",
    )

    def __init__(self, events: Iterable[Event] = (), n: int | None = None):
        self._events: tuple[Event, ...] = tuple(events)
        if n is None:
            n = 0
            for e in self._events:
                n = max(n, e.proc + 1)
                if isinstance(e, SendEvent):
                    n = max(n, e.dst + 1)
                elif isinstance(e, RecvEvent):
                    n = max(n, e.src + 1)
                elif isinstance(e, FailedEvent):
                    n = max(n, e.target + 1)
            n = max(n, 1)
        self._n = n
        self._vectors: list[tuple[int, ...]] | None = None
        self._send_index: dict[tuple[int, int], int] | None = None
        self._recv_index: dict[tuple[int, int], int] | None = None
        self._crash_index: dict[int, int] | None = None
        self._failed_index: dict[tuple[int, int], int] | None = None
        self._recover_index: dict[tuple[int, int], int] | None = None
        self._proc_indices: list[list[int]] | None = None

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            return History(self._events[index], self._n)
        return self._events[index]

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, History):
            return NotImplemented
        return self._events == other._events and self._n == other._n

    def __hash__(self) -> int:
        return hash((self._events, self._n))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        shown = ", ".join(repr(e) for e in self._events[:6])
        if len(self._events) > 6:
            shown += f", ... ({len(self._events)} events)"
        return f"History(n={self._n}: {shown})"

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of processes in the system."""
        return self._n

    @property
    def events(self) -> tuple[Event, ...]:
        """The raw event tuple."""
        return self._events

    @property
    def processes(self) -> range:
        """The process id universe ``0 .. n-1``."""
        return range(self._n)

    def append(self, *events: Event) -> "History":
        """A new history with ``events`` appended."""
        return History(self._events + tuple(events), self._n)

    def with_events(self, events: Iterable[Event]) -> "History":
        """A new history over the same process universe."""
        return History(events, self._n)

    @classmethod
    def _precomputed(
        cls,
        events: tuple[Event, ...],
        n: int,
        *,
        vectors: list[tuple[int, ...]],
        send_index: dict[tuple[int, int], int],
        recv_index: dict[tuple[int, int], int],
        crash_index: dict[int, int],
        failed_index: dict[tuple[int, int], int],
        recover_index: dict[tuple[int, int], int],
        proc_indices: list[list[int]],
    ) -> "History":
        """A history whose derived caches are installed, not recomputed.

        Used by :meth:`HistoryBuilder.snapshot`; the caller owns the passed
        containers (the builder hands over private copies, never its live
        state, so the history stays immutable).
        """
        history = cls.__new__(cls)
        history._events = events
        history._n = n
        history._vectors = vectors
        history._send_index = send_index
        history._recv_index = recv_index
        history._crash_index = crash_index
        history._failed_index = failed_index
        history._recover_index = recover_index
        history._proc_indices = proc_indices
        return history

    # ------------------------------------------------------------------
    # Derived indices (lazy)
    # ------------------------------------------------------------------

    def _build_indices(self) -> None:
        send_index: dict[tuple[int, int], int] = {}
        recv_index: dict[tuple[int, int], int] = {}
        crash_index: dict[int, int] = {}
        failed_index: dict[tuple[int, int], int] = {}
        recover_index: dict[tuple[int, int], int] = {}
        proc_indices: list[list[int]] = [[] for _ in range(self._n)]
        for idx, e in enumerate(self._events):
            proc_indices[e.proc].append(idx)
            if isinstance(e, SendEvent):
                send_index.setdefault(e.msg.uid, idx)
            elif isinstance(e, RecvEvent):
                recv_index.setdefault(e.msg.uid, idx)
            elif isinstance(e, CrashEvent):
                crash_index.setdefault(e.proc, idx)
            elif isinstance(e, FailedEvent):
                failed_index.setdefault((e.proc, e.target), idx)
            elif isinstance(e, RecoverEvent):
                recover_index.setdefault((e.proc, e.incarnation), idx)
        self._send_index = send_index
        self._recv_index = recv_index
        self._crash_index = crash_index
        self._failed_index = failed_index
        self._recover_index = recover_index
        self._proc_indices = proc_indices

    @property
    def send_index(self) -> dict[tuple[int, int], int]:
        """Map from message uid to the index of its send event."""
        if self._send_index is None:
            self._build_indices()
        assert self._send_index is not None
        return self._send_index

    @property
    def recv_index(self) -> dict[tuple[int, int], int]:
        """Map from message uid to the index of its receive event."""
        if self._recv_index is None:
            self._build_indices()
        assert self._recv_index is not None
        return self._recv_index

    @property
    def crash_index(self) -> dict[int, int]:
        """Map from process id to the index of its crash event (if any)."""
        if self._crash_index is None:
            self._build_indices()
        assert self._crash_index is not None
        return self._crash_index

    @property
    def failed_index(self) -> dict[tuple[int, int], int]:
        """Map ``(detector, target)`` to the index of ``failed`` event."""
        if self._failed_index is None:
            self._build_indices()
        assert self._failed_index is not None
        return self._failed_index

    @property
    def recover_index(self) -> dict[tuple[int, int], int]:
        """Map ``(proc, incarnation)`` to the index of its recover event.

        Empty for every fail-stop history; populated only under the
        crash-recovery failure model.
        """
        if self._recover_index is None:
            self._build_indices()
        assert self._recover_index is not None
        return self._recover_index

    def indices_of_process(self, proc: int) -> list[int]:
        """Indices of all events of ``proc``, in history order."""
        if self._proc_indices is None:
            self._build_indices()
        assert self._proc_indices is not None
        return list(self._proc_indices[proc])

    def crashed_processes(self) -> frozenset[int]:
        """Processes whose crash event appears in this history."""
        return frozenset(self.crash_index)

    def detected_pairs(self) -> list[tuple[int, int]]:
        """All ``(detector, target)`` pairs with a failed event, in order."""
        pairs = sorted(self.failed_index.items(), key=lambda kv: kv[1])
        return [pair for pair, _ in pairs]

    # ------------------------------------------------------------------
    # Happens-before
    # ------------------------------------------------------------------

    def _build_vectors(self) -> None:
        n = self._n
        current: list[tuple[int, ...]] = [tuple([0] * n) for _ in range(n)]
        vectors: list[tuple[int, ...]] = []
        send_vec: dict[tuple[int, int], tuple[int, ...]] = {}
        for e in self._events:
            p = e.proc
            vec = list(current[p])
            if isinstance(e, RecvEvent):
                origin = send_vec.get(e.msg.uid)
                if origin is not None:
                    for q in range(n):
                        if origin[q] > vec[q]:
                            vec[q] = origin[q]
            vec[p] += 1
            stamped = tuple(vec)
            current[p] = stamped
            vectors.append(stamped)
            if isinstance(e, SendEvent):
                send_vec[e.msg.uid] = stamped
        self._vectors = vectors

    @property
    def vectors(self) -> list[tuple[int, ...]]:
        """Vector timestamps, one per event, aligned with indices."""
        if self._vectors is None:
            self._build_vectors()
        assert self._vectors is not None
        return self._vectors

    def happens_before(self, a: int, b: int) -> bool:
        """Paper's (reflexive) happens-before on event *indices* ``a, b``."""
        if a == b:
            return True
        vectors = self.vectors
        pa = self._events[a].proc
        return vectors[b][pa] >= vectors[a][pa]

    def concurrent(self, a: int, b: int) -> bool:
        """True iff neither ``a -> b`` nor ``b -> a`` (and ``a != b``)."""
        if a == b:
            return False
        return not self.happens_before(a, b) and not self.happens_before(b, a)

    def causal_past(self, idx: int) -> list[int]:
        """Indices of all events ``e`` with ``e -> history[idx]``."""
        return [a for a in range(len(self._events)) if self.happens_before(a, idx)]

    def causal_future(self, idx: int) -> list[int]:
        """Indices of all events ``e`` with ``history[idx] -> e``."""
        return [
            b for b in range(len(self._events)) if self.happens_before(idx, b)
        ]

    # ------------------------------------------------------------------
    # Projections and isomorphism (Section 2, "=_i" / "=_Q")
    # ------------------------------------------------------------------

    def projection(self, proc: int) -> tuple[Event, ...]:
        """The subsequence of events of process ``proc``.

        For deterministic processes started from the same initial state, the
        per-process event sequence determines the per-process state sequence,
        so equality of projections is the paper's run isomorphism ``=_i``.
        """
        return tuple(e for e in self._events if e.proc == proc)

    def projection_of(self, procs: Iterable[int]) -> tuple[Event, ...]:
        """The subsequence of events of any process in ``procs`` (``=_Q``)."""
        wanted = set(procs)
        return tuple(e for e in self._events if e.proc in wanted)


class HistoryBuilder:
    """Incrementally builds a :class:`History`, O(delta) per appended event.

    The builder maintains exactly the derived state a ``History`` computes
    lazily — send/recv/crash/failed indices, per-process index lists, and
    vector timestamps — but extends it *in place* as events are appended,
    instead of invalidating and rebuilding O(len) state per append. That
    turns long-run trace recording from O(len^2) into O(len * n_procs)
    total (the vector stamp itself is inherently O(n_procs) per event).

    :meth:`snapshot` produces an ordinary immutable ``History`` whose
    caches are already populated; the builder copies its state into the
    snapshot (an O(len) handoff, same order as ``History``'s own tuple
    construction, but with no recomputation), so continuing to append
    never mutates a snapshot taken earlier.

    The invariant guarded by ``tests/core/test_history_builder.py``:
    for every event sequence, ``HistoryBuilder(n).append(*seq).snapshot()``
    is indistinguishable — events, indices, vectors, happens-before — from
    ``History(seq, n)``.
    """

    __slots__ = (
        "_n",
        "_events",
        "_vectors",
        "_current",
        "_send_vec",
        "_send_index",
        "_recv_index",
        "_crash_index",
        "_failed_index",
        "_recover_index",
        "_proc_indices",
        "_observers",
    )

    def __init__(self, n: int, events: Iterable[Event] = ()):
        if n < 1:
            raise ValueError(f"need at least one process, got n={n}")
        self._n = n
        self._events: list[Event] = []
        self._vectors: list[tuple[int, ...]] = []
        # One preallocated mutable vector-clock row per process, mutated
        # in place on every append; the only per-event allocation for
        # clock bookkeeping is the stamped tuple handed to _vectors.
        self._current: list[list[int]] = [[0] * n for _ in range(n)]
        self._send_vec: dict[tuple[int, int], tuple[int, ...]] = {}
        self._send_index: dict[tuple[int, int], int] = {}
        self._recv_index: dict[tuple[int, int], int] = {}
        self._crash_index: dict[int, int] = {}
        self._failed_index: dict[tuple[int, int], int] = {}
        self._recover_index: dict[tuple[int, int], int] = {}
        self._proc_indices: list[list[int]] = [[] for _ in range(n)]
        self._observers: list = []
        if events:
            self.append(*events)

    @classmethod
    def from_history(cls, history: History) -> "HistoryBuilder":
        """A builder primed with an existing history's events."""
        return cls(history.n, history.events)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of processes in the system."""
        return self._n

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        """Iterate the events appended so far without copying them.

        Do not append while a consumer is mid-iteration; take a
        :meth:`snapshot` for that.
        """
        return iter(self._events)

    @property
    def events(self) -> tuple[Event, ...]:
        """The events appended so far, in order."""
        return tuple(self._events)

    def event_at(self, index: int) -> Event:
        """The event at ``index`` (no O(len) tuple copy)."""
        return self._events[index]

    @property
    def crash_index(self) -> dict[int, int]:
        """Live view of process id -> crash event index (read-only use)."""
        return self._crash_index

    @property
    def failed_index(self) -> dict[tuple[int, int], int]:
        """Live view of (detector, target) -> failed event index."""
        return self._failed_index

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------

    def attach_observer(self, observer) -> None:
        """Call ``observer(index, event, vector)`` after every append.

        The hook is how analyze-on-append monitors ride the builder with
        zero extra passes: the observer sees each event exactly once, at
        the moment it is appended, together with its index and freshly
        stamped vector timestamp. Observers run in attachment order and
        must not append to the builder themselves.
        """
        self._observers.append(observer)

    def detach_observers(self) -> None:
        """Drop every attached observer (end-of-life cycle breaking).

        Observers commonly reach back to the world that owns this builder
        (e.g. a monitor set whose ``on_violation`` is the world's
        scheduler's ``request_stop``), which makes the
        builder part of the world's reference-cycle knot; detaching them
        lets a disposed world die by refcount. The recorded events,
        vectors, and indices are untouched.
        """
        self._observers.clear()

    def append(self, *events: Event) -> "HistoryBuilder":
        """Extend the history and every derived structure in O(delta)."""
        append_one = self.append_one
        for event in events:
            append_one(event)
        return self

    def append_one(self, event: Event) -> None:
        """Append a single event — the recorder's per-event fast path.

        Identical semantics to :meth:`append` (which loops over this),
        minus the varargs packing. Per event it performs exactly one
        bookkeeping allocation — the stamped vector tuple — by mutating
        the process's preallocated clock row in place, and dispatches on
        class identity (the event alphabet is closed; nothing subclasses
        the event dataclasses) instead of an isinstance chain.
        """
        n = self._n
        proc = event.proc
        if not 0 <= proc < n:
            raise ValueError(
                f"event process {proc} outside universe 0..{n - 1}: "
                f"{event!r}"
            )
        events = self._events
        idx = len(events)
        row = self._current[proc]
        cls = event.__class__
        if cls is RecvEvent:
            uid = event.msg.uid
            origin = self._send_vec.get(uid)
            if origin is not None:
                for q in range(n):
                    if origin[q] > row[q]:
                        row[q] = origin[q]
            row[proc] += 1
            stamped = tuple(row)
            self._recv_index.setdefault(uid, idx)
        else:
            row[proc] += 1
            stamped = tuple(row)
            if cls is SendEvent:
                uid = event.msg.uid
                self._send_vec[uid] = stamped
                self._send_index.setdefault(uid, idx)
            elif cls is CrashEvent:
                self._crash_index.setdefault(proc, idx)
            elif cls is FailedEvent:
                self._failed_index.setdefault((proc, event.target), idx)
            elif cls is RecoverEvent:
                self._recover_index.setdefault(
                    (proc, event.incarnation), idx
                )
        events.append(event)
        self._vectors.append(stamped)
        self._proc_indices[proc].append(idx)
        if self._observers:
            for observer in self._observers:
                observer(idx, event, stamped)

    def snapshot(self) -> History:
        """An immutable, fully cache-seeded ``History`` of the state so far.

        O(len) for the container handoff — never recomputes indices or
        vectors — and safe against later :meth:`append` calls (the
        snapshot owns copies, not the builder's live containers).
        """
        return History._precomputed(
            tuple(self._events),
            self._n,
            vectors=list(self._vectors),
            send_index=dict(self._send_index),
            recv_index=dict(self._recv_index),
            crash_index=dict(self._crash_index),
            failed_index=dict(self._failed_index),
            recover_index=dict(self._recover_index),
            proc_indices=[list(ix) for ix in self._proc_indices],
        )


def isomorphic(
    x: History, y: History, procs: Iterable[int] | None = None
) -> bool:
    """Paper's run isomorphism ``x =_Q y``.

    Two histories are isomorphic with respect to a set of processes if each
    of those processes executes the same events in the same order in both.
    With ``procs=None`` the check is over all processes (``=_P``), i.e. no
    process can distinguish the two runs.
    """
    if procs is None:
        if x.n != y.n:
            return False
        procs = range(x.n)
    return all(x.projection(p) == y.projection(p) for p in procs)


def merge_preserving_process_order(histories: Iterable[History]) -> History:
    """Interleave histories of disjoint process sets (testing helper).

    Events are merged round-robin while preserving each input's order. The
    inputs must concern disjoint process sets for the result to make sense.
    """
    sequences = [list(h.events) for h in histories]
    merged: list[Event] = []
    while any(sequences):
        for seq in sequences:
            if seq:
                merged.append(seq.pop(0))
    return History(merged)


def find_message_chains(history: History) -> list[list[int]]:
    """All maximal send->recv chains, as lists of event indices.

    A chain alternates ``send -> recv`` across processes, following the
    definition of happens-before clause 2/3; used in tests and diagnostics
    for sFS2d (Lemma 4's message chains).
    """
    chains: list[list[int]] = []
    recv_index = history.recv_index
    # A chain starts at a send whose message was received.
    for uid, send_idx in sorted(history.send_index.items(), key=lambda kv: kv[1]):
        recv_idx = recv_index.get(uid)
        if recv_idx is None:
            continue
        chain = [send_idx, recv_idx]
        # Extend through sends by the receiver after the receive.
        receiver = history[recv_idx].proc
        for later in range(recv_idx + 1, len(history)):
            e = history[later]
            if e.proc != receiver or not isinstance(e, SendEvent):
                continue
            nxt = recv_index.get(e.msg.uid)
            if nxt is not None:
                chain.extend([later, nxt])
                receiver = history[nxt].proc
        chains.append(chain)
    return chains


def messages_in_flight(history: History) -> list[Message]:
    """Messages sent but never received in this (finite) history."""
    pending: list[Message] = []
    recv_index = history.recv_index
    for uid, send_idx in sorted(history.send_index.items(), key=lambda kv: kv[1]):
        if uid not in recv_index:
            event = history[send_idx]
            assert isinstance(event, SendEvent)
            pending.append(event.msg)
    return pending

