"""Well-formedness of histories (Definitions 1, 6, 7 of the paper).

A history is *valid* when it could have been produced by some run of the
system model: processes take no steps after crashing, receives match earlier
sends on the same FIFO channel in FIFO order, messages are unique, and the
stable booleans ``crash_i`` / ``failed_i(j)`` flip at most once.

The scan is implemented once, as the incremental :class:`ValidationState`
machine (validity is prefix-monotone: an invalid prefix can never become
valid again), so the batch :func:`validate_history` and the streaming
:class:`~repro.analysis.monitors.MonitorSet`, which holds one as its
``validity`` monitor, share one transition function.
:func:`validate_history` returns a list of human-readable violations
(empty for a valid history); :func:`check_valid` raises
:class:`~repro.errors.InvalidHistoryError` instead.

Well-formedness is parameterised by the failure model
(:mod:`repro.core.failure_models`). Under the default fail-stop model a
crash is terminal and recover events are violations, exactly the paper's
Definition 1. Under a *recoverable* model (crash-recovery) a
``recover_i`` event lifts the crash freeze, incarnation numbers must
increase by exactly one per crash/recover round trip, and channels are
**lossy FIFO**: messages that reached a process while it was down are
silently lost, so a receive may skip over (and thereby discard) older
in-flight messages on the same channel without being a violation.
"""

from __future__ import annotations

from collections import defaultdict, deque

from repro.core.events import (
    CrashEvent,
    FailedEvent,
    InternalEvent,
    RecoverEvent,
    RecvEvent,
    SendEvent,
)
from repro.core.failure_models import PropertyState, get_failure_model
from repro.core.history import History
from repro.errors import InvalidHistoryError


class ValidationState(PropertyState):
    """Incremental well-formedness scan, O(1) amortized per event.

    Every handler opens with :meth:`_guard`, the two checks Definition 1
    puts on any event — its process exists, and has not crashed — then
    applies the rules of its own kind.
    """

    __slots__ = (
        "_n",
        "_crashed",
        "_recoverable",
        "_incarnations",
        "_detected",
        "_sent_uids",
        "_received_uids",
        "_channels",
        "violations",
    )

    name = "valid"

    def __init__(self, n: int, failure_model: str = "fail-stop") -> None:
        super().__init__()
        self._n = n
        self._recoverable = get_failure_model(failure_model).recoverable
        self._incarnations: dict[int, int] = {}
        self._crashed: set[int] = set()
        self._detected: set[tuple[int, int]] = set()
        self._sent_uids: set[tuple[int, int]] = set()
        self._received_uids: set[tuple[int, int]] = set()
        # Per-channel FIFO queues of message uids in flight.
        self._channels: dict[tuple[int, int], deque] = defaultdict(deque)
        self.violations: list[str] = []

    def finalize(self) -> list[str]:
        return list(self.violations)

    def _report(self, idx: int, text: str) -> None:
        self.violations.append(text)
        self._flag(idx)

    def _guard(self, idx: int, event, crash_exempt: bool = False) -> bool:
        """Definition 1's checks on any event; True if its scan stops here.

        It stops for a process id out of range; an event of a crashed
        process is reported and scanned on, since later diagnostics are
        still useful (``crash_exempt``: a recover under a recoverable
        model is the one event a crashed process may take).
        """
        proc = event.proc
        if not (0 <= proc < self._n):
            self._report(
                idx,
                f"[{idx}] {event!r}: process id out of range "
                f"0..{self._n-1}",
            )
            return True
        if proc in self._crashed and not crash_exempt:
            self._report(
                idx,
                f"[{idx}] {event!r}: event of process {proc} "
                f"after crash_{proc}",
            )
        return False

    def on_send(self, idx, event, vector) -> None:
        if self._guard(idx, event):
            return
        n = self._n
        proc = event.proc
        if not (0 <= event.dst < n):
            self._report(
                idx,
                f"[{idx}] {event!r}: destination out of range 0..{n-1}",
            )
            return
        uid = event.msg.uid
        if uid in self._sent_uids:
            self._report(
                idx, f"[{idx}] {event!r}: message {uid} sent twice"
            )
        self._sent_uids.add(uid)
        self._channels[(proc, event.dst)].append(uid)

    def on_recv(self, idx, event, vector) -> None:
        if self._guard(idx, event):
            return
        n = self._n
        proc = event.proc
        if not (0 <= event.src < n):
            self._report(
                idx, f"[{idx}] {event!r}: source out of range 0..{n-1}"
            )
            return
        uid = event.msg.uid
        if uid in self._received_uids:
            self._report(
                idx, f"[{idx}] {event!r}: message {uid} received twice"
            )
            return
        queue = self._channels[(event.src, proc)]
        if not queue:
            self._report(
                idx,
                f"[{idx}] {event!r}: receive with empty channel "
                f"C_{{{event.src},{proc}}} (no matching send)",
            )
            return
        head = queue[0]
        if head != uid:
            if self._recoverable and uid in queue:
                # Lossy FIFO: anything older on the channel was lost
                # while the receiver was down; discard it.
                while queue[0] != uid:
                    queue.popleft()
                queue.popleft()
            else:
                self._report(
                    idx,
                    f"[{idx}] {event!r}: FIFO violation on channel "
                    f"C_{{{event.src},{proc}}} — head is {head}, "
                    f"received {uid}",
                )
                # Remove it anyway if present, to localize the error.
                try:
                    queue.remove(uid)
                except ValueError:
                    return
        else:
            queue.popleft()
        self._received_uids.add(uid)

    def on_crash(self, idx, event, vector) -> None:
        if self._guard(idx, event):
            return
        proc = event.proc
        if proc in self._crashed:
            self._report(idx, f"[{idx}] {event!r}: duplicate crash event")
        self._crashed.add(proc)

    def on_recover(self, idx, event, vector) -> None:
        if self._guard(idx, event, crash_exempt=self._recoverable):
            return
        proc = event.proc
        if not self._recoverable:
            self._report(
                idx,
                f"[{idx}] {event!r}: recover event under a "
                f"non-recoverable failure model",
            )
            return
        if proc not in self._crashed:
            self._report(
                idx,
                f"[{idx}] {event!r}: recover of process {proc} "
                f"that is not crashed",
            )
        expected = self._incarnations.get(proc, 0) + 1
        if event.incarnation != expected:
            self._report(
                idx,
                f"[{idx}] {event!r}: incarnation {event.incarnation} "
                f"out of order (expected {expected})",
            )
        self._incarnations[proc] = event.incarnation
        self._crashed.discard(proc)

    def on_failed(self, idx, event, vector) -> None:
        if self._guard(idx, event):
            return
        n = self._n
        proc = event.proc
        if not (0 <= event.target < n):
            self._report(
                idx, f"[{idx}] {event!r}: target out of range 0..{n-1}"
            )
            return
        key = (proc, event.target)
        if key in self._detected:
            self._report(
                idx,
                f"[{idx}] {event!r}: duplicate failure detection "
                f"failed_{proc}({event.target})",
            )
        self._detected.add(key)

    def on_internal(self, idx, event, vector) -> None:
        self._guard(idx, event)

    handlers = {
        SendEvent: on_send,
        RecvEvent: on_recv,
        CrashEvent: on_crash,
        RecoverEvent: on_recover,
        FailedEvent: on_failed,
        InternalEvent: on_internal,
    }


def validate_history(
    history: History, failure_model: str = "fail-stop"
) -> list[str]:
    """Return every well-formedness violation in ``history`` (empty if ok)."""
    state = ValidationState(history.n, failure_model)
    for idx, event in enumerate(history):
        state.observe(idx, event)
    return state.violations


def is_valid(history: History, failure_model: str = "fail-stop") -> bool:
    """True iff ``history`` has no well-formedness violations."""
    return not validate_history(history, failure_model)


def check_valid(
    history: History, failure_model: str = "fail-stop"
) -> History:
    """Raise :class:`InvalidHistoryError` if invalid; else return history."""
    violations = validate_history(history, failure_model)
    if violations:
        raise InvalidHistoryError(violations)
    return history
