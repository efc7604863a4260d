"""Events of the formal system model (Section 2 and Appendix A.1).

The paper defines four kinds of non-null events, each local to exactly one
process:

* ``send_i(j, m)`` — process *i* appends message *m* to channel C_{i,j};
* ``recv_i(j, m)`` — process *i* removes *m* from the head of C_{j,i};
* ``crash_i`` — the boolean ``crash_i`` becomes true and *i*'s state
  freezes forever;
* ``failed_i(j)`` — the boolean ``failed_i(j)`` becomes true: *i* has
  detected the crash of *j*.

We add :class:`InternalEvent` for application-level state changes that are
neither communication nor failure bookkeeping; it does not affect any of the
paper's predicates but lets applications (election, last-to-fail) leave
observable marks in a history.

:class:`RecoverEvent` extends the alphabet beyond the paper's fail-stop
world: under the *crash-recovery* failure model
(:mod:`repro.core.failure_models`) a crashed process may come back up,
carrying a strictly increasing *incarnation* number. Under the default
fail-stop model a recover event never occurs (and is a well-formedness
violation if it does), so every fail-stop history is exactly a paper
history.

Events are immutable value objects. A well-formed history never contains the
same event twice (messages are unique, ``crash_i`` happens at most once, and
``failed_i(j)`` happens at most once per ordered pair), which is checked by
:mod:`repro.core.validate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Union, get_args

from repro.core.messages import Message
from repro.errors import SimulationError


@dataclass(frozen=True, slots=True)
class SendEvent:
    """``send_i(j, m)``: process ``proc`` sends ``msg`` to process ``dst``."""

    proc: int
    dst: int
    msg: Message

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"send_{self.proc}({self.dst}, {self.msg!r})"


@dataclass(frozen=True, slots=True)
class RecvEvent:
    """``recv_i(j, m)``: process ``proc`` receives ``msg`` from ``src``."""

    proc: int
    src: int
    msg: Message

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"recv_{self.proc}({self.src}, {self.msg!r})"


@dataclass(frozen=True, slots=True)
class CrashEvent:
    """``crash_i``: process ``proc`` halts permanently."""

    proc: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"crash_{self.proc}"


@dataclass(frozen=True, slots=True)
class RecoverEvent:
    """``recover_i``: process ``proc`` comes back up as ``incarnation``.

    Only the crash-recovery failure model produces these; the incarnation
    number starts at 1 for the first recovery and increases by one per
    crash/recover round trip (incarnation 0 is the initial lifetime).
    """

    proc: int
    incarnation: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"recover_{self.proc}#{self.incarnation}"


@dataclass(frozen=True, slots=True)
class FailedEvent:
    """``failed_i(j)``: process ``proc`` detects the crash of ``target``."""

    proc: int
    target: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"failed_{self.proc}({self.target})"


@dataclass(frozen=True, slots=True)
class InternalEvent:
    """A local application event of process ``proc``, tagged for uniqueness.

    ``label`` describes the step (e.g. ``"become-leader"``); ``seq``
    disambiguates repeated labels on the same process.
    """

    proc: int
    label: Hashable
    seq: int = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"internal_{self.proc}({self.label!r}#{self.seq})"


Event = Union[
    SendEvent, RecvEvent, CrashEvent, RecoverEvent, FailedEvent, InternalEvent
]
"""Any event of the model (including the crash-recovery extension)."""

EVENT_KINDS: tuple[type, ...] = get_args(Event)
"""The closed event alphabet. No class in it has a subclass, so consumers
dispatch on class identity (``event.__class__``) through one table
lookup, and an object of any other class is an error, never skipped."""


def unknown_event_kind(event: object) -> SimulationError:
    """The error for an object outside the closed event alphabet."""
    known = ", ".join(kind.__name__ for kind in EVENT_KINDS)
    return SimulationError(
        f"{event!r} is not an event of the model: its class "
        f"{type(event).__name__} is none of {known}"
    )


def send(proc: int, dst: int, msg: Message) -> SendEvent:
    """Paper notation ``send_i(j, m)``."""
    return SendEvent(proc, dst, msg)


def recv(proc: int, src: int, msg: Message) -> RecvEvent:
    """Paper notation ``recv_i(j, m)`` — *i* receives *m* from *j*."""
    return RecvEvent(proc, src, msg)


def crash(proc: int) -> CrashEvent:
    """Paper notation ``crash_i``."""
    return CrashEvent(proc)


def recover(proc: int, incarnation: int) -> RecoverEvent:
    """Crash-recovery notation ``recover_i`` (incarnation-stamped)."""
    return RecoverEvent(proc, incarnation)


def failed(proc: int, target: int) -> FailedEvent:
    """Paper notation ``failed_i(j)``."""
    return FailedEvent(proc, target)


def internal(proc: int, label: Hashable, seq: int = 0) -> InternalEvent:
    """A tagged local application step."""
    return InternalEvent(proc, label, seq)


def is_send(event: Event) -> bool:
    """True iff ``event`` is a send event."""
    return isinstance(event, SendEvent)


def is_recv(event: Event) -> bool:
    """True iff ``event`` is a receive event."""
    return isinstance(event, RecvEvent)


def is_crash(event: Event) -> bool:
    """True iff ``event`` is a crash event."""
    return isinstance(event, CrashEvent)


def is_recover(event: Event) -> bool:
    """True iff ``event`` is a crash-recovery recover event."""
    return isinstance(event, RecoverEvent)


def is_failed(event: Event) -> bool:
    """True iff ``event`` is a failure-detection event."""
    return isinstance(event, FailedEvent)


def is_internal(event: Event) -> bool:
    """True iff ``event`` is an application-internal event."""
    return isinstance(event, InternalEvent)


def channel_of(event: Event) -> tuple[int, int] | None:
    """The directed channel an event touches, or ``None`` for local events.

    For ``send_i(j, m)`` this is ``(i, j)`` (channel C_{i,j}); for
    ``recv_i(j, m)`` it is ``(j, i)`` (the same channel, named from the
    sender's side), so a send and its matching receive report the same pair.
    """
    if isinstance(event, SendEvent):
        return (event.proc, event.dst)
    if isinstance(event, RecvEvent):
        return (event.src, event.proc)
    return None


def message_of(event: Event) -> Message | None:
    """The message carried by a send/receive event, else ``None``."""
    if isinstance(event, (SendEvent, RecvEvent)):
        return event.msg
    return None
