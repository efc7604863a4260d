"""Black-box crash-recovery wrapper for crash-stop protocols (YOLMT).

"You Only Live Multiple Times" shows that a protocol designed for the
crash-stop model can run unmodified under crash-recovery if a wrapper
(1) persists the protocol's full state to stable storage after every
step *of the protocol*, (2) restores it on recovery, and (3) filters
the message stream so the restored automaton never observes anything a
crash-stop run could not produce: duplicates are dropped by uid, and
self-addressed messages minted by an earlier incarnation are discarded
(the restored state already reflects or supersedes them).

:func:`make_recovering` implements exactly that as a class factory: it
wraps any :class:`~repro.sim.process.SimProcess` subclass and, like a
write-ahead log, serialises once per step and reads back only on
recovery. A persist encodes the instance ``__dict__`` minus the
*volatile denylist* (world wiring, timers, the message mint — which must
keep minting globally unique uids across incarnations — and deferred app
traffic, which is genuinely lost at a crash) into one immutable
``bytes`` value that never leaves the in-process
:class:`~repro.sim.storage.StableStore`; a recovery *replaces* the
non-volatile attributes with the decoded snapshot. System deliveries
(heartbeats) are not protocol steps — they reach only the detector
driver, which is volatile — and persist nothing. The wrapped class is
what the fuzzer runs when ``failure_model="crash-recovery"``: the
paper's protocols themselves stay byte-for-byte untouched.
"""

from __future__ import annotations

import pickle

from repro.core.messages import Message
from repro.errors import ProtocolError
from repro.sim.process import SimProcess

#: Instance attributes that do NOT survive a crash (or must never be
#: overwritten by a restore): simulator wiring (the cached broadcast
#: target lists with it), timer handles, the message mint, lifecycle
#: flags, the detector driver object (restarted, not restored), and
#: deferred-but-unconsumed application traffic.
VOLATILE_ATTRS = frozenset(
    {
        "pid",
        "crashed",
        "incarnation",
        "_world",
        "_mint",
        "_peers",
        "_everyone",
        "_timers",
        "_timer_prune_at",
        "_detector",
        "_deferred",
    }
)

_STATE_KEY = "yolmt:state"
_PROCESSED_KEY = "yolmt:processed"

_ENCODE_ERRORS = (pickle.PicklingError, AttributeError, TypeError)

_WRAPPED: dict[type, type] = {}


def _unencodable(state: dict) -> list[str]:
    """The attribute names in ``state`` whose values do not pickle."""
    bad = []
    for key, value in state.items():
        try:
            pickle.dumps(value, pickle.HIGHEST_PROTOCOL)
        except _ENCODE_ERRORS:
            bad.append(key)
    return bad


def make_recovering(cls: type) -> type:
    """The crash-recovery wrapper of ``cls`` (cached per class).

    Idempotent: wrapping an already-wrapped class returns it unchanged.
    """
    if getattr(cls, "_yolmt_wrapper", False):
        return cls
    cached = _WRAPPED.get(cls)
    if cached is not None:
        return cached

    class Recovering(cls):  # type: ignore[misc, valid-type]
        _yolmt_wrapper = True

        # -- persistence -------------------------------------------------

        def _persist(self) -> None:
            state = self.__dict__.copy()
            for key in VOLATILE_ATTRS:
                state.pop(key, None)
            try:
                encoded = pickle.dumps(state, pickle.HIGHEST_PROTOCOL)
            except _ENCODE_ERRORS:
                raise ProtocolError(
                    f"{type(self).__name__} cannot persist "
                    f"{', '.join(_unencodable(state))}: stable storage "
                    "holds an encoding, so the state must be picklable"
                ) from None
            self.stable.put(_STATE_KEY, encoded)

        def on_start(self) -> None:
            super().on_start()
            self._persist()

        # -- filtered delivery ------------------------------------------

        def send(self, dst, payload, kind: str = "app") -> Message | None:
            msg = super().send(dst, payload, kind)
            if msg is not None and dst == self.pid:
                # Stamp self-addressed traffic with the minting
                # incarnation so a later self can discard it as stale.
                self.stable.put(("yolmt:self", msg.uid), self.incarnation)
            return msg

        def broadcast(
            self, payload, include_self: bool = False, kind: str = "app"
        ) -> list[Message]:
            sent = super().broadcast(payload, include_self, kind)
            if include_self and kind != "app" and sent:
                # A fan-out does not pass through send(): stamp its
                # self-addressed copy here (destinations are 0..n-1 in
                # order, so that copy is the one at index pid).
                self.stable.put(
                    ("yolmt:self", sent[self.pid].uid), self.incarnation
                )
            return sent

        def deliver(self, src: int, msg: Message, kind: str) -> None:
            if not self.crashed and src == self.pid:
                minted = self.stable.get(("yolmt:self", msg.uid))
                if minted is not None and minted < self.incarnation:
                    return  # minted by a dead incarnation: drop
            super().deliver(src, msg, kind)
            # A system delivery goes to the detector driver, which is
            # volatile; what it does to persisted state goes through
            # suspect(), which persists itself.
            if kind != "system" and not self.crashed:
                self._persist()

        def consume(self, src: int, msg: Message) -> None:
            processed = self.stable.get(_PROCESSED_KEY)
            if processed is None:
                processed = set()
                self.stable.put(_PROCESSED_KEY, processed)
            if msg.uid in processed:
                return  # stable-storage dedup: already consumed once
            processed.add(msg.uid)
            super().consume(src, msg)

        def suspect(self, target: int) -> None:
            # Suspicions arrive from timer context (detector timeouts),
            # outside any delivery — persist their effect explicitly.
            super().suspect(target)
            if not self.crashed:
                self._persist()

        # -- recovery ----------------------------------------------------

        def on_recover(self) -> None:
            super().on_recover()
            encoded = self.stable.get(_STATE_KEY)
            if encoded is not None:
                # Replace, not merge: an attribute a crashed half step
                # created was never persisted and must not outlive it.
                attrs = self.__dict__
                for key in attrs.keys() - VOLATILE_ATTRS:
                    del attrs[key]
                attrs.update(pickle.loads(encoded))
            deferred = getattr(self, "_deferred", None)
            if deferred is not None:
                deferred.clear()  # volatile: lost with the crash
            detector = getattr(self, "_detector", None)
            if detector is not None:
                detector.start(self)  # re-arm heartbeat/check timers
            self._persist()

    Recovering.__name__ = f"Recovering{cls.__name__}"
    Recovering.__qualname__ = f"Recovering{cls.__qualname__}"
    _WRAPPED[cls] = Recovering
    return Recovering


def is_recovering(process: SimProcess | type) -> bool:
    """Whether a process (or class) carries the crash-recovery wrapper."""
    target = process if isinstance(process, type) else type(process)
    return bool(getattr(target, "_yolmt_wrapper", False))
