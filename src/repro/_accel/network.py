"""Accelerated network surface (see ``repro.sim.network``).

The hot path — ``send``, burst formation, and burst draining — lives in
the C ``NetworkCore``; this subclass supplies the constructor defaults
and the cold adversary/introspection methods, all byte-for-byte the pure
semantics (the docstrings there are authoritative).
"""

from __future__ import annotations

import random
from typing import Callable

from repro._accel._ccore import (  # noqa: F401  (re-exported surface)
    NetworkCore,
    _Burst,
    _ChannelState,
)
from repro.core.messages import Message

DeliverFn = Callable[[int, int, Message, str], None]
HoldPredicate = Callable[[int, int, Message], bool]

KINDS = ("app", "protocol", "system")


class Network(NetworkCore):
    """All n^2 channels (including self-channels, used by Section 5)."""

    def __init__(
        self,
        scheduler,
        n: int,
        delay_model=None,
        rng: random.Random | None = None,
        deliver: DeliverFn | None = None,
        batch: bool = True,
    ):
        if delay_model is None:
            # Imported lazily: a top-level import of repro.sim.delays
            # would pull the whole repro.sim package in before this
            # module finishes, which is circular when this module is
            # what repro.sim.network is waiting on.
            from repro.sim.delays import UniformDelay

            delay_model = UniformDelay()
        super().__init__(
            scheduler,
            n,
            delay_model,
            rng or random.Random(0),
            deliver,
            batch,
        )

    # ------------------------------------------------------------------
    # Unbatched delivery (per-message closure; reference/debug path)
    # ------------------------------------------------------------------

    def _open_unbatched(
        self, state, src, dst, msg, kind, due, periodic
    ) -> None:
        """Per-message delivery entry for ``batch=False`` (cold path)."""

        def deliver() -> None:
            state.delivered += 1
            self.messages_delivered += 1
            deliver_fn = self._deliver_fn
            assert deliver_fn is not None
            deliver_fn(src, dst, msg, kind)

        self.delivery_entries += 1
        self._scheduler.schedule_callback_at(due, deliver, periodic=periodic)

    # ------------------------------------------------------------------
    # Adversary interface (used via repro.sim.adversary)
    # ------------------------------------------------------------------

    def _matches_hold(self, src: int, dst: int, msg: Message) -> bool:
        return any(pred(src, dst, msg) for pred in self._hold_predicates)

    def add_hold_predicate(self, predicate: HoldPredicate) -> HoldPredicate:
        """Install a hold rule; returns it for later removal."""
        self._hold_predicates.append(predicate)
        return predicate

    def remove_hold_predicate(self, predicate: HoldPredicate) -> None:
        """Remove a previously installed hold rule."""
        self._hold_predicates.remove(predicate)

    def block_channel(self, src: int, dst: int) -> None:
        """Unconditionally hold all future traffic on C_{src,dst}."""
        self._state(src, dst).blocked = True

    def release_channel(self, src: int, dst: int) -> int:
        """Deliver a blocked channel's queue (FIFO) and unblock it."""
        state = self._state(src, dst)
        state.blocked = False
        held, state.held = state.held, []
        if not held:
            return 0
        delays = self._delay_model.sample_batch(
            self._rng, [(src, dst)] * len(held)
        )
        for (msg, kind), delay in zip(held, delays):
            self._schedule_delivery(state, src, dst, msg, kind, delay)
        return len(held)

    def clear_holds(self) -> int:
        """Remove every installed hold rule; returns how many removed."""
        removed = len(self._hold_predicates)
        self._hold_predicates.clear()
        return removed

    def release_all(self) -> int:
        """Release every blocked channel; returns messages released."""
        released = 0
        for (src, dst), state in self._channels.items():
            if state.blocked or state.held:
                released += self.release_channel(src, dst)
        return released

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def held_messages(self) -> dict[tuple[int, int], int]:
        """How many messages are currently held, per blocked channel."""
        return {
            channel: len(state.held)
            for channel, state in self._channels.items()
            if state.held
        }

    def channel_stats(self) -> dict[tuple[int, int], tuple[int, int]]:
        """Per-channel ``(sent, delivered)`` counters."""
        return {
            channel: (state.sent, state.delivered)
            for channel, state in self._channels.items()
        }
