"""Per-channel FIFO links on the event loop, for the asyncio host.

The wall-clock counterpart of :mod:`repro.sim.network`'s ``send`` /
``fanout``: every directed pair of processes is one queue, and its pump
sleeps a sampled delay for the message at the head, delivers it, then
starts on the next — so per-channel FIFO holds however the delays vary
(later messages wait behind slower earlier ones, as the model requires).
The pump is a callback on the host's clock rather than a task, so a
delivery that raises ends the run like any other host callback.

The transport carries messages the sender has already minted and records
nothing: ``SimProcess`` mints, ``World.transmit`` records app sends.
"""

from __future__ import annotations

import random
from collections import deque
from typing import TYPE_CHECKING, Callable, Hashable, Sequence

from repro.core.messages import Message, MessageMint
from repro.errors import SimulationError
from repro.sim.delays import DelayModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.host import AsyncioClock

DeliverCallback = Callable[[int, int, Message, str], None]
"""``(src, dst, message, kind)`` invoked in-loop at delivery time."""


class LocalTransport:
    """All-pairs FIFO channels over one clock.

    Args:
        clock: the host's :class:`~repro.runtime.host.AsyncioClock`.
        n: number of processes (ids ``0 .. n-1``).
        deliver: called once per message, in channel order.
        delay_model: per-message delay, in units of ``time_scale`` seconds.
        rng: source of the delay draws.
        time_scale: seconds per delay-model unit.
    """

    def __init__(
        self,
        clock: "AsyncioClock",
        n: int,
        deliver: DeliverCallback,
        delay_model: DelayModel,
        rng: random.Random,
        time_scale: float,
    ):
        self.n = n
        self._clock = clock
        self._deliver = deliver
        self._delay_model = delay_model
        self._rng = rng
        self._time_scale = time_scale
        # (src, dst) -> messages not yet delivered; the head is in flight.
        self._queues: dict[tuple[int, int], deque[tuple[Message, str]]] = {}

    def send(self, src: int, dst: int, msg: Message, kind: str = "app") -> None:
        """Queue ``msg`` for FIFO delivery on the channel ``src -> dst``."""
        if not (0 <= src < self.n and 0 <= dst < self.n):
            raise SimulationError(f"send outside process universe: {src}->{dst}")
        queue = self._queues.get((src, dst))
        if queue is None:
            queue = self._queues[(src, dst)] = deque()
        queue.append((msg, kind))
        if len(queue) == 1:
            self._pump(src, dst)

    def fanout(
        self,
        src: int,
        dsts: Sequence[int],
        mint: MessageMint,
        payload: Hashable,
        kind: str,
    ) -> list[Message]:
        """Mint one message per destination and :meth:`send` each, in order."""
        minted = []
        for dst in dsts:
            msg = mint.mint(payload)
            self.send(src, dst, msg, kind)
            minted.append(msg)
        return minted

    def _pump(self, src: int, dst: int) -> None:
        """Deliver the channel's head message after one sampled delay."""
        delay = self._delay_model.sample(self._rng, src, dst)
        clock = self._clock
        clock.schedule_callback_at(
            clock._now + max(delay, 0.0) * self._time_scale,
            lambda: self._arrive(src, dst),
        )

    def _arrive(self, src: int, dst: int) -> None:
        queue = self._queues[(src, dst)]
        msg, kind = queue.popleft()
        if queue:
            self._pump(src, dst)
        self._deliver(src, dst, msg, kind)
