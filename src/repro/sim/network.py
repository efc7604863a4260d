"""Reliable FIFO channels with unbounded, adversary-controllable delay.

Models the paper's communication substrate exactly (Section 2): between any
two processes *i* and *j* there is a unidirectional channel C_{i,j} that
does not lose, generate, garble, or reorder messages, but may take
arbitrarily long — including "indefinitely", when the adversary holds it.

FIFO is enforced structurally: each channel keeps a *clock* (the delivery
time of the last message scheduled on it) and every new delivery is
scheduled no earlier than that clock, whatever the sampled delay. Held
messages queue per channel in send order, and everything sent after a held
message queues behind it — the paper's "delayed behind the previous
messages (recall that interprocess channels are FIFO)".

Messages carry a *kind*:

* ``"app"`` — application traffic: the modelled event alphabet. Only these
  sends/receives appear in recorded histories.
* ``"protocol"`` — SUSP/ACK traffic of the failure-detection protocols.
  The paper's formal properties constrain ``crash``/``failed`` events and
  application messages; the detection protocol is the *implementation* of
  the failure model and, like the timeout mechanism, belongs to the
  "underlying system". (Concretely: a Section 5 participant acknowledges
  suspicion notices while its own round is open — if those
  acknowledgement receives were modelled events, the paper's own protocol
  would violate the letter of sFS2d.)
* ``"system"`` — heartbeats and other liveness machinery.

All kinds ride the same FIFO channels with the same delays and are held by
the same adversary rules — the distinction is purely about which events
the formal model sees.

Delivery is *batched* by default: messages bound for the same channel at
the same delivery tick share one scheduler entry (a burst) that drains
them in send order, instead of one heap entry and one closure per message.
Bursts form whenever the FIFO channel clock clamps successive dues
together — a backlogged channel, a held channel being released, or a
multi-send at one instant under near-constant delay — which is exactly the
long-run/backpressure regime where heap pressure hurts. A burst is only
joined when provably safe for determinism: the burst must be the most
recently scheduled entry (nothing else has entered the scheduler since)
and the newcomer must have the same due time and periodic class, so the
batched path produces **bit-identical event traces** to the per-message
path (``batch=False``, guarded by ``tests/sim/test_determinism.py``).

A *fan-out* (:meth:`Network.fanout`) is the one multi-destination entry:
the Section 5 broadcast, a heartbeat beat. It mints one message per
destination and hands each to the per-message send body in destination
order, so it is n sends by construction — the same checks and counters,
the same hold test, one ``delay_model.sample`` draw per accepted message
in the same rng order, the same FIFO clamp. Bursts come out equal too,
because the join rule looks only at the channel's pending burst and the
scheduler's last sequence number, both of which each message leaves
exactly as a lone ``send`` would. What it saves is the per-destination
Python call chain above the network (and, in the compiled core, the
``Message.__init__`` call), not any of the work below it.
"""

from __future__ import annotations

import random
from collections import deque
from heapq import heappush
from typing import Callable, Hashable, Sequence

from repro.core.messages import Message, MessageMint
from repro.errors import SimulationError
from repro.sim.delays import DelayModel, UniformDelay
from repro.sim.scheduler import Scheduler, _Entry

DeliverFn = Callable[[int, int, Message, str], None]
"""Callback ``(src, dst, message, kind)`` invoked at delivery time."""

HoldPredicate = Callable[[int, int, Message], bool]
"""Adversary predicate deciding whether a send starts (or joins) a hold."""

KINDS = ("app", "protocol", "system")
"""Valid message kinds (see module docstring)."""


class _ChannelState:
    """Per-channel bookkeeping (a ``__slots__`` class: one instance per
    ``(src, dst)`` pair, and its attributes are read/written on every
    message send — the dict-backed dataclass form showed up in profiles).
    """

    __slots__ = (
        "clock",
        "held",
        "blocked",
        "sent",
        "delivered",
        "burst",
    )

    def __init__(self) -> None:
        self.clock = 0.0  # earliest time the next delivery may occur
        self.held: list[tuple[Message, str]] = []
        self.blocked = False
        self.sent = 0
        self.delivered = 0
        # Pending delivery burst: the _Burst behind the channel's most
        # recently scheduled delivery entry. Cleared (not emptied) when the
        # entry fires, so idle channels never retain dead bursts.
        self.burst: "_Burst | None" = None


class _Burst:
    """One scheduled delivery entry and the messages riding on it.

    Most bursts carry exactly one message (only a clamped FIFO clock or a
    multi-send at one instant grows them), so the first message lives
    inline in ``msg``/``kind`` and the overflow ``queue`` is materialised
    lazily on the first join — the earlier closure-per-burst form paid a
    deque, a cell-heavy closure, and a seq list on every delivery.

    ``seq`` is the burst entry's own scheduler sequence number. It doubles
    as the join guard: a newcomer may only join while this burst is still
    the scheduler's most recently scheduled entry (``seq ==
    scheduler._last_seq``), which is what keeps the batched path
    bit-identical to per-message delivery (see :meth:`Network.send`).
    """

    __slots__ = (
        "network", "state", "src", "dst",
        "msg", "kind", "queue", "due", "periodic", "seq",
    )

    def __init__(
        self,
        network: "Network",
        state: _ChannelState,
        src: int,
        dst: int,
        msg: Message,
        kind: str,
        due: float,
        periodic: bool,
    ) -> None:
        self.network = network
        self.state = state
        self.src = src
        self.dst = dst
        self.msg = msg
        self.kind = kind
        self.queue: deque[tuple[Message, str]] | None = None
        self.due = due
        self.periodic = periodic
        self.seq = -1  # filled right after the entry is scheduled

    def fire(self) -> None:
        """Drain the burst in send order (the scheduled callback)."""
        # Detach from channel state *before* draining: a fired burst is
        # never rejoined (reentrant sends during the drain open a fresh
        # entry), and idle channels keep no dead bursts around afterwards.
        state = self.state
        if state.burst is self:
            state.burst = None
        network = self.network
        src = self.src
        dst = self.dst
        targets = network._targets
        if targets is not None:
            # Direct table dispatch: one bound ``deliver`` for the whole
            # drain (dst is fixed per channel), skipping the per-message
            # callback hop through the world.
            deliver = targets[dst].deliver
            # The first message is delivered unconditionally — matching
            # the per-message path, each firing makes progress before any
            # stop check (request_stop halts *between* entries there).
            state.delivered += 1
            network.messages_delivered += 1
            deliver(src, self.msg, self.kind)
            queue = self.queue
            if queue:
                scheduler = network._scheduler
                while queue:
                    if scheduler._stop_requested:
                        # A delivery in this burst tripped a streaming
                        # monitor (Scheduler.request_stop fired
                        # mid-drain). Requeue the remainder — at the
                        # burst entry's own (time, seq) priority, not a
                        # fresh seq — instead of draining past the stop:
                        # the halted trace is then bit-identical to the
                        # per-message path, and a cleared scheduler
                        # resumes the leftovers *ahead of* any same-tick
                        # entry scheduled after the burst formed, exactly
                        # where the per-message entries would have sat.
                        self.msg, self.kind = queue.popleft()
                        network.delivery_entries += 1
                        scheduler.reschedule_interrupted(
                            self.due, self.seq, self.fire,
                            periodic=self.periodic,
                        )
                        return
                    burst_msg, burst_kind = queue.popleft()
                    state.delivered += 1
                    network.messages_delivered += 1
                    deliver(src, burst_msg, burst_kind)
        else:
            deliver_fn = network._deliver_fn
            assert deliver_fn is not None
            state.delivered += 1
            network.messages_delivered += 1
            deliver_fn(src, dst, self.msg, self.kind)
            queue = self.queue
            if queue:
                scheduler = network._scheduler
                while queue:
                    if scheduler._stop_requested:
                        self.msg, self.kind = queue.popleft()
                        network.delivery_entries += 1
                        scheduler.reschedule_interrupted(
                            self.due, self.seq, self.fire,
                            periodic=self.periodic,
                        )
                        return
                    burst_msg, burst_kind = queue.popleft()
                    state.delivered += 1
                    network.messages_delivered += 1
                    deliver_fn(src, dst, burst_msg, burst_kind)


class _NetworkColdPaths:
    """The adversary and introspection methods of ``Network``.

    Off the hot path, so written once: the pure ``Network`` below and the
    compiled one (at the bottom of this module) both inherit them and supply
    ``_hold_predicates``, ``_channels``, ``_delay_model``, ``_rng``,
    ``_state`` and ``_schedule_delivery``.
    """

    def _matches_hold(self, src: int, dst: int, msg: Message) -> bool:
        return any(pred(src, dst, msg) for pred in self._hold_predicates)

    # ------------------------------------------------------------------
    # Adversary interface (used via repro.sim.adversary)
    # ------------------------------------------------------------------

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
        """Deliver a blocked channel's queue (FIFO) and unblock it.

        Returns the number of messages released. Messages are re-subjected
        to the delay model (one ``sample`` per message, in queue order)
        but the channel clock preserves their order; the released queue
        then typically collapses into a single delivery burst.
        """
        state = self._state(src, dst)
        state.blocked = False
        held, state.held = state.held, []
        for msg, kind in held:
            self._schedule_delivery(state, src, dst, msg, kind)
        return len(held)

    def clear_holds(self) -> int:
        """Remove every installed hold rule; returns how many were removed.

        Dropping the rules is deliberately separate from
        :meth:`release_all`: a partial release (delivering what is queued)
        must not silently discard unrelated content-hold rules that should
        keep applying to future traffic. :meth:`Adversary.heal
        <repro.sim.adversary.Adversary.heal>` does both.
        """
        removed = len(self._hold_predicates)
        self._hold_predicates.clear()
        return removed

    def release_all(self) -> int:
        """Release every blocked channel; returns messages released.

        Installed hold predicates stay in force: traffic sent *after* the
        release that matches a rule is held again. Call
        :meth:`clear_holds` first (as ``Adversary.heal`` does) for a full
        return to normal service.
        """
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


class Network(_NetworkColdPaths):
    """All n^2 channels (including self-channels, used by Section 5)."""

    def __init__(
        self,
        scheduler: Scheduler,
        n: int,
        delay_model: DelayModel | None = None,
        rng: random.Random | None = None,
        deliver: DeliverFn | None = None,
        batch: bool = True,
    ):
        self._scheduler = scheduler
        self._n = n
        self._delay_model = delay_model or UniformDelay()
        self._rng = rng or random.Random(0)
        self._deliver_fn = deliver
        self._batch = batch
        self._channels: dict[tuple[int, int], _ChannelState] = {}
        # Flat channel table indexed by ``src * n + dst`` — the hot-path
        # view of ``_channels`` (which stays authoritative for iteration
        # and inspection). Saves a tuple build + hash per send.
        self._flat: list[_ChannelState | None] = [None] * (n * n)
        self._hold_predicates: list[HoldPredicate] = []
        self.sent_by_kind: dict[str, int] = {kind: 0 for kind in KINDS}
        self.messages_delivered = 0
        self.delivery_entries = 0  # scheduler entries used for deliveries
        # Direct delivery table (processes indexed by pid), installed by
        # the World; None falls back to the _deliver_fn callback seam.
        self._targets: list | None = None

    def set_deliver(self, deliver: DeliverFn) -> None:
        """Install the delivery callback (done by the World during wiring)."""
        self._deliver_fn = deliver

    def set_delivery_table(self, processes: list) -> None:
        """Install direct per-process delivery for the hot path.

        With a table installed, burst firings call
        ``processes[dst].deliver(src, msg, kind)`` straight off, skipping
        the ``deliver`` callback hop; the callback form stays in place as
        the seam for tests and custom consumers (and still serves the
        unbatched path). The semantics must be identical — the World's
        callback is exactly this table lookup.
        """
        self._targets = processes

    @property
    def n(self) -> int:
        """Number of processes."""
        return self._n

    def _state(self, src: int, dst: int) -> _ChannelState:
        idx = src * self._n + dst
        state = self._flat[idx]
        if state is None:
            state = self._flat[idx] = Pure_ChannelState()
            self._channels[(src, dst)] = state
        return state

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def send(self, src: int, dst: int, msg: Message, kind: str = "app") -> None:
        """Accept a message for eventual FIFO delivery on C_{src,dst}."""
        if not (0 <= src < self._n and 0 <= dst < self._n):
            raise SimulationError(f"send outside process universe: {src}->{dst}")
        if self._deliver_fn is None:
            raise SimulationError("network has no delivery callback installed")
        if kind not in KINDS:
            raise SimulationError(f"unknown message kind {kind!r}")
        idx = src * self._n + dst
        state = self._flat[idx]
        if state is None:
            state = self._flat[idx] = Pure_ChannelState()
            self._channels[(src, dst)] = state
        state.sent += 1
        self.sent_by_kind[kind] += 1
        # Fast path: with no hold rules installed (the overwhelmingly
        # common case in large sweeps) a send goes straight to delivery
        # without scanning an empty predicate list per message.
        if state.blocked or (
            self._hold_predicates and self._matches_hold(src, dst, msg)
        ):
            state.blocked = True
            state.held.append((msg, kind))
            return
        # The rest is _schedule_delivery, inlined: sample the delay, clamp
        # the due time to the FIFO channel clock, and join the channel's
        # pending burst when provably safe (see _schedule_delivery for the
        # argument). This runs once per message in every simulation — the
        # call layers it replaces were a measurable share of the profile.
        delay = self._delay_model.sample(self._rng, src, dst)
        if delay < 0:
            raise SimulationError(f"delay model produced negative delay {delay}")
        scheduler = self._scheduler
        due = scheduler._now + delay
        if state.clock > due:
            due = state.clock
        state.clock = due
        periodic = kind == "system"
        burst = state.burst
        if (
            burst is not None
            and self._batch
            and burst.due == due
            and burst.periodic == periodic
            and burst.seq == scheduler._last_seq
        ):
            queue = burst.queue
            if queue is None:
                burst.queue = deque(((msg, kind),))
            else:
                queue.append((msg, kind))
            return
        self._open_delivery(state, src, dst, msg, kind, due, periodic)

    def fanout(
        self,
        src: int,
        dsts: Sequence[int],
        mint: MessageMint,
        payload: Hashable,
        kind: str,
    ) -> list[Message]:
        """Mint one message per destination and :meth:`send` each, in order.

        Returns the minted messages. A refused message (say, a
        destination outside the universe) raises out of the loop with
        the earlier ones accepted and ``mint`` advanced past exactly
        those.
        """
        send = self.send
        sender = mint.sender
        minted = []
        for dst in dsts:
            msg = Message(sender, mint._next_seq, payload)
            send(src, dst, msg, kind)
            mint._next_seq += 1
            minted.append(msg)
        return minted

    def _schedule_delivery(
        self,
        state: _ChannelState,
        src: int,
        dst: int,
        msg: Message,
        kind: str,
    ) -> None:
        """Sample a delay and queue one delivery on ``state``'s channel.

        What a released message goes through; :meth:`send` inlines this
        same logic.
        """
        delay = self._delay_model.sample(self._rng, src, dst)
        if delay < 0:
            raise SimulationError(f"delay model produced negative delay {delay}")
        scheduler = self._scheduler
        due = scheduler._now + delay
        if state.clock > due:
            due = state.clock
        state.clock = due
        periodic = kind == "system"
        # Join the channel's pending burst when that is provably
        # order-preserving: same due tick, same periodic class, and the
        # burst entry is still the scheduler's most recent entry —
        # nothing else has been scheduled since, so no third callback
        # can hold a tie-breaking sequence number between the burst and
        # this message. Equal-time entries run first-scheduled-first,
        # hence the drained burst replays exactly the per-message order.
        burst = state.burst
        if (
            burst is not None
            and self._batch
            and burst.due == due
            and burst.periodic == periodic
            and burst.seq == scheduler._last_seq
        ):
            queue = burst.queue
            if queue is None:
                burst.queue = deque(((msg, kind),))
            else:
                queue.append((msg, kind))
            return
        self._open_delivery(state, src, dst, msg, kind, due, periodic)

    def _open_delivery(
        self,
        state: _ChannelState,
        src: int,
        dst: int,
        msg: Message,
        kind: str,
        due: float,
        periodic: bool,
    ) -> None:
        """Open a fresh delivery entry (burst or single) at ``due``."""
        scheduler = self._scheduler
        if self._batch:
            burst = Pure_Burst(self, state, src, dst, msg, kind, due, periodic)
            state.burst = burst
            self.delivery_entries += 1
            # Scheduler.schedule_callback_at, inlined (once per delivery
            # entry — the call layer was a top-five profile line). The
            # past-time guard is dropped on purpose: ``due = now + delay``
            # with ``delay >= 0`` (checked by the callers), clamped only
            # *upward* by the channel clock, so ``due >= now`` holds by
            # construction.
            seq = scheduler._seq
            scheduler._seq = seq + 1
            scheduler._last_seq = seq
            burst.seq = seq
            entry = _Entry(due, seq, burst.fire, False, periodic)
            heappush(scheduler._queue, (due, seq, entry))
            scheduler._pending += 1
            if not periodic:
                scheduler._pending_nonperiodic += 1
            return

        def deliver() -> None:
            state.delivered += 1
            self.messages_delivered += 1
            assert self._deliver_fn is not None
            self._deliver_fn(src, dst, msg, kind)

        self.delivery_entries += 1
        scheduler.schedule_callback_at(due, deliver, periodic=periodic)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def app_messages_sent(self) -> int:
        """Application (modelled) messages accepted so far."""
        return self.sent_by_kind["app"]

    @property
    def protocol_messages_sent(self) -> int:
        """Failure-detection protocol messages accepted so far."""
        return self.sent_by_kind["protocol"]

    @property
    def system_messages_sent(self) -> int:
        """Heartbeat/system messages accepted so far."""
        return self.sent_by_kind["system"]


# ---------------------------------------------------------------------------
# Core selection (see repro._core): the pure classes stay importable as
# the Pure* aliases — the authoritative reference for the compiled core.
# Pure-internal constructions of helper objects go through the aliases so
# the pure implementation keeps working after the rebind below.
# ---------------------------------------------------------------------------

PureNetwork = Network
Pure_Burst = _Burst
Pure_ChannelState = _ChannelState

from repro._core import USE_ACCEL  # noqa: E402

if USE_ACCEL:  # pragma: no cover - the coverage job measures the pure core
    from repro._accel._ccore import (  # noqa: E402,F811
        NetworkCore,
        _Burst,
        _ChannelState,
        _install_message,
    )

    _install_message(Message)  # the class NetworkCore.fanout mints

    class Network(NetworkCore, _NetworkColdPaths):  # noqa: F811
        """All n^2 channels (including self-channels, used by Section 5).

        The hot path — ``send``, ``fanout``, burst formation, and burst
        draining — lives in the C ``NetworkCore``; this subclass supplies the
        constructor defaults and the unbatched delivery entry.
        """

        def __init__(
            self,
            scheduler,
            n: int,
            delay_model: DelayModel | None = None,
            rng: random.Random | None = None,
            deliver: DeliverFn | None = None,
            batch: bool = True,
        ):
            super().__init__(
                scheduler,
                n,
                delay_model or UniformDelay(),
                rng or random.Random(0),
                deliver,
                batch,
            )

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
            self._scheduler.schedule_callback_at(
                due, deliver, periodic=periodic
            )
