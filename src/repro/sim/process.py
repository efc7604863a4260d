"""Process automata for the simulated asynchronous system.

A :class:`SimProcess` is the unit of computation from Section 2: it reacts
to received messages (and, below the model, to timers), may send messages,
and can crash — after which it takes no further steps, ever *under the
default fail-stop model*. Under the crash-recovery failure model the world
may later call :meth:`SimProcess.recover_now`, which runs the lifecycle
``up → crashed → recovering → up``: the process keeps its pid and message
mint, loses all volatile state (timers, deferred work), bumps its
incarnation number, restores whatever it persisted to stable storage
(:attr:`SimProcess.stable`), and resumes taking steps. Subclasses
implement protocols (:mod:`repro.protocols`) and applications
(:mod:`repro.apps`) by overriding the ``on_*`` hooks.

Three layers of traffic (see :mod:`repro.sim.network`):

* **application messages** (``kind="app"``) appear in the recorded history
  as send/recv events and obey every rule of the formal model;
* **protocol messages** (``kind="protocol"``, the SUSP/ACK traffic) are
  the failure model's implementation — consumed immediately, never
  recorded as events;
* **system messages** (``kind="system"``, heartbeats) are the FS1 timeout
  machinery of the "underlying system".
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Hashable

from repro.core.messages import Message, MessageMint
from repro.errors import ProtocolError
from repro.sim.scheduler import TimerHandle

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.world import World

_TIMER_PRUNE_FLOOR = 32
"""Minimum tracked-timer count before pruning is considered."""


class SimProcess:
    """Base class for simulated processes.

    Lifecycle: the :class:`~repro.sim.world.World` calls :meth:`bind`, then
    :meth:`on_start` once the simulation begins. Message deliveries arrive
    through :meth:`deliver`; crashing freezes the process permanently.
    """

    def __init__(self) -> None:
        self.pid: int = -1
        self.crashed = False
        self.incarnation = 0
        self._world: "World | None" = None
        self._mint: MessageMint | None = None
        self._timers: list[TimerHandle] = []
        self._timer_prune_at = _TIMER_PRUNE_FLOOR
        self._peers: list[int] | None = None
        self._everyone: list[int] | None = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def bind(self, world: "World", pid: int) -> None:
        """Attach this process to a world under process id ``pid``."""
        self._world = world
        self.pid = pid
        self._mint = MessageMint(pid)
        # Broadcast target lists, recomputed lazily against the new world.
        self._peers = None
        self._everyone = None

    @property
    def world(self) -> "World":
        """The world this process lives in."""
        if self._world is None:
            raise ProtocolError("process used before bind()")
        return self._world

    @property
    def n(self) -> int:
        """Number of processes in the system."""
        return self.world.n

    @property
    def now(self) -> float:
        """Current virtual time."""
        world = self._world
        if world is None:
            raise ProtocolError("process used before bind()")
        # Reads the scheduler's clock attribute directly: this property
        # runs once per delivery/heartbeat, and the world/scheduler
        # property hops were a measurable share of the event loop.
        return world.scheduler._now

    @property
    def peers(self) -> list[int]:
        """All process ids except this one (cached; do not mutate)."""
        peers = self._peers
        if peers is None:
            peers = self._peers = [
                p for p in range(self.n) if p != self.pid
            ]
        return peers

    @property
    def status(self) -> str:
        """Lifecycle status: ``"up"`` or ``"crashed"``."""
        return "crashed" if self.crashed else "up"

    @property
    def stable(self):
        """This process's crash-surviving stable store.

        Lives on the world's :class:`~repro.sim.storage.StorageHub`, so
        its contents survive :meth:`crash_now` even though every volatile
        attribute of the automaton may be lost.
        """
        return self.world.storage.slot(self.pid)

    # ------------------------------------------------------------------
    # Hooks for subclasses
    # ------------------------------------------------------------------

    def on_start(self) -> None:
        """Called once when the simulation starts."""

    def on_message(self, src: int, payload: Hashable, msg: Message) -> None:
        """Called when a modelled message is consumed (recv recorded)."""

    def on_protocol_message(self, src: int, payload: Hashable, msg: Message) -> None:
        """Called for detection-protocol traffic (SUSP/ACK); not modelled."""

    def on_system_message(self, src: int, payload: Hashable) -> None:
        """Called for system-level traffic (heartbeats); not modelled."""

    def on_crash(self) -> None:
        """Called once, just after this process crashes."""

    def on_recover(self) -> None:
        """Called during recovery, before the recover event is recorded.

        Crash-recovery subclasses (and the black-box wrapper of
        :mod:`repro.protocols.recovery`) restore persisted state from
        :attr:`stable` here. Volatile state has already been reset to
        whatever the crash left behind — restore what matters.
        """

    def suspect(self, target: int) -> None:
        """Begin suspecting ``target`` (protocol subclasses implement)."""
        raise ProtocolError(
            f"{type(self).__name__} has no failure-detection protocol"
        )

    # ------------------------------------------------------------------
    # Actions
    # ------------------------------------------------------------------

    def send(self, dst: int, payload: Hashable, kind: str = "app") -> Message | None:
        """Send ``payload`` to ``dst``; returns the minted message.

        Crashed processes send nothing (returns ``None``): the crash
        freezes the state, per the model.
        """
        if self.crashed:
            return None
        world = self._world
        if world is None:
            raise ProtocolError("process used before bind()")
        # MessageMint.mint, inlined: one minted message per send makes
        # the mint call pure per-event overhead (uniqueness semantics
        # are unchanged — same counter, same Message). This and
        # MessageMint.mint are the only point-to-point minting sites;
        # everything multi-destination is minted by Network.fanout.
        mint = self._mint
        msg = Message(mint.sender, mint._next_seq, payload)
        mint._next_seq += 1
        if kind == "app":
            world.transmit(self.pid, dst, msg, kind=kind)
        else:
            # Protocol/system traffic is never recorded and never
            # byzantine-intercepted (transmit only acts on "app"), so it
            # goes straight to the network — one call less per heartbeat.
            world.network.send(self.pid, dst, msg, kind=kind)
        return msg

    def broadcast(
        self, payload: Hashable, include_self: bool = False, kind: str = "app"
    ) -> list[Message]:
        """Send ``payload`` to every process (optionally including self).

        The Section 5 protocol broadcasts *including itself* — the
        self-delivery is what puts the detector in its own quorum.
        """
        if include_self:
            # Cached like ``peers`` (do not mutate): the Section 5 echo
            # broadcasts once per process per suspicion.
            targets = self._everyone
            if targets is None:
                targets = self._everyone = list(range(self.n))
        else:
            targets = self.peers
        if kind == "app":
            # Modelled traffic goes message by message through send() ->
            # World.transmit, where recording and byzantine interception
            # live.
            sent = []
            for dst in targets:
                msg = self.send(dst, payload)
                if msg is not None:
                    sent.append(msg)
            return sent
        if self.crashed:
            return []
        return self.world.network.fanout(
            self.pid, targets, self._mint, payload, kind
        )

    def set_timer(
        self, delay: float, callback: Callable[[], None], periodic: bool = False
    ) -> TimerHandle:
        """Schedule a local timer; it is inert once the process crashes."""

        def guarded() -> None:
            if not self.crashed:
                callback()

        handle = self.world.scheduler.schedule(delay, guarded, periodic=periodic)
        self._timers.append(handle)
        if len(self._timers) >= self._timer_prune_at:
            self._prune_timers()
        return handle

    def _prune_timers(self) -> None:
        """Drop fired/cancelled handles so long runs don't leak memory.

        The threshold doubles with the live-timer count, keeping the cost
        amortised O(1) per ``set_timer`` even for processes that hold many
        genuinely live timers.
        """
        self._timers = [h for h in self._timers if h.active]
        self._timer_prune_at = max(
            _TIMER_PRUNE_FLOOR, 2 * len(self._timers)
        )

    def record_internal(self, label: Hashable) -> None:
        """Mark an application-level step in the history."""
        if not self.crashed:
            self.world.trace.record_internal(self.now, self.pid, label)

    def crash_now(self) -> None:
        """Crash this process (idempotent): record the event and freeze."""
        if self.crashed:
            return
        self.crashed = True
        self.world.trace.record_crash(self.now, self.pid)
        for timer in self._timers:
            timer.cancel()
        self._timers.clear()
        self.on_crash()

    def recover_now(self) -> None:
        """Bring a crashed process back up (crash-recovery model only).

        No-op unless the process is actually crashed. Bumps the
        incarnation, unfreezes the process, records the recover event,
        and only then runs the :meth:`on_recover` restore hook — so any
        message the hook sends appears *after* the recover event in the
        history, as well-formedness requires. The message mint is
        deliberately *not* reset: uids minted by a later incarnation stay
        globally unique, which is what lets receivers dedup pre-crash
        traffic by uid alone.
        """
        if not self.crashed:
            return
        self.incarnation += 1
        self.crashed = False
        self.world.trace.record_recover(self.now, self.pid, self.incarnation)
        self.on_recover()

    # ------------------------------------------------------------------
    # Delivery (called by the World)
    # ------------------------------------------------------------------

    def deliver(self, src: int, msg: Message, kind: str) -> None:
        """Entry point for a message arriving at this process.

        Crashed processes consume nothing — no recv event is recorded, as
        required by the model (a crash is the last event of a process).
        """
        if self.crashed:
            return
        if kind == "system":
            self.on_system_message(src, msg.payload)
            return
        if kind == "protocol":
            self.on_protocol_message(src, msg.payload, msg)
            return
        self.consume(src, msg)

    def consume(self, src: int, msg: Message) -> None:
        """Record the recv event and run the message hook.

        Protocol subclasses override this to *defer* application traffic
        while a detection round is open (the paper's "takes no other
        action except acknowledging" clause, which is what gives sFS2d);
        the recv event must be recorded only at true consumption time.
        """
        world = self.world
        world.trace.record_recv(
            world.scheduler._now, self.pid, src, msg
        )
        self.on_message(src, msg.payload, msg)
