"""The World: wiring for one simulated asynchronous system.

A :class:`World` owns the scheduler, network, trace recorder, adversary,
and the process automata, and exposes the run/inspect API that scenarios,
tests, and benchmarks drive. Construction is deterministic: the same
``(processes, delay model, seed, scenario)`` produces bit-identical
histories.
"""

from __future__ import annotations

import random
from typing import Callable, Sequence

from repro.core.failure_models import FailureModel, get_failure_model
from repro.core.history import History
from repro.core.messages import Message
from repro.errors import SimulationError
from repro.sim.adversary import Adversary
from repro.sim.delays import DelayModel, UniformDelay
from repro.sim.network import Network
from repro.sim.process import SimProcess
from repro.sim.scheduler import Scheduler
from repro.sim.storage import StorageHub
from repro.sim.trace import TraceRecorder


class World:
    """One simulated system of ``n`` processes on FIFO channels.

    Args:
        processes: the process automata, index = process id.
        delay_model: message-delay distribution (default mildly jittered).
        seed: RNG seed; all nondeterminism flows from here.
        batch_delivery: share one scheduler entry per channel burst
            (default). ``False`` forces the per-message delivery path;
            both produce bit-identical histories.
        failure_model: name (or :class:`~repro.core.failure_models.\
FailureModel`) of the failure semantics this world runs under; the
            default ``"fail-stop"`` is exactly the pre-refactor engine.
    """

    def __init__(
        self,
        processes: Sequence[SimProcess],
        delay_model: DelayModel | None = None,
        seed: int = 0,
        batch_delivery: bool = True,
        failure_model: str | FailureModel = "fail-stop",
    ):
        if not processes:
            raise SimulationError("need at least one process")
        self._processes = list(processes)
        n = len(self._processes)
        self.model = get_failure_model(failure_model)
        self.storage = StorageHub(n)
        self._compromised: dict[int, float] = {}
        self._seed = seed
        self._byz_rng: random.Random | None = None
        self.scheduler = Scheduler()
        self.rng = random.Random(seed)
        self.trace = TraceRecorder(n)
        self.network = Network(
            self.scheduler,
            n,
            delay_model or UniformDelay(),
            self.rng,
            deliver=self._on_deliver,
            batch=batch_delivery,
        )
        self.network.set_delivery_table(self._processes)
        self.adversary = Adversary(self.network)
        self._started = False
        self.monitors = None  # set by attach_monitor
        for pid, proc in enumerate(self._processes):
            proc.bind(self, pid)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of processes."""
        return len(self._processes)

    @property
    def processes(self) -> list[SimProcess]:
        """The process automata (index = pid)."""
        return list(self._processes)

    def process(self, pid: int) -> SimProcess:
        """The automaton for process ``pid``."""
        return self._processes[pid]

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def start(self) -> "World":
        """Run every process's ``on_start`` hook (idempotent)."""
        if not self._started:
            self._started = True
            for proc in self._processes:
                proc.on_start()
        return self

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Start if needed, then process events (see Scheduler.run)."""
        self.start()
        return self.scheduler.run(until=until, max_events=max_events)

    def run_to_quiescence(self, max_events: int = 1_000_000) -> int:
        """Run until only periodic housekeeping (heartbeats) remains.

        Suitable for scenarios driven by injected crashes/suspicions; for
        detector-driven scenarios use ``run(until=horizon)`` instead, since
        heartbeat timers keep the queue non-empty forever.
        """
        self.start()
        return self.scheduler.run_to_quiescence(max_events=max_events)

    # ------------------------------------------------------------------
    # Streaming conformance monitors
    # ------------------------------------------------------------------

    def attach_monitor(
        self,
        monitors=None,
        *,
        stop_on_violation: bool = False,
    ):
        """Ride conformance monitors on the trace as it is recorded.

        The monitor set observes every recorded event at append time —
        no extra passes, no history snapshots — so its verdict is live
        throughout the run. With ``stop_on_violation`` the world halts the
        scheduler as soon as a halt-relevant safety monitor trips (see
        :data:`repro.analysis.monitors.DEFAULT_HALT_ON`) — the monitor set
        calls :meth:`Scheduler.request_stop` as it logs the lock-in, once
        per lock-in; the violating event index is then
        ``world.monitors.first_violation``. The halt is an edge, not a
        level: a world resumed with :meth:`Scheduler.clear_stop` runs on
        until a monitor that had not locked yet does, and a set that had
        tripped before it was attached halts only at its next lock-in.

        A world takes one monitor set, and the set must have seen exactly
        the events recorded so far — a fresh set on a fresh trace, or a
        set first brought up to date with ``replay(world.history())`` —
        since a set that missed a ``crash`` misjudges every later
        detection of it, silently — as does a set built for another
        number of processes or another failure model. Attaching a second
        set (or the same one again, which would observe every event
        twice), one built for another world's ``n`` or model, or one
        whose ``events_seen`` is not the trace's length, is a
        :class:`~repro.errors.SimulationError`.

        Args:
            monitors: a :class:`~repro.analysis.monitors.MonitorSet`
                (defaults to a fresh one over this world's processes).
            stop_on_violation: request a scheduler stop at the first
                halt-relevant violation.

        Returns:
            The attached monitor set (also kept as ``world.monitors``).
        """
        from repro.analysis.monitors import MonitorSet

        if self.monitors is not None:
            raise SimulationError(
                "this world already has a monitor set attached "
                "(world.monitors); a world takes one"
            )
        if monitors is None:
            monitors = MonitorSet(self.n, failure_model=self.model.name)
        if monitors.n != self.n or monitors.model != self.model:
            raise SimulationError(
                f"monitor set is for {monitors.n} processes under "
                f"{monitors.model.name!r} but this world has {self.n} "
                f"under {self.model.name!r}"
            )
        if monitors.events_seen != len(self.trace):
            raise SimulationError(
                f"monitor set has seen {monitors.events_seen} events but "
                f"the trace has recorded {len(self.trace)}; attach before "
                "running, or bring a fresh set up to date first with "
                "replay(world.history())"
            )
        self.monitors = monitors
        self.trace.attach_observer(monitors.observe)
        if stop_on_violation:
            monitors.on_violation = self.scheduler.request_stop
        return monitors

    # ------------------------------------------------------------------
    # Transmission plumbing (used by SimProcess)
    # ------------------------------------------------------------------

    def transmit(self, src: int, dst: int, msg: Message, kind: str = "app") -> None:
        """Hand a message to the network; app sends become history events.

        Under the byzantine-crash model the adversary intercepts app
        traffic of compromised senders *before* anything is recorded, so
        the history stays well-formed by construction: a dropped message
        leaves no send event, a mutated message is recorded as actually
        sent (same uid, tampered payload), and a duplicated message is
        recorded as two distinct sends (the clone is freshly minted).
        """
        if (
            kind == "app"
            and self._compromised
            and src in self._compromised
        ):
            for actual in self._interfere(src, msg):
                self.trace.record_send(self.scheduler.now, src, dst, actual)
                self.network.send(src, dst, actual, kind=kind)
            return
        if kind == "app":
            self.trace.record_send(self.scheduler.now, src, dst, msg)
        self.network.send(src, dst, msg, kind=kind)

    def _interfere(self, src: int, msg: Message) -> list[Message]:
        """The adversary's move for one outgoing message of ``src``.

        Draws from a dedicated RNG stream (created lazily at the first
        compromise), so byzantine interference never perturbs the main
        ``seed``-derived draw order — fail-stop and crash-recovery runs
        are bit-identical with this code in place.
        """
        assert self._byz_rng is not None
        roll = self._byz_rng.random()
        if roll < 0.25:
            return []  # dropped on the floor
        if roll < 0.5:
            mutated = Message(
                msg.sender, msg.seq, ("byz", msg.payload)
            )
            return [mutated]
        if roll < 0.75:
            clone = self._processes[src]._mint.mint(msg.payload)
            return [msg, clone]
        return [msg]  # delivered faithfully, to stay unpredictable

    def _on_deliver(self, src: int, dst: int, msg: Message, kind: str) -> None:
        self._processes[dst].deliver(src, msg, kind)

    # ------------------------------------------------------------------
    # Fault/scenario injection
    # ------------------------------------------------------------------

    def _check_pids(self, *pids: int) -> None:
        """Refuse a pid now that a deferred callback would index later."""
        for pid in pids:
            if pid not in range(self.n):
                raise SimulationError(f"no process {pid!r} in a world of {self.n}")

    def inject_crash(self, pid: int, at: float) -> None:
        """Schedule a genuine crash of ``pid`` at virtual time ``at``."""
        self._check_pids(pid)
        self.scheduler.schedule_at(at, self._processes[pid].crash_now)

    def inject_suspicion(self, pid: int, target: int, at: float) -> None:
        """Schedule a spontaneous suspicion (e.g. a timeout) at ``pid``.

        This is the paper's protocol trigger: "a failure can be suspected
        spontaneously (e.g., due to a timeout)".
        """
        if pid == target:
            raise SimulationError("a process does not suspect itself")
        self._check_pids(pid, target)

        def fire() -> None:
            proc = self._processes[pid]
            if not proc.crashed:
                proc.suspect(target)

        self.scheduler.schedule_at(at, fire)

    def inject_recover(self, pid: int, at: float) -> None:
        """Schedule a recovery of ``pid`` at virtual time ``at``.

        Only legal under a recoverable failure model; a no-op at fire
        time if the process is not actually crashed then.
        """
        if not self.model.recoverable:
            raise SimulationError(
                f"failure model {self.model.name!r} does not allow "
                f"recovery (use failure_model='crash-recovery')"
            )
        self._check_pids(pid)
        self.scheduler.schedule_at(at, self._processes[pid].recover_now)

    def inject_compromise(self, pid: int, at: float) -> None:
        """Schedule the adversary's takeover of ``pid`` at time ``at``.

        Only legal under a byzantine failure model. From ``at`` on, every
        app message ``pid`` sends may be dropped, mutated, or duplicated
        (see :meth:`transmit`). The number of compromised processes is
        the caller's ``t`` budget to respect — plan generators cap it.
        """
        if not self.model.byzantine:
            raise SimulationError(
                f"failure model {self.model.name!r} does not allow "
                f"compromise (use failure_model='byzantine-crash')"
            )
        self._check_pids(pid)
        if self._byz_rng is None:
            self._byz_rng = random.Random(f"repro-byz:{self._seed}")

        def fire() -> None:
            self._compromised.setdefault(pid, at)

        self.scheduler.schedule_at(at, fire)

    @property
    def compromised(self) -> frozenset[int]:
        """Processes currently under adversary control."""
        return frozenset(self._compromised)

    # ------------------------------------------------------------------
    # Sabotage (oracle self-tests)
    # ------------------------------------------------------------------

    def inject_forged_detection(self, pid: int, target: int, at: float) -> None:
        """Schedule a *forged* ``failed_pid(target)`` record at ``at``.

        Sabotage, not a failure model: the record bypasses the protocol
        entirely — no quorum, no broadcast, no legality checks (``pid ==
        target`` is allowed on purpose). It exists so oracle self-tests
        and the regression corpus can seed known property violations
        (self-detection, quorum-less detection cycles) into otherwise
        clean scenarios and assert the monitors catch them. Skipped at
        fire time if ``pid`` has already crashed (a crashed process
        records nothing). Only ``pid``, the process that acts, must
        exist; ``target`` is left unchecked on purpose — a record naming
        a process the system does not have is a violation for the
        ``valid`` monitor to flag, not for the injector to refuse.
        """
        self._check_pids(pid)

        def fire() -> None:
            if not self._processes[pid].crashed:
                self.trace.record_failed(self.scheduler.now, pid, target)

        self.scheduler.schedule_at(at, fire)

    def inject_phantom_recv(self, pid: int, src: int, at: float) -> None:
        """Schedule the receipt of a message that was never sent.

        Sabotage for oracle self-tests: at ``at``, ``pid`` records a recv
        from ``src`` of a freshly fabricated message no send event ever
        minted — a well-formedness violation (Definition 1's send/recv
        matching) the ``valid`` monitor must flag. The forged sequence
        number is drawn far above any mintable one so it cannot collide
        with real traffic. As with :meth:`inject_forged_detection`, only
        the acting ``pid`` must exist; ``src`` is unchecked on purpose.
        """
        self._check_pids(pid)

        def fire() -> None:
            if not self._processes[pid].crashed:
                phantom = Message(src, 1_000_000_000 + pid, "phantom")
                self.trace.record_recv(self.scheduler.now, pid, src, phantom)

        self.scheduler.schedule_at(at, fire)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def history(self) -> History:
        """The recorded history so far."""
        return self.trace.history()

    def alive(self) -> list[int]:
        """Processes that have not crashed."""
        return [p.pid for p in self._processes if not p.crashed]

    # ------------------------------------------------------------------
    # End of life
    # ------------------------------------------------------------------

    def dispose(self) -> None:
        """Break this world's reference cycles.

        A world is cyclic by construction: processes point back at it,
        the network's delivery callback is a bound method of it, queued
        scheduler callbacks (bursts, timers, detector loops) close over
        it, and streaming-monitor observers close over it through the
        trace. A discarded world therefore waits for the *cyclic*
        garbage collector — and a sharded campaign discards one world
        per scenario, which made collector pauses a measurable share of
        fuzz wall time. ``dispose()`` unlinks the knots so a finished
        world dies promptly by refcount instead, which is what lets the
        execution layer pause the cyclic collector while jobs run (see
        :func:`repro.exec.job.paused_cyclic_gc`). Whoever builds a world
        disposes it: the sharded runner for its shards, every experiment
        driver for its own.

        Results stay readable: :meth:`history`, recorded times, quorum
        records, and attached monitors are untouched. The world must not
        be *run* again afterwards (processes raise ``ProtocolError`` on
        use). Idempotent.
        """
        network = self.network
        # Queued callbacks (bursts, timers, detector loops) close over
        # this world.
        self.scheduler.clear_queue()
        for proc in self._processes:
            proc._world = None
            # A timer's entry closes over its process (set_timer's guard)
            # and its handle points at the scheduler.
            proc._timers.clear()
        network._deliver_fn = None
        network._targets = None
        for state in network._channels.values():
            state.burst = None  # a still-queued burst points back at it
        network._channels.clear()
        network._flat.clear()
        self.trace.detach_observers()


def build_world(
    n: int,
    factory: Callable[[], SimProcess],
    delay_model: DelayModel | None = None,
    seed: int = 0,
    batch_delivery: bool = True,
    failure_model: str | FailureModel = "fail-stop",
) -> World:
    """Build a world of ``n`` identical processes from a factory."""
    if not isinstance(n, int) or n < 1:
        raise SimulationError(f"a world needs n >= 1 processes (an int), got {n!r}")
    return World(
        [factory() for _ in range(n)],
        delay_model,
        seed,
        batch_delivery=batch_delivery,
        failure_model=failure_model,
    )
