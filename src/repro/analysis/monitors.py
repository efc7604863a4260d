"""Streaming conformance monitors: analyze-on-append for every paper property.

The batch pipeline (:func:`repro.analysis.checker.analyze`) judges a run
after it has finished; a :class:`MonitorSet` judges it *while it
happens*. It holds one transition state machine per paper property —
well-formedness (:class:`~repro.core.validate.ValidationState`), FS1, FS2,
sFS2a-d and, under a recoverable model, the recovery discipline (the
machines of :mod:`repro.core.failure_models`) — and the machine *is* the
monitor: it carries its own ``name``, ``safety`` class, live ``ok``,
``first_violation_index`` and batch-identical ``result()``. Each consumes
one event at a time in O(1)-O(n) amortized (never O(history)). The one
composite is :class:`ConditionsMonitor` (Conditions 1-3 of Theorem 2),
which reads the set's own sFS2a and sFS2b machines next to a
``Condition3State``; :class:`BadPairCounter` is a tally, not a verdict.

The batch ``check_*`` functions fold histories through the *same*
machines, so streaming and batch verdicts agree by construction — the
property suite replays random runs both ways and asserts the resulting
reports are equal.

Each property is stated over a few event kinds (FS2 over ``crash`` and
``failed``, sFS2b over ``failed`` alone, only well-formedness and
Condition 3 over every kind), and each machine says so in its
``handlers`` table. Those tables are composed, once per kind of
:class:`MonitorSet`, into one tuple of ``(machine, handler)`` per event
class, so recording an event costs one table lookup plus a call to each
machine that consumes its kind — a ``send`` reaches three machines, not
all ten.

Safety properties are prefix-monotone: once violated, a machine's verdict
is locked and it pushes itself onto a list its :class:`MonitorSet`
installed; the set looks at that list only when it is non-empty, logs the
lock-in, and calls ``on_violation`` — which is what
``World.attach_monitor(..., stop_on_violation=True)`` and the sweep
runner's ``early_stop`` mode key off (a violation visible at event 50
aborts a 100k-event case on the spot). Liveness properties (FS1, sFS2a)
cannot be falsified mid-run; their machines expose the count of open
obligations instead and render verdicts only at ``finalize`` time.

Wiring options:

* **streaming** — ``world.attach_monitor(MonitorSet(world.n))`` rides
  :meth:`repro.core.history.HistoryBuilder.append` via the observer hook,
  zero extra passes over the trace;
* **replay** — :meth:`MonitorSet.replay` drives a finished
  :class:`~repro.core.history.History` through the same code path, which
  is exactly how ``analyze()`` is implemented now.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterable, NamedTuple

from repro.core.events import (
    EVENT_KINDS,
    CrashEvent,
    Event,
    FailedEvent,
    unknown_event_kind,
)
from repro.core.failure_models import (
    CheckResult,
    Condition3State,
    FS1State,
    FS2State,
    PropertyState,
    RecoveryState,
    SFS2aState,
    SFS2bState,
    SFS2cState,
    SFS2dState,
    cycle_violations,
    get_failure_model,
)
from repro.core.history import History
from repro.core.validate import ValidationState
from repro.errors import SimulationError


class ConditionsMonitor:
    """Conditions 1-3 of Theorem 2, aggregated (Section 3.2).

    The one monitor that is not a single machine. Condition 1 is
    identical in force to sFS2a and Condition 2 to sFS2b, so the
    composite reads those machines — a :class:`MonitorSet` passes its own
    — next to a :class:`~repro.core.failure_models.Condition3State`; it
    feeds none of them. The safety verdict locks on the earlier of a
    cycle closure (Condition 2) or a causally-tainted post-detection
    event (Condition 3) — its two :attr:`lock_states`; Condition 1 is
    liveness and only judged at result time.
    """

    __slots__ = ("_cond1", "lock_states")
    name = "Conditions1-3"
    safety = True

    def __init__(
        self, cond1: SFS2aState, cond2: SFS2bState, cond3: Condition3State
    ):
        self._cond1 = cond1
        self.lock_states = (cond2, cond3)

    @property
    def first_violation_index(self) -> int | None:
        """Event index where the verdict locked, or None."""
        return min(
            (
                state.first_violation_index
                for state in self.lock_states
                if state.first_violation_index is not None
            ),
            default=None,
        )

    @property
    def ok(self) -> bool:
        """Live verdict: neither Condition 2 nor Condition 3 has locked."""
        return self.first_violation_index is None

    def result(self) -> CheckResult:
        """The composite :class:`CheckResult` for the prefix seen so far."""
        violations = [
            violation
            for state in (self._cond1, *self.lock_states)
            for violation in state.finalize()
        ]
        return CheckResult(self.name, not violations, tuple(violations))


class BadPairCounter(PropertyState):
    """Streaming count of Definition 8 *bad pairs*.

    A pair is bad when ``failed_j(i)`` precedes ``crash_i``; the count
    equals ``len(bad_pairs(history))`` on the same prefix (pairs whose
    crash never arrives are not counted, matching the batch helper).
    A machine like the property ones, but a tally rather than a verdict:
    it never locks and has no violations to finalize — read ``count``.
    """

    __slots__ = ("_pending", "_seen", "_crashed", "count")
    name = "bad-pairs"
    safety = False

    def __init__(self):
        super().__init__()
        self._pending: dict[int, int] = {}
        self._seen: set[tuple[int, int]] = set()
        self._crashed: set[int] = set()
        self.count = 0

    def on_failed(self, idx, event, vector) -> None:
        key = (event.proc, event.target)
        if key in self._seen:
            return
        self._seen.add(key)
        if event.target not in self._crashed:
            self._pending[event.target] = (
                self._pending.get(event.target, 0) + 1
            )

    def on_crash(self, idx, event, vector) -> None:
        if event.proc not in self._crashed:
            self._crashed.add(event.proc)
            self.count += self._pending.pop(event.proc, 0)

    handlers = {FailedEvent: on_failed, CrashEvent: on_crash}


#: Safety monitors whose lock-in aborts an early-stopping run. FS2 is
#: deliberately *not* in the default: under simulated fail-stop a
#: detection legitimately precedes its crash, so FS2 trips on every sFS
#: run — callers monitoring for strict FS can opt it in via ``halt_on``.
#: "recovery" is listed unconditionally and accepted under every model;
#: a set without that monitor (every non-recoverable model) never trips it.
DEFAULT_HALT_ON = (
    "valid", "sFS2b", "sFS2c", "sFS2d", "Conditions1-3", "recovery",
)


class _Plan(NamedTuple):
    """What a :class:`MonitorSet` needs that does not depend on the instance.

    A function of which machines the set owns (the model has a
    ``recovery`` monitor or not) and of ``halt_on`` only, so it is built
    once per such pair (:data:`_PLANS`) and shared by every set.
    """

    #: event class -> ``(machine slot, handler)`` for each machine whose
    #: table has that kind, in slot order.
    cells: dict[type, tuple[tuple[int, Callable], ...]]
    #: machine class -> the halt-relevant monitors its lock-in locks, in
    #: ``monitors`` order (the shared sFS2b machine locks two). Machines
    #: of these classes are the ones handed the set's sink.
    locks: dict[type, tuple[str, ...]]
    #: the halt-relevant monitors' names (the union of ``locks``' values).
    halting: frozenset[str]


_PLANS: dict[tuple[bool, frozenset], _Plan] = {}


def _make_plan(monitors, machines, halt_on: frozenset) -> _Plan:
    """Derive the plan from one set's monitors and machines (slot order)."""
    safety = [monitor for monitor in monitors if monitor.safety]
    known = {monitor.name for monitor in safety} | set(DEFAULT_HALT_ON)
    unknown = sorted(halt_on - known)
    if unknown:
        raise SimulationError(
            f"halt_on names no safety monitor: {', '.join(unknown)}; "
            f"known names: {', '.join(sorted(known))}"
        )
    locks: dict[type, tuple[str, ...]] = {}
    for monitor in safety:
        if monitor.name in halt_on:
            for state in monitor.lock_states:
                kind = type(state)
                locks[kind] = locks.get(kind, ()) + (monitor.name,)
    return _Plan(
        cells={
            event_kind: tuple(
                (slot, type(machine).handlers[event_kind])
                for slot, machine in enumerate(machines)
                if event_kind in type(machine).handlers
            )
            for event_kind in EVENT_KINDS
        },
        locks=locks,
        halting=frozenset(name for names in locks.values() for name in names),
    )


class MonitorSet:
    """All paper-property monitors over one event stream, plus aggregation.

    Feed it events via :meth:`observe` (the signature matches the
    :class:`~repro.core.history.HistoryBuilder` observer hook) or replay a
    finished history with :meth:`replay`; read the live verdict from
    ``ok_so_far`` / ``first_violation`` and the batch-identical
    per-property results from :meth:`check_results`.

    Args:
        n: number of processes in the system.
        pending_ok: forwarded to the liveness monitors (FS1, sFS2a,
            Condition 1) — treat open obligations as not-yet-violations
            when rendering results.
        halt_on: names of the safety monitors whose violation counts as
            "the run is non-conformant, stop caring" for
            ``first_violation`` / ``ok_so_far`` (default
            :data:`DEFAULT_HALT_ON`); a name that is no safety monitor's
            is a :class:`~repro.errors.SimulationError`.
        failure_model: the failure semantics the observed run operates
            under; switches well-formedness to the model's rules and
            attaches the model's extra monitors (e.g. ``recovery``).
    """

    def __init__(
        self,
        n: int,
        pending_ok: bool = False,
        halt_on: Iterable[str] = DEFAULT_HALT_ON,
        failure_model: str = "fail-stop",
    ):
        self.n = n
        self.pending_ok = pending_ok
        self.model = get_failure_model(failure_model)
        self.validity = ValidationState(n, self.model)
        self.fs1 = FS1State(n, pending_ok)
        self.fs2 = FS2State()
        self.sfs2a = SFS2aState(pending_ok)
        self.sfs2b = SFS2bState()
        self.sfs2c = SFS2cState()
        self.sfs2d = SFS2dState()
        # Conditions 1/2 are the sFS2a/sFS2b machines (identical in
        # force), so detection events are processed once, not twice.
        condition3 = Condition3State()
        self.conditions = ConditionsMonitor(
            self.sfs2a, self.sfs2b, condition3
        )
        self.bad_pairs = BadPairCounter()
        self.recovery = (
            RecoveryState()
            if "recovery" in self.model.extra_monitors
            else None
        )
        recovery = (self.recovery,) if self.recovery is not None else ()
        properties = (
            self.validity,
            self.fs1,
            self.fs2,
            self.sfs2a,
            self.sfs2b,
            self.sfs2c,
            self.sfs2d,
        )
        self.monitors: tuple = properties + (self.conditions,) + recovery
        #: Every safety lock-in observed, as ``(event_index, monitor name)``
        #: in discovery order (which is event-index order; lock-ins of one
        #: event are in ``monitors`` order).
        self.violation_log: list[tuple[int, str]] = []
        #: Called, without arguments, whenever a lock-in has been logged.
        self.on_violation: Callable[[], None] | None = None
        self.events_seen = 0
        # One machine per slot, each once: the monitors that are machines,
        # Condition 3 (the composite's other two are the sFS2a/sFS2b
        # slots), then the bad-pair tally.
        self._machines = machines = [
            *properties, condition3, *recovery, self.bad_pairs
        ]
        halt_on = frozenset(halt_on)
        key = (self.recovery is not None, halt_on)
        plan = _PLANS.get(key)
        if plan is None:
            plan = _PLANS[key] = _make_plan(self.monitors, machines, halt_on)
        # Which machines an event of each class goes to, and which monitors
        # a machine's lock-in locks: the plan's, shared with every set.
        self._cells = plan.cells
        self._locks = plan.locks
        self._halting = plan.halting
        # Machines push themselves here as they lock (PropertyState._flag).
        self._locked: list[PropertyState] = []
        for machine in machines:
            if type(machine) in plan.locks:
                machine._sink = self._locked

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------

    def observe(
        self, idx: int, event: Event, vector: tuple[int, ...] | None = None
    ) -> None:
        """Advance every machine that consumes this event's kind
        (HistoryBuilder-hook shape)."""
        cells = self._cells.get(event.__class__)
        if cells is None:
            raise unknown_event_kind(event)
        machines = self._machines
        for slot, handler in cells:
            handler(machines[slot], idx, event, vector)
        self.events_seen += 1
        if self._locked:
            self._log_lock_ins()

    def _log_lock_ins(self) -> None:
        """Log the monitors the machines that just locked lock.

        A machine locks once, but ``Conditions1-3`` has two and locks at
        the earlier — its later one must not log it again.
        """
        locks = self._locks
        logged = {name for _, name in self.violation_log}
        fresh: dict[str, int] = {}
        for machine in self._locked:
            for name in locks[type(machine)]:
                if name not in logged:
                    fresh.setdefault(name, machine.first_violation_index)
        self._locked.clear()
        if fresh:
            self.violation_log.extend(
                (fresh[monitor.name], monitor.name)
                for monitor in self.monitors
                if monitor.name in fresh
            )
            if self.on_violation is not None:
                self.on_violation()

    def replay(self, history: History) -> "MonitorSet":
        """Drive a finished history through the same streaming path."""
        if history.n != self.n:
            raise SimulationError(
                f"monitor set is for {self.n} processes but the history "
                f"has {history.n}"
            )
        observe = self.observe
        for idx, (event, vector) in enumerate(zip(history, history.vectors)):
            observe(idx, event, vector)
        return self

    # ------------------------------------------------------------------
    # Live verdict
    # ------------------------------------------------------------------

    @property
    def first_violation(self) -> tuple[int, str] | None:
        """Earliest halt-relevant violation ``(event index, monitor name)``."""
        return self.violation_log[0] if self.violation_log else None

    @property
    def ok_so_far(self) -> bool:
        """No halt-relevant safety monitor has tripped yet."""
        return not self.violation_log

    def polled_violation_log(self) -> list[tuple[int, str]]:
        """:attr:`violation_log` as polling would have written it.

        Reads each halt-relevant monitor's ``first_violation_index`` and
        orders the locked ones by ``(index, monitors order)``. Read-only,
        and independent of the push path (the machines' sink, the lock
        table, the logging): the two logs are equal unless a lock-in was
        never pushed, was logged twice, or the log was edited — the
        fuzzer's differential oracle compares them on every scenario.
        """
        halting = self._halting
        polled = []
        for monitor in self.monitors:
            if monitor.name in halting:
                locked = monitor.first_violation_index
                if locked is not None:
                    polled.append((locked, monitor.name))
        polled.sort(key=itemgetter(0))  # stable: ties stay in monitors order
        return polled

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    @property
    def cycle(self) -> tuple[tuple[int, int], ...] | None:
        """The failed-before cycle (report form), or None while acyclic."""
        cycle = self.sfs2b.cycle
        return tuple(cycle) if cycle else None

    def check_results(self) -> dict[str, CheckResult]:
        """Batch-identical per-property results for the prefix seen so far."""
        return {
            monitor.name: monitor.result() for monitor in self.monitors
        }

    def transition_coverage(
        self, results: dict[str, CheckResult]
    ) -> tuple[str, ...]:
        """Which dispositions the property state machines reached.

        The coverage-export hook (:mod:`repro.analysis.coverage`): one
        label per monitor describing where its transition state machine
        ended up — ``ok``, ``violated`` at a bucketed lock-in index, or
        ``unsettled`` (a liveness result that finalizes non-ok without a
        lock-in) — plus near-miss labels for open liveness obligations
        at finalize time, the bad-pair count, and the locked cycle
        length. Deterministic and read-only: calling it never advances
        any state machine, so serial, parallel, and inproc runs of the
        same scenario export identical tuples. ``results`` is this set's
        :meth:`check_results` (the caller has it already; rendering every
        monitor a second time is measurable per scenario).
        """
        from repro.analysis.coverage import bucket

        labels = []
        for monitor in self.monitors:
            locked = monitor.first_violation_index
            if locked is not None:
                labels.append(f"{monitor.name}:violated@{bucket(locked)}")
            elif results[monitor.name].ok:
                labels.append(f"{monitor.name}:ok")
            else:
                labels.append(f"{monitor.name}:unsettled")
            pending = getattr(monitor, "pending_obligations", None)
            if pending is not None:
                open_count = pending()
                if open_count:
                    labels.append(
                        f"{monitor.name}:pending={bucket(open_count)}"
                    )
        if self.bad_pairs.count:
            labels.append(f"bad-pairs={bucket(self.bad_pairs.count)}")
        if self.cycle is not None:
            labels.append(f"cycle-len={len(self.cycle)}")
        return tuple(labels)

    def summary(self) -> str:
        """A compact live-verdict rendering for streaming output.

        Locked safety violations render as ``VIOLATED`` with their event
        index; liveness properties whose obligations are still open (and
        composites failing only on a liveness component) render as
        ``pending`` — a finite prefix cannot falsify them.
        """
        lines = []
        for monitor in self.monitors:
            result = monitor.result()
            locked = monitor.first_violation_index
            if result.ok:
                mark = "ok"
            elif locked is not None:
                mark = f"VIOLATED (locked at event [{locked}])"
            else:
                open_count = getattr(monitor, "pending_obligations", None)
                tail = f" ({open_count()} open)" if open_count else ""
                mark = f"pending{tail}"
            lines.append(f"{monitor.name:<14} {mark}")
        lines.append(f"{'bad pairs':<14} {self.bad_pairs.count}")
        if self.cycle is not None:
            lines.extend(cycle_violations(list(self.cycle)))
        return "\n".join(lines)
