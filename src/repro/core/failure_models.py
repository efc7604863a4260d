"""The paper's failure-model properties (Sections 3.1-3.3), each one machine.

Every property of Figure 1 — FS1, FS2, sFS2a-d — plus Condition 3 of
Theorem 2 and the crash-recovery discipline is implemented once, as an
*incremental transition state machine* (``FS1State``, ``FS2State``, ...)
that consumes one event at a time. A machine names the event kinds its
property is stated over in a class-level ``handlers`` table — one
``on_<kind>`` method each — and its ``observe`` is the one generic
dispatcher over that table, so a kind it does not list cannot touch it.
It also carries everything a verdict needs: its ``name`` (the
:class:`CheckResult` name), whether it is a ``safety`` property, the
live verdict ``ok`` and the finished one, :meth:`PropertyState.result`.

So the machine *is* the monitor. The batch ``check_*`` functions below
fold a finished :class:`~repro.core.history.History` through one and
return its ``result()``; :class:`repro.analysis.monitors.MonitorSet`
holds one of each and feeds them as events are appended — an
analyze-on-append verdict and a post-hoc batch verdict cannot disagree,
by construction. The temporal-logic formulas in
:mod:`repro.core.predicates` express the same properties declaratively;
the test suite cross-validates the two.

Safety properties (FS2, sFS2b-d, Condition 3) are *prefix-monotone*: once
a state machine has seen a violating event its verdict is locked, and every
machine records the event index at which that happened
(``first_violation_index``) — the hook early-stopping sweeps key off.
Liveness properties (FS1, sFS2a / Condition 1) cannot be falsified by a
finite prefix; their machines track the open obligations instead and only
judge them at :meth:`~PropertyState.finalize` time.

Finite-prefix caveats:

* FS1 and sFS2a are *liveness* properties; on a finite prefix they are
  judged against the recorded events, so callers should either run the
  system to quiescence or use
  :func:`repro.core.indistinguishability.ensure_crashes` first. Both
  machines (and checkers) take ``pending_ok=True`` to treat unresolved
  obligations as not-yet-violations.

Beyond the paper's single fail-stop world, this module also hosts the
**failure-model registry** (:data:`FAILURE_MODELS` /
:func:`get_failure_model`): a small declarative description of which
failure semantics a run operates under. ``fail-stop`` is the paper's
model (crash is forever); ``crash-recovery`` lets crashed processes come
back with incarnation numbers and stable storage (after "You Only Live
Multiple Times"); ``byzantine-crash`` keeps crashes terminal but lets an
adversary tamper with the outgoing messages of up to ``t`` compromised
processes (after the Imbs–Raynal–Stainer BG-simulation reduction). Every
layer — simulator, monitors, validators, fuzzer, CLI — consults this one
registry, so adding a model is a single-row change.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.events import (
    EVENT_KINDS,
    CrashEvent,
    Event,
    FailedEvent,
    InternalEvent,
    RecoverEvent,
    RecvEvent,
    SendEvent,
    unknown_event_kind,
)
from repro.core.failed_before import FailedBeforeTracker, find_cycle
from repro.core.history import History
from repro.errors import SimulationError


# ----------------------------------------------------------------------
# Failure-model registry
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FailureModel:
    """Declarative description of one failure semantics.

    ``recoverable`` — crashed processes may execute ``recover`` events
    (and well-formedness switches to lossy-FIFO channels);
    ``byzantine`` — the adversary may compromise up to ``t`` processes
    and drop/duplicate/mutate their outgoing messages;
    ``extra_monitors`` — conformance monitors (by name) that only make
    sense under this model, attached on top of the fail-stop set.
    """

    name: str
    description: str
    recoverable: bool = False
    byzantine: bool = False
    extra_monitors: tuple[str, ...] = ()


FAILURE_MODELS: dict[str, FailureModel] = {
    model.name: model
    for model in (
        FailureModel(
            "fail-stop",
            "the paper's model: a crash freezes the process forever",
        ),
        FailureModel(
            "crash-recovery",
            "crashed processes may recover with a fresh incarnation; "
            "volatile state is lost, stable storage survives",
            recoverable=True,
            extra_monitors=("recovery",),
        ),
        FailureModel(
            "byzantine-crash",
            "crashes are terminal, but up to t compromised processes "
            "have their outgoing messages dropped/duplicated/mutated",
            byzantine=True,
        ),
    )
}

FAILURE_MODEL_NAMES: tuple[str, ...] = tuple(FAILURE_MODELS)


def get_failure_model(name: str | FailureModel) -> FailureModel:
    """Look up a failure model by name (idempotent on model objects)."""
    if isinstance(name, FailureModel):
        return name
    try:
        return FAILURE_MODELS[name]
    except KeyError:
        known = ", ".join(sorted(FAILURE_MODELS))
        raise SimulationError(
            f"unknown failure model {name!r}; known models: {known}"
        ) from None


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a model check: ``ok`` plus human-readable violations."""

    name: str
    ok: bool
    violations: tuple[str, ...] = field(default_factory=tuple)

    def __bool__(self) -> bool:
        return self.ok

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        status = "ok" if self.ok else f"FAIL({len(self.violations)})"
        return f"<{self.name}: {status}>"


def _result(name: str, violations: list[str]) -> CheckResult:
    return CheckResult(name, not violations, tuple(violations))


# ----------------------------------------------------------------------
# Incremental transition state machines (one per property)
# ----------------------------------------------------------------------


class PropertyState:
    """Base for per-property transition machines.

    A machine declares one handler per event kind its property is stated
    over (``on_crash``, ``on_failed``, ...) in the class-level
    :attr:`handlers` table; every other kind of the closed alphabet
    (:data:`~repro.core.events.EVENT_KINDS`) leaves it unchanged, and an
    object outside the alphabet is an error, not a skipped event.
    ``observe(idx, event, vector)`` advances the machine by
    one event through that table; ``vector`` is the event's vector
    timestamp and may be ``None`` for machines that do not reason about
    happens-before. ``finalize`` renders the violation strings for the
    prefix consumed so far and :meth:`result` wraps them as the
    property's :class:`CheckResult` — both are pure reads (streaming
    callers may render repeatedly as the run grows).
    """

    __slots__ = ("first_violation_index", "_sink")

    #: CheckResult name; matches the batch checker's.
    name = "?"

    #: True for properties a finite prefix can falsify (verdict monotone).
    safety = True

    #: Event class -> handler ``(self, idx, event, vector)``. Keyed by
    #: class identity: nothing subclasses the event dataclasses.
    handlers: dict = {}

    def __init__(self) -> None:
        self.first_violation_index: int | None = None
        # Where to announce the lock-in; installed by an owning MonitorSet.
        self._sink: list | None = None

    def _flag(self, idx: int) -> None:
        if self.first_violation_index is None:
            self.first_violation_index = idx
            if self._sink is not None:
                self._sink.append(self)

    def observe(
        self, idx: int, event: Event, vector: tuple[int, ...] | None = None
    ) -> None:
        """Advance the machine by one event (no-op for kinds it ignores)."""
        handler = self.handlers.get(event.__class__)
        if handler is not None:
            handler(self, idx, event, vector)
        elif event.__class__ not in EVENT_KINDS:
            raise unknown_event_kind(event)

    @property
    def ok(self) -> bool:
        """Live verdict: no locked violation on the prefix so far.

        Always True mid-run for liveness machines (see their
        ``pending_obligations`` for the open-obligation view); the
        finalized verdict is ``self.result().ok``.
        """
        return self.first_violation_index is None

    @property
    def lock_states(self) -> tuple["PropertyState", ...]:
        """The machines whose lock-in locks this verdict: this one."""
        return (self,)

    def finalize(self) -> list[str]:
        raise NotImplementedError

    def result(self) -> CheckResult:
        """The property's :class:`CheckResult` for the prefix seen so far."""
        return _result(self.name, self.finalize())


class FS1State(PropertyState):
    """FS1 — every crash eventually detected by every surviving process.

    Liveness: nothing observable mid-run is ever a violation; the open
    obligations (crashed ``i`` not yet detected by live ``j``) are judged
    only when the prefix is declared finished.

    Under the crash-recovery model a recover event voids the obligation:
    a process that came back up is no longer crashed, so nobody owes a
    detection for that (now finished) downtime.
    """

    __slots__ = ("_n", "_pending_ok", "_crashes", "_detected")

    name = "FS1"
    safety = False

    def __init__(self, n: int, pending_ok: bool = False) -> None:
        super().__init__()
        self._n = n
        self._pending_ok = pending_ok
        self._crashes: dict[int, int] = {}
        self._detected: set[tuple[int, int]] = set()

    def on_crash(self, idx, event, vector) -> None:
        self._crashes.setdefault(event.proc, idx)

    def on_recover(self, idx, event, vector) -> None:
        self._crashes.pop(event.proc, None)
        self._detected = {
            pair for pair in self._detected if pair[1] != event.proc
        }

    def on_failed(self, idx, event, vector) -> None:
        self._detected.add((event.proc, event.target))

    handlers = {
        CrashEvent: on_crash,
        RecoverEvent: on_recover,
        FailedEvent: on_failed,
    }

    def _open_obligations(self):
        """(crashed, surviving-non-detector) pairs, in crash/pid order."""
        return (
            (i, j)
            for i in self._crashes
            for j in range(self._n)
            if j != i and j not in self._crashes
            and (j, i) not in self._detected
        )

    def pending_obligations(self) -> int:
        """Open (crashed, surviving-non-detector) obligations right now."""
        return sum(1 for _ in self._open_obligations())

    def finalize(self) -> list[str]:
        if self._pending_ok:
            return []
        return [
            f"FS1: crash_{i} never detected by surviving process {j}"
            for i, j in self._open_obligations()
        ]


class FS2State(PropertyState):
    """FS2 — no false detections: ``crash_i`` precedes every ``failed_j(i)``.

    Safety, judged at the detection event: a detection of a not-yet-crashed
    process violates FS2 no matter what follows (the crash either never
    comes or comes later — both forbidden), so the verdict locks there.
    The rendered strings distinguish the two continuations at finalize
    time.
    """

    __slots__ = ("_crashes", "_seen", "_bad")

    name = "FS2"

    def __init__(self) -> None:
        super().__init__()
        self._crashes: dict[int, int] = {}
        self._seen: set[tuple[int, int]] = set()
        self._bad: list[tuple[int, int, int]] = []  # (fidx, detector, target)

    def on_crash(self, idx, event, vector) -> None:
        self._crashes.setdefault(event.proc, idx)

    def on_failed(self, idx, event, vector) -> None:
        key = (event.proc, event.target)
        if key in self._seen:
            return
        self._seen.add(key)
        if event.target not in self._crashes:
            self._bad.append((idx, event.proc, event.target))
            self._flag(idx)

    handlers = {CrashEvent: on_crash, FailedEvent: on_failed}

    def finalize(self) -> list[str]:
        violations: list[str] = []
        for fidx, detector, target in self._bad:
            cidx = self._crashes.get(target)
            if cidx is None:
                violations.append(
                    f"FS2: failed_{detector}({target}) at [{fidx}] but "
                    f"crash_{target} never occurs"
                )
            else:
                violations.append(
                    f"FS2: failed_{detector}({target}) at [{fidx}] precedes "
                    f"crash_{target} at [{cidx}]"
                )
        return violations


class SFS2aState(PropertyState):
    """sFS2a — every detected process eventually crashes (liveness)."""

    __slots__ = ("_pending_ok", "_crashed", "_records")

    name = "sFS2a"
    safety = False

    def __init__(self, pending_ok: bool = False) -> None:
        super().__init__()
        self._pending_ok = pending_ok
        self._crashed: set[int] = set()
        self._records: dict[tuple[int, int], int] = {}

    def on_crash(self, idx, event, vector) -> None:
        self._crashed.add(event.proc)

    def on_failed(self, idx, event, vector) -> None:
        self._records.setdefault((event.proc, event.target), idx)

    handlers = {CrashEvent: on_crash, FailedEvent: on_failed}

    def _open_obligations(self):
        """((detector, target), fidx) for detections still awaiting a crash."""
        return (
            (pair, fidx)
            for pair, fidx in self._records.items()
            if pair[1] not in self._crashed
        )

    def pending_obligations(self) -> int:
        """Detections whose target has not crashed yet."""
        return sum(1 for _ in self._open_obligations())

    def finalize(self) -> list[str]:
        if self._pending_ok:
            return []
        return [
            f"sFS2a: failed_{detector}({target}) at [{fidx}] but "
            f"crash_{target} never occurs in the prefix"
            for (detector, target), fidx in self._open_obligations()
        ]


class SFS2bState(PropertyState):
    """sFS2b — the failed-before relation stays acyclic.

    Rides :class:`~repro.core.failed_before.FailedBeforeTracker`; the
    verdict locks at the detection event that closes the first cycle.
    """

    __slots__ = ("_tracker", "_seen")

    name = "sFS2b"

    def __init__(self) -> None:
        super().__init__()
        self._tracker = FailedBeforeTracker()
        self._seen: set[tuple[int, int]] = set()

    def on_failed(self, idx, event, vector) -> None:
        key = (event.proc, event.target)
        if key in self._seen:
            return
        self._seen.add(key)
        self._tracker.add(event.target, event.proc)
        if not self._tracker.acyclic:
            self._flag(idx)

    handlers = {FailedEvent: on_failed}

    @property
    def cycle(self) -> list[tuple[int, int]] | None:
        """The locked-in failed-before cycle, or None while acyclic."""
        return self._tracker.cycle

    def finalize(self) -> list[str]:
        return cycle_violations(self._tracker.cycle)


def cycle_violations(cycle: list[tuple[int, int]] | None) -> list[str]:
    """Render a failed-before cycle as sFS2b violation strings."""
    if cycle is None:
        return []
    rendered = " , ".join(f"{i} failed-before {j}" for i, j in cycle)
    return [f"sFS2b: failed-before cycle: {rendered}"]


class SFS2cState(PropertyState):
    """sFS2c — no process detects its own failure (safety, immediate)."""

    __slots__ = ("_seen", "_violations")

    name = "sFS2c"

    def __init__(self) -> None:
        super().__init__()
        self._seen: set[tuple[int, int]] = set()
        self._violations: list[str] = []

    def on_failed(self, idx, event, vector) -> None:
        key = (event.proc, event.target)
        if key in self._seen:
            return
        self._seen.add(key)
        if event.proc == event.target:
            self._violations.append(
                f"sFS2c: self-detection failed_{event.proc}"
                f"({event.target}) at [{idx}]"
            )
            self._flag(idx)

    handlers = {FailedEvent: on_failed}

    def finalize(self) -> list[str]:
        return list(self._violations)


class SFS2dState(PropertyState):
    """sFS2d — detections propagate ahead of subsequent messages.

    Safety, judged at the *receive*: if the sender had executed
    ``failed(j)`` before sending, the receiver must already have detected
    ``j`` when it consumes the message — otherwise no continuation can
    mend the run, and the verdict locks at the receive's index.
    """

    __slots__ = (
        "_sends",
        "_received",
        "_detections_by_proc",
        "_failed_index",
        "_seen",
        "_records",
    )

    name = "sFS2d"

    def __init__(self) -> None:
        super().__init__()
        # uid -> (sidx, src, dst, msg); first send of each uid.
        self._sends: dict[tuple[int, int], tuple[int, int, int, object]] = {}
        self._received: set[tuple[int, int]] = set()
        self._detections_by_proc: dict[int, list[tuple[int, int]]] = {}
        self._failed_index: dict[tuple[int, int], int] = {}
        self._seen: set[tuple[int, int]] = set()
        # (sidx, fidx, ridx, sender, target, receiver, msg)
        self._records: list[tuple[int, int, int, int, int, int, object]] = []

    def on_send(self, idx, event, vector) -> None:
        self._sends.setdefault(
            event.msg.uid, (idx, event.proc, event.dst, event.msg)
        )

    def on_failed(self, idx, event, vector) -> None:
        key = (event.proc, event.target)
        if key in self._seen:
            return
        self._seen.add(key)
        self._failed_index[key] = idx
        self._detections_by_proc.setdefault(event.proc, []).append(
            (idx, event.target)
        )

    def on_recv(self, idx, event, vector) -> None:
        uid = event.msg.uid
        if uid in self._received:
            return
        self._received.add(uid)
        send = self._sends.get(uid)
        if send is None:
            return  # receive without a send: well-formedness's problem
        sidx, sender, receiver, msg = send
        for fidx, target in self._detections_by_proc.get(sender, ()):
            if fidx > sidx:
                break  # detections sorted by index; rest are later
            if (receiver, target) not in self._failed_index:
                self._records.append(
                    (sidx, fidx, idx, sender, target, receiver, msg)
                )
                self._flag(idx)

    handlers = {
        SendEvent: on_send,
        RecvEvent: on_recv,
        FailedEvent: on_failed,
    }

    def finalize(self) -> list[str]:
        violations: list[str] = []
        for sidx, fidx, ridx, i, j, k, msg in sorted(self._records):
            k_fidx = self._failed_index.get((k, j))
            if k_fidx is None:
                tail = f"failed_{k}({j}) never occurs"
            else:
                tail = f"failed_{k}({j}) only occurs at [{k_fidx}]"
            violations.append(
                f"sFS2d: send_{i}({k}, {msg!r}) at [{sidx}] "
                f"follows failed_{i}({j}) at [{fidx}], but the receive "
                f"at [{ridx}] is not preceded by the detection: {tail}"
            )
        return violations


class Condition3State(PropertyState):
    """Condition 3 — no event of ``j`` causally follows ``failed_i(j)``.

    Needs vector timestamps: at each event of ``j`` it compares the
    event's vector against the stamp of every earlier detection targeting
    ``j`` — O(detections targeting j) per event, bounded by ``n`` since
    only the first detection per ordered pair counts.
    """

    __slots__ = ("_detections", "_seen", "_records")

    name = "Condition3"

    def __init__(self) -> None:
        super().__init__()
        # target -> [(fidx, detector, detection-vector)], first pair only.
        self._detections: dict[
            int, list[tuple[int, int, tuple[int, ...]]]
        ] = {}
        self._seen: set[tuple[int, int]] = set()
        # (fidx, eidx, detector, target, event)
        self._records: list[tuple[int, int, int, int, Event]] = []

    def on_event(self, idx, event, vector) -> None:
        """Any event of ``j``: is it causally after a detection of ``j``?"""
        if vector is None:
            raise ValueError(
                "Condition3State needs the event's vector timestamp; feed "
                "it via MonitorSet/HistoryBuilder observers or "
                "History.vectors"
            )
        detections = self._detections.get(event.proc)
        if detections is None:
            return
        for fidx, detector, dvec in detections:
            if vector[detector] >= dvec[detector]:
                self._records.append(
                    (fidx, idx, detector, event.proc, event)
                )
                self._flag(idx)

    def on_failed(self, idx, event, vector) -> None:
        self.on_event(idx, event, vector)
        key = (event.proc, event.target)
        if key not in self._seen:
            self._seen.add(key)
            self._detections.setdefault(event.target, []).append(
                (idx, event.proc, vector)
            )

    handlers = {
        SendEvent: on_event,
        RecvEvent: on_event,
        CrashEvent: on_event,
        RecoverEvent: on_event,
        InternalEvent: on_event,
        FailedEvent: on_failed,
    }

    def finalize(self) -> list[str]:
        return [
            f"Condition3: failed_{detector}({target}) at [{fidx}] "
            f"happens-before event {event!r} of process "
            f"{target} at [{eidx}]"
            for fidx, eidx, detector, target, event in sorted(
                self._records, key=lambda r: (r[0], r[1])
            )
        ]


class RecoveryState(PropertyState):
    """Recovery discipline of the crash-recovery model (safety).

    Three obligations, all judged at the recover event: a process only
    recovers from a crash (never spontaneously), incarnation numbers
    count 1, 2, 3, ... per process with no gaps or repeats, and a
    process that crashed again after recovering must recover under the
    *next* incarnation. Fail-stop histories contain no recover events,
    so the machine is vacuously satisfied there.
    """

    __slots__ = ("_crashed", "_incarnations", "_violations")

    name = "recovery"

    def __init__(self) -> None:
        super().__init__()
        self._crashed: set[int] = set()
        self._incarnations: dict[int, int] = {}
        self._violations: list[str] = []

    def on_crash(self, idx, event, vector) -> None:
        self._crashed.add(event.proc)

    def on_recover(self, idx, event, vector) -> None:
        proc = event.proc
        if proc not in self._crashed:
            self._violations.append(
                f"recovery: {event!r} at [{idx}] without a "
                f"preceding crash_{proc}"
            )
            self._flag(idx)
        expected = self._incarnations.get(proc, 0) + 1
        if event.incarnation != expected:
            self._violations.append(
                f"recovery: {event!r} at [{idx}] has incarnation "
                f"{event.incarnation}, expected {expected}"
            )
            self._flag(idx)
        self._incarnations[proc] = max(
            event.incarnation, self._incarnations.get(proc, 0)
        )
        self._crashed.discard(proc)

    handlers = {CrashEvent: on_crash, RecoverEvent: on_recover}

    def finalize(self) -> list[str]:
        return list(self._violations)


def _fold(state: PropertyState, history: History, vectors: bool = False):
    """Drive a transition machine over a finished history."""
    if vectors:
        for idx, (event, vec) in enumerate(zip(history, history.vectors)):
            state.observe(idx, event, vec)
    else:
        for idx, event in enumerate(history):
            state.observe(idx, event)
    return state


# ----------------------------------------------------------------------
# Fail-stop (Section 3.1)
# ----------------------------------------------------------------------


def check_fs1(history: History, pending_ok: bool = False) -> CheckResult:
    """FS1: every crash is eventually detected by every surviving process.

    On the finite prefix: for every crashed ``i`` and every ``j``, either
    ``j`` crashes somewhere in the history or ``failed_j(i)`` occurs.
    With ``pending_ok`` the check is vacuously satisfied (used for
    prefixes cut before the detection machinery has quiesced).
    """
    return _fold(FS1State(history.n, pending_ok), history).result()


def check_fs2(history: History) -> CheckResult:
    """FS2: no false detections — ``crash_i`` precedes every ``failed_j(i)``."""
    return _fold(FS2State(), history).result()


def check_fs(history: History, pending_ok: bool = False) -> CheckResult:
    """The fail-stop model: FS1 and FS2 together."""
    violations = list(check_fs1(history, pending_ok).violations)
    violations += list(check_fs2(history).violations)
    return _result("FS", violations)


# ----------------------------------------------------------------------
# Simulated fail-stop (Section 3.3, Figure 1)
# ----------------------------------------------------------------------


def check_sfs2a(history: History, pending_ok: bool = False) -> CheckResult:
    """sFS2a: if ``failed_i(j)`` occurs then ``crash_j`` occurs (eventually).

    Unlike FS2, the crash may come *after* the detection.
    """
    return _fold(SFS2aState(pending_ok), history).result()


def check_sfs2b(history: History) -> CheckResult:
    """sFS2b: the failed-before relation is acyclic."""
    return _result("sFS2b", cycle_violations(find_cycle(history)))


def check_sfs2c(history: History) -> CheckResult:
    """sFS2c: no process ever detects its own failure."""
    return _fold(SFS2cState(), history).result()


def check_sfs2d(history: History) -> CheckResult:
    """sFS2d: detections propagate ahead of subsequent messages.

    If ``send_i(k, m)`` occurs after ``failed_i(j)`` and ``recv_k(i, m)``
    occurs, then ``failed_k(j)`` must occur before the receive. (If *k*
    crashes instead, it simply never receives *m*, which also satisfies
    the property — there is then no receive event to check.)
    """
    return _fold(SFS2dState(), history).result()


def check_sfs(history: History, pending_ok: bool = False) -> CheckResult:
    """The full simulated fail-stop model: FS1 ^ sFS2a-d (Figure 1)."""
    violations: list[str] = []
    for result in (
        check_fs1(history, pending_ok),
        check_sfs2a(history, pending_ok),
        check_sfs2b(history),
        check_sfs2c(history),
        check_sfs2d(history),
    ):
        violations.extend(result.violations)
    return _result("sFS", violations)


# ----------------------------------------------------------------------
# Crash-recovery discipline (failure-model extension)
# ----------------------------------------------------------------------


def check_recovery(history: History) -> CheckResult:
    """Recovery discipline: recovers follow crashes, incarnations count up.

    Vacuously satisfied on fail-stop histories (no recover events).
    """
    return _fold(RecoveryState(), history).result()


# ----------------------------------------------------------------------
# Necessary conditions for indistinguishability (Section 3.2)
# ----------------------------------------------------------------------


def check_condition1(history: History, pending_ok: bool = False) -> CheckResult:
    """Condition 1: ``<> FAILED_i(j)`` implies ``<> CRASH_j``.

    Identical in force to sFS2a on a completed prefix.
    """
    inner = check_sfs2a(history, pending_ok)
    return CheckResult("Condition1", inner.ok, inner.violations)


def check_condition2(history: History) -> CheckResult:
    """Condition 2: the failed-before relation is acyclic (= sFS2b)."""
    inner = check_sfs2b(history)
    return CheckResult("Condition2", inner.ok, inner.violations)


def check_condition3(history: History) -> CheckResult:
    """Condition 3: no event of ``j`` causally follows ``failed_i(j)``.

    Checked directly with the happens-before relation: for every detection
    event ``failed_i(j)`` and every later event ``e`` of process ``j``,
    require ``not (failed_i(j) -> e)``.
    """
    return _fold(Condition3State(), history, vectors=True).result()


def check_necessary_conditions(
    history: History, pending_ok: bool = False
) -> CheckResult:
    """Conditions 1-3 of Theorem 2 together."""
    violations: list[str] = []
    for result in (
        check_condition1(history, pending_ok),
        check_condition2(history),
        check_condition3(history),
    ):
        violations.extend(result.violations)
    return _result("Conditions1-3", violations)
