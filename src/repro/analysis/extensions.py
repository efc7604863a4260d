"""Extension experiments: E11 (transitivity probe), A1 (deferral ablation),
E14 (streaming monitors under a violation-heavy adversary), and E17
(Ben-Or consensus across the pluggable failure models).

E11 quantifies Section 6's closing discussion: how far does detection-
knowledge piggybacking push the failed-before relation towards
transitivity, compared to the plain Section 5 protocol on identical
schedules? (Spoiler, matching the paper's caution: closer, not closed.)

A1 is the design-choice ablation of the Section 5 protocol: remove the
application-message deferral ("takes no other action" clause) and show
that sFS2d genuinely breaks — the mechanism is load-bearing, not
ceremonial.

E14 exercises the analyze-on-append path end to end: a unilateral
(Section 6 cheap-model) cluster with continuous application chatter is
driven into a failed-before cycle early in a long run; streaming monitors
catch the sFS2b violation at its event index, and ``early_stop`` aborts
the case there instead of simulating tens of thousands of post-violation
events. This is the driver of the early-stopping sweep mode;
``tests/analysis/test_sweep.py`` pins that it stops at the same event
index after at least ten times fewer events.

E17 runs the same consensus app (:mod:`repro.apps.ben_or`) under each
registered failure model — fail-stop crashes, crash-recovery churn,
bounded-Byzantine interference — and reports decisions, agreement, and
monitor verdicts side by side: the cross-model comparison the pluggable
failure-model layer exists to make possible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from repro.apps.ben_or import BenOrProcess, check_consensus, decided_values
from repro.core.failure_models import (
    check_sfs,
    check_sfs2d,
    get_failure_model,
)
from repro.core.indistinguishability import ensure_crashes
from repro.errors import SimulationError
from repro.protocols.recovery import make_recovering
from repro.protocols.sfs import SfsProcess
from repro.protocols.transitive import TransitiveSfsProcess
from repro.protocols.unilateral import UnilateralProcess
from repro.analysis.experiments import seeded_driver
from repro.sim.delays import UniformDelay
from repro.sim.failures import (
    Fault,
    apply_faults,
    random_byzantine_plan,
    random_recovery_plan,
)
from repro.sim.world import build_world


# ----------------------------------------------------------------------
# E11 — transitivity of failed-before, plain vs piggybacked
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class E11Row:
    """Ordering/transitivity statistics for one protocol over many seeds.

    ``inversions`` counts per-process detection-order reversals against
    the global suspicion order in a two-victim race; ``truncated_logs``
    counts crash-truncated logs that recorded the *later* victim without
    the earlier one. The paper-relevant finding is that both columns are
    *identical* for the plain and piggybacked protocols: FIFO plus full
    echo already provides every ordering the knowledge decoration could
    enforce (knowledge and confirmations ride the same FIFO channels, so
    whenever the piggybacked prerequisite information is available, the
    plain protocol's quorums were already ordered), and the remaining
    intransitivity is information dying with crashed processes — which no
    payload decoration of a one-round protocol can resurrect. Section 6's
    "stronger versions of fail-stop" really do need a different protocol,
    not a richer message.
    """

    protocol: str
    runs: int
    inversions: int
    truncated_logs: int
    sfs_conformant: int


def _race_inversions(factory, seed: int) -> int:
    """Two staggered victims; count per-process detection reversals."""
    n = 9
    world = build_world(n, factory, UniformDelay(0.1, 4.0), seed=seed)
    world.inject_suspicion(2, 7, at=1.0)
    world.inject_suspicion(3, 8, at=1.8)
    world.run_to_quiescence()
    history = world.history()
    world.dispose()
    inversions = 0
    for p in range(n):
        first = history.failed_index.get((p, 7))
        second = history.failed_index.get((p, 8))
        if first is not None and second is not None and second < first:
            inversions += 1
    return inversions


def _truncated_log(factory, seed: int) -> tuple[bool, bool]:
    """Crash a bystander mid-window; inspect its truncated log.

    Returns ``(truncated_inversion, sfs_ok)`` where the first flag means
    the crashed process logged the later victim without the earlier one —
    the log shape that makes failed-before intransitive in total-failure
    recovery.
    """
    n = 9
    rng = random.Random(seed + 500)
    world = build_world(n, factory, UniformDelay(0.1, 4.0), seed=seed)
    world.inject_suspicion(2, 7, at=1.0)
    world.inject_suspicion(3, 8, at=1.4)
    world.inject_crash(5, at=rng.uniform(2.0, 5.0))
    world.inject_suspicion(2, 5, at=8.0)
    world.run_to_quiescence()
    history = ensure_crashes(world.history())
    world.dispose()
    logged = sorted(t for (d, t) in history.failed_index if d == 5)
    truncated_inversion = logged == [8]
    return truncated_inversion, check_sfs(history, pending_ok=True).ok


@seeded_driver("e11")
def run_e11(
    seeds: Sequence[int] = tuple(range(40)),
) -> list[E11Row]:
    """Measure ordering and truncation behaviour, plain vs piggybacked."""
    rows: list[E11Row] = []
    for protocol_name, race_factory, trunc_factory in (
        (
            "sfs",
            lambda: SfsProcess(t=2),
            lambda: SfsProcess(t=3, enforce_bounds=False, quorum_size=4),
        ),
        (
            "sfs+piggyback",
            lambda: TransitiveSfsProcess(t=2),
            lambda: TransitiveSfsProcess(
                t=3, enforce_bounds=False, quorum_size=4
            ),
        ),
    ):
        inversions = 0
        truncated = 0
        conformant = 0
        for seed in seeds:
            inversions += _race_inversions(race_factory, seed)
            was_truncated, ok = _truncated_log(trunc_factory, seed)
            truncated += was_truncated
            conformant += ok
        rows.append(
            E11Row(
                protocol=protocol_name,
                runs=len(seeds),
                inversions=inversions,
                truncated_logs=truncated,
                sfs_conformant=conformant,
            )
        )
    return rows


# ----------------------------------------------------------------------
# A1 — ablation: remove the sFS2d deferral mechanism
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class A1Row:
    """sFS2d outcomes with and without application-message deferral."""

    defer_app: bool
    runs: int
    sfs2d_violations: int

    @property
    def violation_rate(self) -> float:
        """Fraction of runs violating sFS2d."""
        return self.sfs2d_violations / self.runs


@seeded_driver("a1")
def run_a1(
    n: int = 9, t: int = 2, seeds: Sequence[int] = tuple(range(20))
) -> list[A1Row]:
    """Chatty application + a quorum-starved receiver, deferral on vs off.

    The application broadcasts work items continuously. One receiver
    (process 1) gets its last needed confirmations only over slow
    channels, so its round stays open while fast channels keep delivering
    post-detection work from peers that already executed ``failed``. With
    deferral (the paper's "takes no other action" clause) the race is
    impossible by construction; without it, sFS2d genuinely breaks.

    Note what does *not* break it: FIFO alone protects any single
    channel (the sender's own ``"j failed"`` precedes its work), which is
    why the violation needs the *cross-channel* race this scenario sets
    up — and why the paper needs the deferral clause at all.
    """
    from repro.sim.delays import PerChannelDelay

    class ChattyProcess(SfsProcess):
        def on_start(self):
            super().on_start()
            self._work_seq = 0
            self.set_timer(0.5, self._tick, periodic=True)

        def _tick(self):
            if self.crashed:
                return
            self._work_seq += 1
            self.broadcast_app(("work", self.pid, self._work_seq))
            if self._work_seq < 40:
                self.set_timer(0.5, self._tick, periodic=True)

    slow_channels = tuple(((src, 1), 8.0) for src in (5, 6, 7, 8))
    rows: list[A1Row] = []
    for defer in (True, False):
        violations = 0
        for seed in seeds:
            world = build_world(
                n,
                lambda: ChattyProcess(t=t, defer_app=defer),
                delay_model=PerChannelDelay(
                    UniformDelay(0.2, 2.0), slow_channels
                ),
                seed=seed,
            )
            world.adversary.hold_suspicions_about(4, {4})
            world.inject_suspicion(0, 4, at=1.0)
            world.scheduler.schedule_at(30.0, world.adversary.heal)
            world.run(until=80.0)
            world.run_to_quiescence(max_events=2_000_000)
            history = ensure_crashes(world.history())
            world.dispose()
            if not check_sfs2d(history).ok:
                violations += 1
        rows.append(
            A1Row(defer_app=defer, runs=len(seeds), sfs2d_violations=violations)
        )
    return rows

# ----------------------------------------------------------------------
# E14 — streaming monitors catch violations mid-run; early stop pays
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class E14Row:
    """One monitored run of the violation-heavy adversary scenario."""

    n: int
    work_items: int
    early_stop: bool
    events_recorded: int
    violation_event_index: int | None
    violating_monitor: str | None

    @property
    def violated(self) -> bool:
        """Whether a halt-relevant safety monitor tripped."""
        return self.violation_event_index is not None


class _ChattyUnilateral(UnilateralProcess):
    """Section 6 cheap-model detector plus continuous application chatter.

    The chatter is what makes early stopping worth measuring: the
    failed-before cycle closes within the first few dozen events, while
    the application keeps the run going for thousands more.
    """

    work_items = 120

    def on_start(self) -> None:
        super().on_start()
        self._work_seq = 0
        self.set_timer(0.5, self._tick, periodic=True)

    def _tick(self) -> None:
        if self.crashed:
            return
        self._work_seq += 1
        self.broadcast_app(("work", self.pid, self._work_seq))
        if self._work_seq < self.work_items:
            self.set_timer(0.5, self._tick, periodic=True)


@seeded_driver("e14")
def run_e14(
    n: int = 8,
    work_items: int = 120,
    suspicion_ring: int = 2,
    seeds: Sequence[int] = tuple(range(10)),
    early_stop: bool = False,
) -> list[E14Row]:
    """Monitored unilateral runs; mutual suspicion closes an sFS2b cycle.

    The first ``suspicion_ring`` processes suspect each other in a ring at
    t=1.0 — under the unilateral protocol that yields a failed-before
    cycle (sFS2b violation) almost immediately, while the remaining
    processes churn out ``work_items`` application broadcasts each. With
    ``early_stop`` the attached :class:`~repro.analysis.monitors.MonitorSet`
    halts the world at the violating event; without it the run goes to
    quiescence and the monitors merely tag the violation index. Both
    modes are pure functions of the seed, so sweep rows stay bit-identical
    across serial and parallel executors.
    """
    if not 2 <= suspicion_ring <= n:
        raise ValueError(
            f"need 2 <= suspicion_ring <= n, got {suspicion_ring} (n={n})"
        )

    def factory() -> _ChattyUnilateral:
        proc = _ChattyUnilateral()
        proc.work_items = work_items
        return proc

    rows: list[E14Row] = []
    for seed in seeds:
        world = build_world(
            n, factory, delay_model=UniformDelay(0.2, 2.0), seed=seed
        )
        monitors = world.attach_monitor(stop_on_violation=early_stop)
        for i in range(suspicion_ring):
            world.inject_suspicion(i, (i + 1) % suspicion_ring, at=1.0)
        world.run_to_quiescence(max_events=2_000_000)
        violation = monitors.first_violation
        rows.append(
            E14Row(
                n=n,
                work_items=work_items,
                early_stop=early_stop,
                events_recorded=len(world.trace),
                violation_event_index=(
                    violation[0] if violation else None
                ),
                violating_monitor=violation[1] if violation else None,
            )
        )
        world.dispose()
    return rows

# ----------------------------------------------------------------------
# E17 — one consensus app, three failure models
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class E17Row:
    """Ben-Or consensus outcomes under one failure model, over many seeds.

    ``decided_runs`` counts runs where every process that was up at the
    end had decided; ``clean`` counts runs where consensus (agreement +
    validity) held *and* no halt-relevant safety monitor locked a
    violation. ``crashes``/``recoveries``/``compromised`` total the fault
    plans actually injected, so the row documents how much adversity the
    model put the app through.
    """

    failure_model: str
    n: int
    t: int
    runs: int
    decided_runs: int
    crashes: int
    recoveries: int
    compromised: int
    events: int
    clean: int


E17_MODELS = ("fail-stop", "crash-recovery", "byzantine-crash")
"""Model lineup one :func:`run_e17` call compares (one row each)."""


def _e17_plan(model: str, n: int, t: int, seed: int) -> list[Fault]:
    """The model-appropriate fault plan for one E17 run (pure in seed)."""
    rng = random.Random(f"repro-e17:{model}:{seed}")
    spec = get_failure_model(model)
    if spec.recoverable:
        return random_recovery_plan(n, t, rng, horizon=5.0)
    if spec.byzantine:
        return random_byzantine_plan(n, t, rng, horizon=5.0)
    victims = rng.sample(range(n), k=rng.randint(0, t))
    return [
        Fault("crash", at=round(rng.uniform(0.5, 4.0), 4), proc=victim)
        for victim in victims
    ]


@seeded_driver("e17")
def run_e17(
    n: int = 5,
    t: int = 1,
    seeds: Sequence[int] = tuple(range(20)),
    failure_models: Sequence[str] = E17_MODELS,
    max_events: int = 200_000,
) -> list[E17Row]:
    """Run Ben-Or under each failure model; one aggregate row per model.

    Every run attaches the model-aware streaming
    :class:`~repro.analysis.monitors.MonitorSet`, so ``clean`` certifies
    both the app-level contract (agreement, validity) and the
    trace-level one (well-formedness, no self-detection, incarnation
    discipline) in a single column. Pure in ``(seeds, n, t)``: rows are
    bit-identical across serial/parallel/inproc sweep backends.
    """
    rows: list[E17Row] = []
    for model in failure_models:
        decided_runs = crashes = recoveries = compromised = 0
        events = clean = 0
        for seed in seeds:
            world = build_world(
                n,
                lambda: BenOrProcess(t=t, seed=seed),
                delay_model=UniformDelay(0.1, 1.0),
                seed=seed,
                failure_model=model,
            )
            monitors = world.attach_monitor()
            plan = _e17_plan(model, n, t, seed)
            apply_faults(world, plan)
            crashes += sum(1 for f in plan if f.kind == "crash")
            recoveries += sum(1 for f in plan if f.kind == "recover")
            compromised += sum(1 for f in plan if f.kind == "compromise")
            world.run_to_quiescence(max_events=max_events)
            events += len(world.trace)
            decisions = decided_values(world)
            if all(
                pid in decisions
                for pid in world.alive()
            ):
                decided_runs += 1
            if monitors.ok_so_far and not check_consensus(world):
                clean += 1
            world.dispose()
        rows.append(
            E17Row(
                failure_model=model,
                n=n,
                t=t,
                runs=len(seeds),
                decided_runs=decided_runs,
                crashes=crashes,
                recoveries=recoveries,
                compromised=compromised,
                events=events,
                clean=clean,
            )
        )
    return rows


# ----------------------------------------------------------------------
# Monitored scenarios for `python -m repro monitor`
# ----------------------------------------------------------------------


def _monitor_cls(cls: type, failure_model: str) -> type:
    """``cls`` (YOLMT-wrapped when the model allows recovery)."""
    if get_failure_model(failure_model).recoverable:
        return make_recovering(cls)
    return cls


def _monitor_world_demo(n: int, seed: int, failure_model: str = "fail-stop"):
    """The quickstart sFS scenario: one crash, conformant throughout.

    Under crash-recovery the crashed process additionally comes back at
    t=3.0 (wrapped, so the protocol itself is unchanged) — the minimal
    demonstration that the monitors accept a lawful recovery.
    """
    n = n or 9
    cls = _monitor_cls(SfsProcess, failure_model)
    world = build_world(
        n, lambda: cls(t=2), seed=seed, failure_model=failure_model
    )
    world.inject_crash(n - 2, at=0.5)
    world.inject_suspicion(0, n - 2, at=1.0)
    if world.model.recoverable:
        world.inject_recover(n - 2, at=3.0)
    return world


def _monitor_world_cycle(n: int, seed: int, failure_model: str = "fail-stop"):
    """Unilateral mutual suspicion: the quickest sFS2b violation."""
    cls = _monitor_cls(UnilateralProcess, failure_model)
    world = build_world(
        n or 6,
        lambda: cls(),
        delay_model=UniformDelay(0.2, 2.0),
        seed=seed,
        failure_model=failure_model,
    )
    world.inject_suspicion(0, 1, at=1.0)
    world.inject_suspicion(1, 0, at=1.0)
    return world


def _monitor_world_e14(n: int, seed: int, failure_model: str = "fail-stop"):
    """The violation-heavy E14 workload: early cycle, long chatty tail."""
    world = build_world(
        n or 8,
        _monitor_cls(_ChattyUnilateral, failure_model),
        delay_model=UniformDelay(0.2, 2.0),
        seed=seed,
        failure_model=failure_model,
    )
    world.inject_suspicion(0, 1, at=1.0)
    world.inject_suspicion(1, 0, at=1.0)
    return world


def _monitor_world_benor(n: int, seed: int, failure_model: str = "fail-stop"):
    """Ben-Or consensus under the selected model's fault churn (E17).

    The showcase for ``--failure-model``: the same app rides fail-stop
    crashes, crash-recovery churn, or Byzantine interference depending on
    the flag, and the streaming monitors certify the trace either way.
    """
    n = n or 5
    t = 1
    world = build_world(
        n,
        lambda: BenOrProcess(t=t, seed=seed),
        delay_model=UniformDelay(0.1, 1.0),
        seed=seed,
        failure_model=failure_model,
    )
    apply_faults(world, _e17_plan(world.model.name, n, t, seed))
    return world


MONITOR_SCENARIOS = {
    "demo": _monitor_world_demo,
    "cycle": _monitor_world_cycle,
    "e14": _monitor_world_e14,
    "benor": _monitor_world_benor,
}
"""Scenario builders for the streaming-monitor CLI, by id."""


def build_monitor_world(
    eid: str,
    n: int | None = None,
    seed: int = 0,
    failure_model: str = "fail-stop",
):
    """Construct the (not yet run) world for a monitored scenario."""
    try:
        builder = MONITOR_SCENARIOS[eid.lower()]
    except KeyError:
        raise SimulationError(
            f"unknown monitored scenario {eid!r}; choose from "
            f"{', '.join(sorted(MONITOR_SCENARIOS))}"
        ) from None
    return builder(n or 0, seed, failure_model)


MONITOR_JOB_KIND = "repro.analysis.extensions:run_monitor_job"
"""Entrypoint string monitored-run jobs carry (see :mod:`repro.exec.job`)."""


@dataclass(frozen=True)
class MonitorRunResult:
    """Everything a monitored run produced, as journalable plain data.

    ``violations`` holds ``(event index, virtual time, monitor name,
    event repr)`` per locked safety violation — enough to re-render the
    CLI's live violation lines from a resumed journal without
    re-simulating. ``summary`` is the
    :meth:`~repro.analysis.monitors.MonitorSet.summary` text of the
    finished run.
    """

    eid: str
    seed: int
    events: int
    halted: bool
    ok: bool
    violations: tuple[tuple[int, float, str, str], ...]
    summary: str


def run_monitor_case(
    eid: str,
    n: int | None = None,
    seed: int = 0,
    stop: bool = False,
    max_events: int = 1_000_000,
    observer_factory=None,
    failure_model: str = "fail-stop",
) -> MonitorRunResult:
    """Run one monitored scenario to completion and package the verdicts.

    ``observer_factory(trace, monitors)``, when given, returns a trace
    observer ``(idx, event, vector) -> None`` attached before the run —
    the hook the CLI uses for live event/violation printing. The returned
    result is a pure function of
    ``(eid, n, seed, stop, max_events, failure_model)``; the observer can
    watch but not steer.
    """
    world = build_monitor_world(
        eid, n=n, seed=seed, failure_model=failure_model
    )
    monitors = world.attach_monitor(stop_on_violation=stop)
    trace = world.trace
    if observer_factory is not None:
        trace.attach_observer(observer_factory(trace, monitors))
    world.run_to_quiescence(max_events=max_events)
    violations = tuple(
        (idx, trace.time_of_index(idx), name, repr(trace.event_at(idx)))
        for idx, name in monitors.violation_log
    )
    result = MonitorRunResult(
        eid=eid.lower(),
        seed=seed,
        events=monitors.events_seen,
        halted=world.scheduler.stop_requested,
        ok=monitors.ok_so_far,
        violations=violations,
        summary=monitors.summary(),
    )
    world.dispose()
    return result


def run_monitor_job(job) -> MonitorRunResult:
    """Execution-layer entrypoint: a monitored run from its job form.

    ``job.spec_id`` is the scenario id; ``n``/``stop``/``max_events``
    ride in params. Module-level so any executor can resolve it by name.
    """
    return run_monitor_case(
        job.spec_id,
        n=job.param("n"),
        seed=job.seed,
        stop=bool(job.param("stop", False)),
        max_events=job.param("max_events", 1_000_000),
        failure_model=job.param("failure_model", "fail-stop"),
    )
