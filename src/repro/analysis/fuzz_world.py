"""The simulator half of the fuzzer: scenario → world → judged outcome.

:mod:`repro.analysis.fuzz` describes scenarios, plans them as jobs and
folds outcomes into reports without touching a simulator; this module is
what a job runs. It builds a :class:`~repro.sim.world.World` for one
:class:`~repro.analysis.fuzz.Scenario` with streaming conformance
monitors attached, runs it as a one-world
:class:`~repro.sim.multiworld.ShardSpec`, and flags every scenario where

* the streaming monitors did not observe exactly the recorded events, or
  the violation log they pushed is not the one their lock-in indices
  give when polled (the differential oracle; the full stream ≡ replay
  comparison runs exhaustively over small histories in tier-1), or
* a property the configuration *should* satisfy is violated (the model
  oracle, per :func:`~repro.analysis.fuzz.expected_clean`).

The fuzz job runners import this module on their first job, so a run
that executes none — a ``fuzz --resume`` over a complete journal, or the
coordinator of a remote fleet — loads no simulator, protocol, detector
or monitor. :func:`build_scenario_world` and :func:`judge_world` stay
readable as ``repro.analysis.fuzz.<name>`` too.
"""

from __future__ import annotations

import repro.analysis.fuzz as fuzz
from repro.analysis.fuzz import FuzzOutcome, Scenario, expected_clean
from repro.analysis.monitors import MonitorSet
from repro.core.failure_models import get_failure_model
from repro.detectors.heartbeat import HeartbeatDriver
from repro.detectors.phi_accrual import PhiAccrualDriver
from repro.protocols.generic import GenericOneRoundProcess
from repro.protocols.recovery import make_recovering
from repro.protocols.sfs import SfsProcess
from repro.protocols.transitive import TransitiveSfsProcess
from repro.protocols.unilateral import UnilateralProcess
from repro.sim.delays import (
    ConstantDelay,
    DelayModel,
    ExponentialDelay,
    LogNormalDelay,
    ParetoDelay,
    UniformDelay,
)
from repro.sim.failures import apply_faults
from repro.sim.multiworld import ShardSpec, run_shard
from repro.sim.world import World

# ----------------------------------------------------------------------
# Materialisation
# ----------------------------------------------------------------------

_DELAY_BUILDERS = {
    "constant": lambda p: ConstantDelay(*p),
    "uniform": lambda p: UniformDelay(*p),
    "exponential": lambda p: ExponentialDelay(*p),
    "lognormal": lambda p: LogNormalDelay(*p),
    "pareto": lambda p: ParetoDelay(*p),
}


def _delay_model(scenario: Scenario) -> DelayModel:
    family, params = scenario.delay
    return _DELAY_BUILDERS[family](params)


def _make_process(scenario: Scenario):
    kind, params = scenario.detector
    detector = None
    if kind == "heartbeat":
        detector = HeartbeatDriver(interval=params[0], timeout=params[1])
    elif kind == "phi":
        detector = PhiAccrualDriver(interval=params[0], threshold=params[1])
    classes = {
        "sfs": SfsProcess,
        "transitive": TransitiveSfsProcess,
        "generic": GenericOneRoundProcess,
        "unilateral": UnilateralProcess,
    }
    cls = classes[scenario.protocol]
    if get_failure_model(scenario.failure_model).recoverable:
        # Crash-recovery runs the *unmodified* crash-stop protocols under
        # the YOLMT wrapper; the classes themselves stay untouched.
        cls = make_recovering(cls)
    if scenario.protocol == "generic":
        assert scenario.quorum_size is not None
        return cls(quorum_size=scenario.quorum_size, detector=detector)
    if scenario.protocol == "unilateral":
        return cls(detector=detector)
    return cls(t=scenario.t, detector=detector)


def build_scenario_world(scenario: Scenario) -> World:
    """A ready-to-run world for one scenario, monitors already attached.

    The attached :class:`~repro.analysis.monitors.MonitorSet` (reachable
    as ``world.monitors``) streams over every recorded event; it is *not*
    set to stop on violation — the fuzzer judges the complete run.
    """
    world = World(
        [_make_process(scenario) for _ in range(scenario.n)],
        _delay_model(scenario),
        seed=scenario.seed,
        failure_model=scenario.failure_model,
    )
    world.attach_monitor(
        MonitorSet(
            scenario.n,
            pending_ok=True,
            failure_model=scenario.failure_model,
        )
    )
    apply_faults(world, list(scenario.faults))
    for target, shield in scenario.holds:
        world.adversary.hold_suspicions_about(target, frozenset(shield))
    if scenario.partition is not None:
        side_a, side_b = scenario.partition
        world.adversary.partition(side_a, side_b)
    if scenario.heal_at is not None:
        world.scheduler.schedule_at(scenario.heal_at, world.adversary.heal)
    for at, src, dst, tag in scenario.chatter:
        proc = world.process(src)

        def send_chatter(p=proc, d=dst, g=tag) -> None:
            p.send(d, ("fuzz", p.pid, g))

        world.scheduler.schedule_at(at, send_chatter)
    return world


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------


def judge_world(scenario: Scenario, world: World) -> FuzzOutcome:
    """Differential + model oracle for one completed scenario run.

    The differential half checks the stream rather than re-running it:
    the monitor set must have observed every recorded event exactly once,
    and the violation log its machines pushed must equal the log polled
    from their lock-in indices. That a set which saw the whole history
    judges it as a replay would is a property of the monitors, not of
    the run; ``tests/property/test_small_scope.py`` checks it on every
    small history.
    """
    monitors = world.monitors
    assert monitors is not None
    findings: list[str] = []

    recorded = len(world.trace)
    if monitors.events_seen != recorded:
        findings.append(
            "stream/batch divergence: monitors observed "
            f"{monitors.events_seen} of {recorded} recorded events"
        )
    polled = monitors.polled_violation_log()
    if polled != monitors.violation_log:
        findings.append(
            "stream/batch divergence: violation logs differ "
            f"(stream={monitors.violation_log!r}, batch={polled!r})"
        )

    tripped = {name for _, name in monitors.violation_log}
    for name in expected_clean(scenario):
        if name in tripped:
            locked = next(
                idx for idx, mon in monitors.violation_log if mon == name
            )
            findings.append(
                f"model violation: {name} tripped at event {locked} in a "
                f"{scenario.protocol} scenario that must satisfy it"
            )

    return FuzzOutcome(
        index=scenario.index,
        scenario=scenario,
        events=recorded,
        violations=tuple(monitors.violation_log),
        findings=tuple(findings),
        coverage=monitors.transition_coverage(monitors.check_results()),
    )


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------


def _scenario_shard(scenario: Scenario):
    """The one-shard form every fuzz execution path funnels through."""
    spec = ShardSpec(
        key=scenario,
        build=(lambda: build_scenario_world(scenario)),
        horizon=scenario.horizon,
        # Read per scenario: the valve is the fuzz module's constant.
        max_events=fuzz.FUZZ_MAX_EVENTS,
    )
    return spec, (lambda spec, world: judge_world(spec.key, world))


def _run_whole(scenario: Scenario) -> FuzzOutcome:
    """Run and judge one scenario to completion, as its own shard.

    :func:`~repro.sim.multiworld.run_shard` is what the ``inproc``
    executor's runner calls per scenario, so completion and
    livelock-valve semantics are the shard form's *by construction* —
    not merely equivalent, the same code — keeping every backend
    bit-identical even at the valve boundary.
    """
    outcome, _events = run_shard(*_scenario_shard(scenario))
    return outcome
