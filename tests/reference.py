"""Reference implementations the suite compares the monitors against.

Kept apart from the test modules because several of them share these:
the unit tests of the routed dispatch, the hypothesis properties, the
exhaustive small-scope enumeration and the fuzzer's own tests.
"""

from repro.analysis.fuzz_world import _scenario_shard
from repro.analysis.monitors import (
    DEFAULT_HALT_ON,
    BadPairCounter,
    ConditionsMonitor,
    MonitorSet,
)
from repro.core.failure_models import (
    Condition3State,
    FS1State,
    FS2State,
    RecoveryState,
    SFS2aState,
    SFS2bState,
    SFS2cState,
    SFS2dState,
    get_failure_model,
)
from repro.core.validate import ValidationState
from repro.sim.multiworld import run_shard


def reference_verdicts(
    n,
    stream,
    failure_model="fail-stop",
    halt_on=DEFAULT_HALT_ON,
    pending_ok=False,
):
    """The oracle for the routed dispatch: no routing, no push.

    Every monitor stands alone on machines of its own (Conditions1-3
    too, so nothing is shared), every machine is shown every event
    through its generic ``observe``, and after each event every
    halt-relevant safety monitor is polled in ``monitors`` order.
    Returns ``(check results, violation log, bad-pair count)``.
    """
    conditions = (SFS2aState(pending_ok), SFS2bState(), Condition3State())
    monitors = [
        ValidationState(n, failure_model),
        FS1State(n, pending_ok),
        FS2State(),
        SFS2aState(pending_ok),
        SFS2bState(),
        SFS2cState(),
        SFS2dState(),
        ConditionsMonitor(*conditions),
    ]
    machines = monitors[:-1] + list(conditions)
    if get_failure_model(failure_model).recoverable:
        monitors.append(RecoveryState())
        machines.append(monitors[-1])
    bad_pairs = BadPairCounter()
    machines.append(bad_pairs)
    polled = [
        monitor
        for monitor in monitors
        if monitor.safety and monitor.name in halt_on
    ]
    log: list[tuple[int, str]] = []
    tripped: set[str] = set()
    for idx, (event, vector) in enumerate(stream):
        for machine in machines:
            machine.observe(idx, event, vector)
        for monitor in polled:
            if (
                monitor.name not in tripped
                and monitor.first_violation_index is not None
            ):
                tripped.add(monitor.name)
                log.append((monitor.first_violation_index, monitor.name))
    results = {monitor.name: monitor.result() for monitor in monitors}
    return results, log, bad_pairs.count


def assert_stream_equals_replay(world):
    """The differential ``judge_world`` ran per scenario until PR 24, whole.

    A fresh :class:`MonitorSet` replays ``world.history()`` and must agree
    with the set that rode the run (``world.monitors``) on the violation
    log, every check result, the bad-pair count and the coverage labels.
    """
    monitors = world.monitors
    replayed = MonitorSet(
        world.n,
        pending_ok=monitors.pending_ok,
        failure_model=monitors.model.name,
    ).replay(world.history())
    assert replayed.violation_log == monitors.violation_log
    stream_results = monitors.check_results()
    batch_results = replayed.check_results()
    assert stream_results == batch_results
    assert replayed.bad_pairs.count == monitors.bad_pairs.count
    assert replayed.transition_coverage(
        batch_results
    ) == monitors.transition_coverage(stream_results)


def run_and_compare_with_replay(scenario):
    """Run one fuzz scenario the way every backend does (one shard, the
    fuzzer's own spec and judge) with :func:`assert_stream_equals_replay`
    applied to the finished world; returns the judged outcome."""
    spec, judge = _scenario_shard(scenario)

    def collect(spec, world):
        assert_stream_equals_replay(world)
        return judge(spec, world)

    outcome, _events = run_shard(spec, collect)
    return outcome
