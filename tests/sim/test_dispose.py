"""A run-then-``dispose()``d world dies by reference counting alone.

The execution layer pauses the cyclic collector while jobs run
(``ShardedRunner.run`` for shards, ``run_job`` for whole jobs) on the
strength of this property, so it is checked with the collector off: once
the last outside reference to a disposed world is dropped, no ``World``,
``Scheduler``, ``Network``, queued ``_Entry`` or delivery ``_Burst``
survives, and a forced collection afterwards finds nothing.

The check runs in a child interpreter per event core (``REPRO_CORE``),
which also keeps pytest's own garbage out of the census.

The same census enforces the driver contract (``seeded_driver``: dispose
what you build): with the collector off, every registered experiment
driver and every monitored scenario must leave no world behind. The test
walks the registry, so a driver added later without ``dispose()`` fails
it by id — as the throwaway driver it registers for the purpose does.
"""

import gc
import json
import sys

import pytest

SCENARIOS = 4


def _core_types():
    from repro.sim.network import Network, _Burst
    from repro.sim.scheduler import Scheduler, _Entry
    from repro.sim.world import World

    return (World, Scheduler, Network, _Entry, _Burst)


def _alive(types):
    return [obj for obj in gc.get_objects() if type(obj) in types]


def check_disposed_worlds_are_freed(failure_model: str) -> None:
    from repro.analysis.fuzz import (
        FuzzConfig,
        build_scenario_world,
        generate_scenario,
    )

    # Every fail-stop scenario carries a detector, so heartbeat timers
    # and in-flight bursts are still queued when the horizon is reached.
    config = FuzzConfig(
        detector_rate=1.0 if failure_model == "fail-stop" else 0.3,
        failure_model=failure_model,
    )
    types = _core_types()
    queued_at_dispose = 0
    gc.collect()
    gc.disable()
    try:
        assert _alive(types) == []
        for index in range(SCENARIOS):
            scenario = generate_scenario(0, index, config)
            world = build_scenario_world(scenario)
            if scenario.horizon is not None:
                world.run(until=scenario.horizon)
            else:
                world.run_to_quiescence()
            queued_at_dispose += len(world.scheduler._queue)
            world.dispose()
            del world
            assert _alive(types) == [], (failure_model, index)
        assert queued_at_dispose > 0  # entries really were still queued
        assert gc.collect() == 0  # nothing was left for the collector
    finally:
        gc.enable()


def drivers_leaving_worlds_behind() -> dict[str, list[str]]:
    """Census after each driver: ``{id: type names still alive}``.

    Covers every id in the sweep registry — plus ``leaky``, registered
    here, which drops its world — the two unseeded drivers that build
    worlds (E3, E6) and every monitored scenario.
    """
    from repro.analysis.experiments import run_e3, run_e6, seeded_driver
    from repro.analysis.extensions import (
        MONITOR_JOB_KIND,
        MONITOR_SCENARIOS,
        run_monitor_job,
    )
    from repro.analysis.sweep import SweepCase, available_experiments, run_case
    from repro.exec import JobSpec
    from repro.protocols.sfs import SfsProcess
    from repro.sim.world import build_world

    @seeded_driver("leaky")
    def run_leaky(seeds=(0,)):
        world = build_world(4, lambda: SfsProcess(t=1), seed=seeds[0])
        world.inject_suspicion(0, 1, at=1.0)
        world.run_to_quiescence()
        return []  # the world is dropped, not disposed

    runs = {
        eid: (lambda eid=eid: run_case(SweepCase(eid, seed=1)))
        for eid in available_experiments()
    }
    runs["e3"] = lambda: run_e3(ks=(2,))
    runs["e6"] = lambda: run_e6(ns=(4,))
    for case in MONITOR_SCENARIOS:
        runs[f"monitor:{case}"] = lambda case=case: run_monitor_job(
            JobSpec(MONITOR_JOB_KIND, case, seed=1)
        )

    types = _core_types()
    leaks: dict[str, list[str]] = {}
    gc.collect()
    gc.disable()
    try:
        assert _alive(types) == []
        for name, run in runs.items():
            run()
            alive = _alive(types)
            if alive:
                leaks[name] = sorted({type(obj).__name__ for obj in alive})
            del alive
            gc.collect()  # one driver's leak is not charged to the next
    finally:
        gc.enable()
    return leaks


def _run_child(core, what):
    # Imported here: this file is also the child's script, where the
    # tests package is not importable.
    from tests.conftest import SRC, run_python

    if core == "accel":
        pytest.importorskip("repro._accel._ccore")
    proc = run_python(SRC, core, __file__, core, what)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.parametrize("failure_model", ["fail-stop", "crash-recovery"])
@pytest.mark.parametrize("core", ["pure", "accel"])
def test_disposed_world_is_freed_by_refcount_alone(core, failure_model):
    assert _run_child(core, failure_model) == f"{core} {failure_model} freed"


@pytest.mark.parametrize("core", ["pure", "accel"])
def test_only_the_driver_that_does_not_dispose_leaves_worlds_behind(core):
    leaks = json.loads(_run_child(core, "drivers"))
    assert list(leaks) == ["leaky"]  # every in-repo driver is clean
    assert {"World", "Scheduler", "Network"} <= set(leaks["leaky"])


if __name__ == "__main__":
    import repro

    expected_core, what = sys.argv[1:]
    assert repro.core_info()["core"] == expected_core
    if what == "drivers":
        print(json.dumps(drivers_leaving_worlds_behind()))
    else:
        check_disposed_worlds_are_freed(what)
        print(expected_core, what, "freed")
