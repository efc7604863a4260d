"""A run-then-``dispose()``d world dies by reference counting alone.

``ShardedRunner`` pauses the cyclic collector for a whole campaign on the
strength of this property, so it is checked with the collector off: once
the last outside reference to a disposed world is dropped, no ``World``,
``Scheduler``, ``Network``, queued ``_Entry`` or delivery ``_Burst``
survives, and a forced collection afterwards finds nothing.

The check runs in a child interpreter per event core (``REPRO_CORE``),
which also keeps pytest's own garbage out of the census.
"""

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
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


@pytest.mark.parametrize("failure_model", ["fail-stop", "crash-recovery"])
@pytest.mark.parametrize("core", ["pure", "accel"])
def test_disposed_world_is_freed_by_refcount_alone(core, failure_model):
    if core == "accel":
        pytest.importorskip("repro._accel._ccore")
    env = dict(os.environ, REPRO_CORE=core)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, __file__, core, failure_model],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"{core} {failure_model} freed"


if __name__ == "__main__":
    import repro

    expected_core, model = sys.argv[1:]
    assert repro.core_info()["core"] == expected_core
    check_disposed_worlds_are_freed(model)
    print(expected_core, model, "freed")
