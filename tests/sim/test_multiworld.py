"""Tests for the in-process sharded multi-world engine."""

import pytest

from repro.detectors.heartbeat import HeartbeatDriver
from repro.errors import SimulationError
from repro.protocols import SfsProcess
from repro.sim import ShardSpec, ShardedRunner, World, build_world
from repro.sim.delays import UniformDelay


def _quiescence_spec(seed, n=8):
    def build():
        world = build_world(n, lambda: SfsProcess(t=2), seed=seed)
        world.inject_crash(5, at=0.7)
        world.inject_suspicion(0, 5, at=1.0)
        return world

    return ShardSpec(key=seed, build=build)


def _horizon_spec(seed, n=5, horizon=10.0):
    def build():
        processes = [
            SfsProcess(
                t=n - 1, enforce_bounds=False, quorum_size=2,
                detector=HeartbeatDriver(interval=1.0, timeout=30.0),
            )
            for _ in range(n)
        ]
        world = World(processes, UniformDelay(0.2, 1.0), seed=seed)
        world.inject_crash(seed % n, at=4.0)
        return world

    return ShardSpec(key=seed, build=build, horizon=horizon)


def _collect(spec, world):
    return (spec.key, world.history(), world.scheduler.now)


class TestShardedRunner:
    def test_results_in_spec_order(self):
        specs = [_quiescence_spec(seed) for seed in (7, 3, 11)]
        results = ShardedRunner().run(specs, _collect)
        assert [key for key, _, _ in results] == [7, 3, 11]

    def test_matches_standalone_worlds(self):
        specs = [_quiescence_spec(seed) for seed in range(6)]
        sharded = ShardedRunner(stepping="round_robin", quantum=17).run(
            specs, _collect
        )
        for seed, history, now in sharded:
            world = _quiescence_spec(seed).build()
            world.run_to_quiescence()
            assert history == world.history()
            assert now == world.scheduler.now

    @pytest.mark.parametrize("quantum", [1, 13, 4096])
    def test_stepping_policies_bit_identical(self, quantum):
        specs = [_quiescence_spec(seed) for seed in range(5)]
        sequential = ShardedRunner(stepping="sequential").run(specs, _collect)
        round_robin = ShardedRunner(
            stepping="round_robin", quantum=quantum, window=2
        ).run(specs, _collect)
        assert sequential == round_robin

    def test_horizon_shards_stop_at_horizon(self):
        (result,) = ShardedRunner().run([_horizon_spec(0)], _collect)
        _, _, now = result
        assert now == pytest.approx(10.0)

    def test_stats_count_shards_and_events(self):
        runner = ShardedRunner(stepping="round_robin", quantum=8, window=3)
        specs = [_quiescence_spec(seed) for seed in range(5)]
        runner.run(specs, _collect)
        assert runner.stats.shards == 5
        assert runner.stats.events > 0
        assert runner.stats.peak_live_shards == 3

    def test_monitor_halt_completes_shard(self):
        from repro.analysis.extensions import _ChattyUnilateral

        def build():
            world = build_world(
                6, _ChattyUnilateral, delay_model=UniformDelay(0.2, 2.0),
                seed=3,
            )
            world.attach_monitor(stop_on_violation=True)
            world.inject_suspicion(0, 1, at=1.0)
            world.inject_suspicion(1, 0, at=1.0)
            return world

        def collect(spec, world):
            return (world.monitors.first_violation, len(world.trace))

        (sharded,) = ShardedRunner(stepping="round_robin", quantum=16).run(
            [ShardSpec(key=0, build=build)], collect
        )
        standalone = build()
        standalone.run_to_quiescence(max_events=2_000_000)
        assert sharded == (
            standalone.monitors.first_violation,
            len(standalone.trace),
        )
        assert sharded[0] is not None  # the violation actually fired

    def test_livelock_guard_raises(self):
        def build():
            world = build_world(3, lambda: SfsProcess(t=1), seed=0)

            def churn():
                world.scheduler.schedule(1.0, churn)

            world.scheduler.schedule(1.0, churn)
            return world

        runner = ShardedRunner(quantum=64)
        with pytest.raises(SimulationError, match="livelock"):
            runner.run(
                [ShardSpec(key="spin", build=build, max_events=500)],
                _collect,
            )

    def test_invalid_configuration_rejected(self):
        with pytest.raises(SimulationError, match="stepping"):
            ShardedRunner(stepping="zigzag")
        with pytest.raises(SimulationError, match="quantum"):
            ShardedRunner(quantum=0)
        with pytest.raises(SimulationError, match="window"):
            ShardedRunner(window=0)

