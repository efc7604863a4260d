"""Tests for the fixed-timeout heartbeat detector (FS1 source)."""

from repro.core import check_fs1
from repro.detectors import HeartbeatDriver
from repro.protocols import SfsProcess
from repro.sim import ConstantDelay, ParetoDelay, World


def heartbeat_world(n=5, interval=1.0, timeout=3.0, delay=None, seed=0, t=1):
    drivers = [HeartbeatDriver(interval, timeout) for _ in range(n)]
    processes = [
        SfsProcess(t=t, enforce_bounds=False, quorum_size=2, detector=drivers[i])
        for i in range(n)
    ]
    world = World(processes, delay or ConstantDelay(0.5), seed=seed)
    return world, drivers


class TestLiveness:
    def test_real_crash_detected(self):
        world, drivers = heartbeat_world()
        world.inject_crash(2, at=5.0)
        world.run(until=30.0)
        assert all(
            2 in world.process(p).detected for p in range(5) if p != 2
        )
        assert check_fs1(world.history()).ok

    def test_suspicion_logged_with_time(self):
        world, drivers = heartbeat_world()
        world.inject_crash(2, at=5.0)
        world.run(until=30.0)
        logged = [s for d in drivers for s in d.suspicions]
        assert logged
        assert all(now > 5.0 for now, _, target in logged if target == 2)

    def test_no_suspicions_in_healthy_run(self):
        world, drivers = heartbeat_world(timeout=10.0)
        world.run(until=40.0)
        assert all(not d.suspicions for d in drivers)

    def test_heartbeats_are_system_traffic(self):
        world, _ = heartbeat_world()
        world.run(until=10.0)
        # No heartbeat appears in the modelled history.
        assert len(world.history()) == 0
        assert world.network.system_messages_sent > 0


    def test_beat_under_a_hold_queues_only_that_peers_heartbeat(self):
        # A beat is one fan-out; the adversary's hold test still runs per
        # destination inside it.
        world, _ = heartbeat_world(n=4, timeout=100.0)
        world.network.add_hold_predicate(
            lambda src, dst, msg: (src, dst) == (0, 2)
        )
        world.run(until=1.2)  # one beat each, at 1.0
        assert world.network.held_messages() == {(0, 2): 1}
        stats = world.network.channel_stats()
        assert all(
            stats[(src, dst)][0] == 1
            for src in range(4)
            for dst in range(4)
            if src != dst
        )
        world.run(until=1.8)  # delay 0.5: everything else has arrived
        delivered = {
            channel
            for channel, (_, count) in world.network.channel_stats().items()
            if count
        }
        assert delivered == {
            (src, dst)
            for src in range(4)
            for dst in range(4)
            if src != dst and (src, dst) != (0, 2)
        }
        assert world.network.system_messages_sent == 12


class TestAccuracy:
    def test_heavy_tail_causes_false_suspicions(self):
        world, drivers = heartbeat_world(
            timeout=1.5, delay=ParetoDelay(scale=0.4, alpha=1.3), seed=3,
            t=4,
        )
        world.run(until=60.0)
        false = [
            s for d in drivers for s in d.false_suspicions({})
        ]
        assert false  # Theorem 1 empirically

    def test_false_suspicions_classified_against_crash_times(self):
        driver = HeartbeatDriver()
        driver.log_suspicion(5.0, 0, 1)
        driver.log_suspicion(9.0, 0, 2)
        crash_times = {2: 8.0}
        false = driver.false_suspicions(crash_times)
        assert (5.0, 0, 1) in false  # 1 never crashed
        assert (9.0, 0, 2) not in false  # 2 already down
