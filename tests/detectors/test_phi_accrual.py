"""Tests for the phi-accrual estimator and driver."""

import pytest

from repro.detectors import PhiAccrualDriver, PhiAccrualEstimator
from repro.protocols import SfsProcess
from repro.sim import LogNormalDelay, World


class TestEstimator:
    def test_phi_zero_without_data(self):
        est = PhiAccrualEstimator()
        assert est.phi(10.0) == 0.0

    def test_steady_heartbeats_low_phi(self):
        est = PhiAccrualEstimator()
        for k in range(20):
            est.heartbeat(float(k))
        # Just after a heartbeat, phi should be small.
        assert est.phi(19.1) < 1.0

    def test_silence_raises_phi_monotonically(self):
        est = PhiAccrualEstimator()
        for k in range(20):
            est.heartbeat(float(k))
        values = [est.phi(19.0 + d) for d in (1.0, 2.0, 4.0, 8.0)]
        assert values == sorted(values)
        assert values[-1] > 3.0

    def test_min_std_floor_prevents_explosion(self):
        est = PhiAccrualEstimator(min_std=0.5)
        for k in range(10):
            est.heartbeat(float(k))  # perfectly regular
        _, std = est.mean_std()
        assert std == 0.5

    def test_window_slides(self):
        est = PhiAccrualEstimator(window=5)
        for k in range(100):
            est.heartbeat(float(k))
        assert est.samples == 5

    def test_window_validation(self):
        with pytest.raises(ValueError):
            PhiAccrualEstimator(window=1)

    def test_negative_interval_ignored(self):
        est = PhiAccrualEstimator()
        est.heartbeat(5.0)
        est.heartbeat(4.0)  # clock went backwards: dropped
        assert est.samples == 0

    def test_mean_tracks_interval(self):
        est = PhiAccrualEstimator()
        for k in range(30):
            est.heartbeat(k * 2.0)
        mean, _ = est.mean_std()
        assert mean == pytest.approx(2.0)


class TestDriver:
    def _world(self, threshold, seed=0):
        n = 5
        drivers = [
            PhiAccrualDriver(interval=1.0, threshold=threshold)
            for _ in range(n)
        ]
        processes = [
            SfsProcess(t=n - 1, enforce_bounds=False, quorum_size=2,
                       detector=drivers[i])
            for i in range(n)
        ]
        return World(processes, LogNormalDelay(0.8, 0.4), seed=seed), drivers

    def test_detects_real_crash(self):
        world, drivers = self._world(threshold=4.0)
        world.inject_crash(1, at=20.0)
        world.run(until=60.0)
        assert all(
            1 in world.process(p).detected for p in range(5) if p != 1
        )

    def test_higher_threshold_fewer_false_suspicions(self):
        totals = {}
        for threshold in (0.5, 8.0):
            count = 0
            for seed in range(3):
                world, drivers = self._world(threshold, seed=seed)
                world.run(until=60.0)
                count += sum(len(d.false_suspicions({})) for d in drivers)
            totals[threshold] = count
        assert totals[8.0] <= totals[0.5]

    def test_beat_under_a_hold_queues_only_that_peers_heartbeat(self):
        world, _ = self._world(threshold=100.0)
        world.network.add_hold_predicate(
            lambda src, dst, msg: (src, dst) == (3, 1)
        )
        world.run(until=1.0)  # one beat each, at 1.0
        assert world.network.held_messages() == {(3, 1): 1}
        assert world.network.system_messages_sent == 5 * 4
        assert {sent for sent, _ in world.network.channel_stats().values()} == {1}

    def test_phi_query(self):
        world, drivers = self._world(threshold=100.0)
        world.run(until=20.0)
        # With a huge threshold nothing is suspected, but phi is queryable.
        value = drivers[0].phi(1, world.scheduler.now)
        assert value >= 0.0
