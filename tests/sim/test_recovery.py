"""Unit tests for the crash-recovery lifecycle and the YOLMT wrapper."""

import dataclasses
import random

import pytest

from repro.analysis.fuzz import DEFAULT_CONFIG, run_fuzz
from repro.core.events import RecoverEvent
from repro.detectors import HeartbeatDriver, PhiAccrualDriver
from repro.errors import ProtocolError, SimulationError
from repro.protocols import SfsProcess, is_recovering, make_recovering
from repro.protocols.recovery import _STATE_KEY as STATE_KEY
from repro.sim import build_world
from repro.sim.delays import ConstantDelay, UniformDelay
from repro.sim.failures import (
    FAULT_KINDS,
    Fault,
    apply_faults,
    random_recovery_plan,
)
from repro.sim.process import SimProcess
from repro.sim.storage import StableStore


class TestFaultKindRegistry:
    def test_known_kinds(self):
        assert set(FAULT_KINDS) == {
            "crash", "suspicion", "recover", "compromise",
            "forge_failed", "phantom_recv",
        }

    def test_unknown_kind_lists_known_ones(self):
        with pytest.raises(SimulationError) as err:
            Fault("crashh", at=1.0, proc=0)
        message = str(err.value)
        assert "crashh" in message
        assert "crash" in message and "suspicion" in message

    def test_suspicion_requires_target(self):
        with pytest.raises(SimulationError, match="needs a target"):
            Fault("suspicion", at=1.0, proc=0)

    def test_specs_describe_themselves(self):
        for name, spec in FAULT_KINDS.items():
            assert spec.name == name
            assert spec.description


class TestRecoveryLifecycle:
    def _world(self, n=3):
        return build_world(
            n,
            SimProcess,
            ConstantDelay(1.0),
            failure_model="crash-recovery",
        )

    def test_recover_now_is_noop_when_up(self):
        world = self._world()
        proc = world.process(0)
        world.start()
        proc.recover_now()
        assert proc.incarnation == 0
        assert proc.status == "up"

    def test_crash_then_recover_bumps_incarnation(self):
        world = self._world()
        proc = world.process(0)
        world.start()
        proc.crash_now()
        assert proc.status == "crashed"
        proc.recover_now()
        assert proc.status == "up"
        assert proc.incarnation == 1

    def test_recover_event_recorded_with_incarnation(self):
        world = self._world()
        world.inject_crash(1, at=1.0)
        world.inject_recover(1, at=2.0)
        world.run_to_quiescence()
        recovers = [
            e for e in world.history() if isinstance(e, RecoverEvent)
        ]
        assert recovers == [RecoverEvent(1, 1)]
        assert world.history().recover_index[(1, 1)] is not None

    def test_inject_recover_rejected_under_fail_stop(self):
        world = build_world(3, SimProcess, ConstantDelay(1.0))
        with pytest.raises(SimulationError, match="crash-recovery"):
            world.inject_recover(0, at=1.0)

    def test_recover_fault_kind_round_trips_through_apply(self):
        world = self._world()
        apply_faults(
            world,
            [
                Fault("crash", at=1.0, proc=2),
                Fault("recover", at=3.0, proc=2),
            ],
        )
        world.run_to_quiescence()
        assert world.process(2).status == "up"
        assert world.process(2).incarnation == 1

    def test_stable_storage_survives_crash(self):
        world = self._world()
        proc = world.process(0)
        world.start()
        proc.stable.put("k", "v")
        proc.crash_now()
        proc.recover_now()
        assert proc.stable.get("k") == "v"

    def test_uids_stay_unique_across_incarnations(self):
        world = self._world(2)
        proc = world.process(0)
        world.start()
        first = proc.send(1, "a")
        proc.crash_now()
        proc.recover_now()
        second = proc.send(1, "b")
        assert first.uid != second.uid


class TestRandomRecoveryPlan:
    def test_respects_t_distinct_victims(self):
        for seed in range(30):
            rng = random.Random(seed)
            plan = random_recovery_plan(8, 2, rng)
            victims = {f.proc for f in plan}
            assert len(victims) <= 2

    def test_recover_follows_crash_per_victim(self):
        for seed in range(30):
            rng = random.Random(seed)
            plan = random_recovery_plan(8, 3, rng)
            by_proc: dict[int, list[Fault]] = {}
            for fault in plan:
                by_proc.setdefault(fault.proc, []).append(fault)
            for faults in by_proc.values():
                kinds = [f.kind for f in faults]
                times = [f.at for f in faults]
                assert times == sorted(times)
                # alternating crash/recover, starting with a crash
                assert kinds[0] == "crash"
                for a, b in zip(kinds, kinds[1:]):
                    assert a != b

    def test_plan_runs_clean_on_a_world(self):
        rng = random.Random(11)
        world = build_world(
            5,
            SimProcess,
            ConstantDelay(1.0),
            failure_model="crash-recovery",
        )
        apply_faults(world, random_recovery_plan(5, 2, rng))
        monitors = world.attach_monitor()
        world.run_to_quiescence()
        assert monitors.ok_so_far


class TestYolmtWrapper:
    def test_wrapper_is_cached_and_idempotent(self):
        wrapped = make_recovering(SfsProcess)
        assert make_recovering(SfsProcess) is wrapped
        assert make_recovering(wrapped) is wrapped
        assert wrapped.__name__ == "RecoveringSfsProcess"

    def test_is_recovering_predicate(self):
        assert not is_recovering(SfsProcess)
        assert is_recovering(make_recovering(SfsProcess))

    def test_wrapped_protocol_state_survives_recovery(self):
        cls = make_recovering(SfsProcess)
        world = build_world(
            5,
            lambda: cls(t=2),
            ConstantDelay(0.5),
            failure_model="crash-recovery",
        )
        # Process 4 is detected as failed; bystander 1 crashes after the
        # protocol completes and recovers — its detected set must be
        # restored from stable storage, not reset.
        world.inject_suspicion(0, 4, at=1.0)
        world.inject_crash(1, at=8.0)
        world.inject_recover(1, at=10.0)
        world.run_to_quiescence()
        assert 4 in world.process(1).detected

    def test_wrapped_run_under_churn_is_conformant(self):
        cls = make_recovering(SfsProcess)
        for seed in range(10):
            world = build_world(
                6,
                lambda: cls(t=2),
                seed=seed,
                failure_model="crash-recovery",
            )
            monitors = world.attach_monitor()
            rng = random.Random(seed + 100)
            apply_faults(world, random_recovery_plan(6, 2, rng))
            world.inject_suspicion(0, 5, at=0.5)
            world.run_to_quiescence(max_events=200_000)
            assert monitors.ok_so_far, monitors.first_violation

    def test_stale_self_broadcast_is_dropped_by_the_next_incarnation(self):
        # The Section 5 broadcast includes the sender; under YOLMT the
        # self-addressed copy carries the minting incarnation, so a copy
        # still in flight across a crash/recovery is not replayed into
        # the restored automaton.
        seen = []

        class Spy(make_recovering(SfsProcess)):
            def _on_susp(self, src, target):
                seen.append((self.pid, src, target, self.incarnation))
                super()._on_susp(src, target)

        world = build_world(
            3,
            lambda: Spy(t=1),
            ConstantDelay(5.0),
            failure_model="crash-recovery",
        )
        world.inject_suspicion(0, 2, at=1.0)  # self copy due at 6.0
        world.inject_crash(0, at=2.0)
        world.inject_recover(0, at=3.0)
        world.inject_suspicion(0, 1, at=4.0)  # minted after recovery
        world.run_to_quiescence()
        assert world.process(0).incarnation == 1
        stamps = sorted(
            (key[1], minted_by)
            for key, minted_by in world.process(0).stable.snapshot().items()
            if isinstance(key, tuple) and key[0] == "yolmt:self"
        )
        # One self-addressed Susp per broadcast, each stamped with the
        # incarnation that minted it (uids are (sender, seq)).
        assert [uid[0] for uid, _ in stamps] == [0, 0]
        assert [minted_by for _, minted_by in stamps] == [0, 1]
        from_self = [entry[1:] for entry in seen if entry[:2] == (0, 0)]
        assert from_self == [(0, 1, 1)]  # the pre-crash Susp(2) never re-enters
        # The rest of the pre-crash broadcast was not stale: 2 read its
        # own name, and 1's echo reached the new incarnation.
        assert world.process(2).crashed
        assert (0, 1, 2, 1) in seen


class _Counter(SimProcess):
    """Counts app messages; ``"die"`` makes it crash itself mid-step."""

    def __init__(self):
        super().__init__()
        self.count = 0
        self.seen: set[int] = set()
        self.by_src: dict[int, int] = {}

    def on_message(self, src, payload, msg):
        self.count += 1
        self.seen.add(src)
        self.by_src[src] = self.by_src.get(src, 0) + 1
        if payload == "die":
            self.scratch = ["made by the step that crashed"]
            self.crash_now()


class _HoldsLambda(SimProcess):
    def __init__(self):
        super().__init__()
        self.fine = 1
        self.callback = lambda: None


def _counter_world():
    world = build_world(
        2,
        make_recovering(_Counter),
        ConstantDelay(1.0),
        failure_model="crash-recovery",
    )
    world.start()
    return world


class TestEncodedSnapshots:
    def test_unencodable_state_is_a_protocol_error_at_start(self):
        world = build_world(
            2,
            make_recovering(_HoldsLambda),
            ConstantDelay(1.0),
            failure_model="crash-recovery",
        )
        with pytest.raises(ProtocolError) as err:
            world.start()
        message = str(err.value)
        assert "\n" not in message
        assert "Recovering_HoldsLambda" in message
        assert "callback" in message and "fine" not in message

    def test_self_crash_mid_deliver_persists_nothing_of_that_step(self):
        world = _counter_world()
        world.process(0).send(1, "a")
        world.process(0).send(1, "die")
        world.run_to_quiescence()
        victim = world.process(1)
        assert victim.crashed and victim.count == 2
        victim.recover_now()
        assert victim.count == 1
        assert victim.by_src == {0: 1}

    def test_recovery_replaces_state_rather_than_merging_it(self):
        world = _counter_world()
        world.process(0).send(1, "die")
        world.run_to_quiescence()
        victim = world.process(1)
        assert victim.scratch  # created by the half step
        victim.recover_now()
        assert not hasattr(victim, "scratch")
        assert victim.pid == 1 and victim.incarnation == 1  # volatile kept

    def test_snapshot_is_isolated_from_live_state(self):
        world = _counter_world()
        world.process(0).send(1, "a")
        world.run_to_quiescence()
        proc = world.process(1)
        # In-place edits with no step in between: never persisted.
        proc.seen.add(99)
        proc.by_src[99] = 1
        proc.crash_now()
        proc.recover_now()
        assert proc.seen == {0} and proc.by_src == {0: 1}
        first_seen, first_by_src = proc.seen, proc.by_src
        first_seen.add(98)
        proc.crash_now()
        proc.recover_now()
        assert proc.seen == {0} and proc.by_src == {0: 1}
        assert proc.seen is not first_seen
        assert proc.by_src is not first_by_src

    @pytest.mark.parametrize(
        "make_detector",
        [
            lambda: HeartbeatDriver(interval=0.5, timeout=2.0),
            lambda: PhiAccrualDriver(interval=0.5, threshold=3.0),
        ],
        ids=["heartbeat", "phi"],
    )
    def test_system_deliveries_leave_persisted_state_unchanged(
        self, make_detector
    ):
        checked = []

        class Checked(make_recovering(SfsProcess)):
            def deliver(self, src, msg, kind):
                super().deliver(src, msg, kind)
                if kind == "system" and not self.crashed:
                    stored = self.stable.get(STATE_KEY)
                    self._persist()  # re-encode the live state
                    assert self.stable.get(STATE_KEY) == stored
                    checked.append(self.pid)

        for seed in range(3):
            world = build_world(
                5,
                lambda: Checked(t=2, detector=make_detector()),
                UniformDelay(0.1, 1.5),
                seed=seed,
                failure_model="crash-recovery",
            )
            # Restored state is checked too (1 comes back before, 2
            # after the detection of 4, which stays down for a timeout
            # to find).
            world.inject_crash(1, at=4.0)
            world.inject_recover(1, at=4.8)
            world.inject_crash(4, at=8.0)
            world.inject_crash(2, at=14.0)
            world.inject_recover(2, at=14.8)
            world.run(until=30.0)
            assert any(p.suspected for p in world.processes)
            assert world.process(1).incarnation == 1
            assert world.process(2).incarnation == 1
        assert len(checked) > 1000

    def test_persist_count_and_digest_on_the_profiled_campaign(
        self, monkeypatch
    ):
        puts = []
        plain_put = StableStore.put

        def counting_put(store, key, value):
            if key == STATE_KEY:
                puts.append(type(value))
            plain_put(store, key, value)

        monkeypatch.setattr(StableStore, "put", counting_put)
        config = dataclasses.replace(
            DEFAULT_CONFIG, failure_model="crash-recovery"
        )
        report = run_fuzz(seed=3, count=180, config=config)
        # 49,559 when every delivery persisted a deep copy; what is left
        # is one encoded snapshot per start, non-system delivery,
        # suspicion and recovery.
        assert len(puts) == 5852
        assert set(puts) == {bytes}
        assert report.findings == ()
        assert report.digest() == (
            "09cfa77b83e68b3a4a690b39904b1bb34d2f3ef0e8ff0c9ee9417b2ffa8f1e7f"
        )
