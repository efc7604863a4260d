"""Unit tests for the bounded-Byzantine failure model (byzantine-crash)."""

import random

import pytest

from repro.core.events import SendEvent
from repro.core.validate import is_valid
from repro.errors import SimulationError
from repro.sim import build_world
from repro.sim.delays import ConstantDelay
from repro.sim.failures import Fault, apply_faults, random_byzantine_plan
from repro.sim.process import SimProcess


class _Chatter(SimProcess):
    """Broadcasts a steady stream so interference has traffic to hit."""

    def on_start(self):
        for round_no in range(5):
            self.set_timer(
                0.5 + round_no, lambda r=round_no: self.broadcast(("m", r))
            )


def _byz_world(n=4, seed=0):
    return build_world(
        n,
        _Chatter,
        ConstantDelay(1.0),
        seed=seed,
        failure_model="byzantine-crash",
    )


class TestCompromise:
    def test_inject_compromise_rejected_under_fail_stop(self):
        world = build_world(3, _Chatter, ConstantDelay(1.0))
        with pytest.raises(SimulationError, match="byzantine"):
            world.inject_compromise(0, at=1.0)

    def test_compromised_set_tracks_injections(self):
        world = _byz_world()
        world.inject_compromise(2, at=1.0)
        assert world.compromised == frozenset()
        world.run(until=2.0)
        assert world.compromised == frozenset({2})

    def test_interference_keeps_history_well_formed(self):
        # Drop/mutate/duplicate all happen before recording, so the
        # resulting history must validate under plain fail-stop rules.
        for seed in range(20):
            world = _byz_world(seed=seed)
            world.inject_compromise(0, at=0.1)
            world.inject_compromise(1, at=0.1)
            world.run_to_quiescence()
            assert is_valid(world.history())

    def test_mutated_payloads_are_tagged(self):
        # Over enough seeds the adversary must mutate at least once.
        tags = 0
        for seed in range(20):
            world = _byz_world(seed=seed)
            world.inject_compromise(0, at=0.1)
            world.run_to_quiescence()
            tags += sum(
                1
                for e in world.history()
                if hasattr(e, "msg")
                and isinstance(e.msg.payload, tuple)
                and e.msg.payload and e.msg.payload[0] == "byz"
            )
        assert tags > 0

    def test_app_broadcast_is_intercepted_per_destination(self):
        # Protocol and system broadcasts are one network fan-out; a
        # modelled (app) broadcast must still reach World.transmit
        # message by message, or a compromised sender escapes.
        world = _byz_world(n=5)
        world.inject_compromise(0, at=0.1)
        moves = []
        interfere = world._interfere

        def spy(src, msg):
            out = interfere(src, msg)
            moves.append((src, msg.uid, [m.uid for m in out]))
            return out

        world._interfere = spy
        world.run(until=0.6)  # everyone's first broadcast, at 0.5
        assert [src for src, _, _ in moves] == [0] * 4
        sent = [
            (e.dst, e.msg.uid)
            for e in world.history()
            if isinstance(e, SendEvent) and e.proc == 0
        ]
        assert len(sent) == sum(len(out) for _, _, out in moves)
        assert world.network.app_messages_sent == 4 * 4 + len(sent)
        assert world.network.protocol_messages_sent == 0

    def test_byzantine_rng_is_isolated_from_world_rng(self):
        # Same seed, with and without compromise: the *uncompromised*
        # processes' delivery schedule must be untouched until the
        # compromised sender's traffic actually diverges.
        plain = _byz_world(seed=5)
        plain.run_to_quiescence()
        # A fresh world with the same seed but a compromise injected
        # after the horizon draws nothing from the byz stream.
        late = _byz_world(seed=5)
        late.inject_compromise(0, at=99.0)
        late.run(until=50.0)
        assert len(plain.trace) == len(late.trace)


class TestRandomByzantinePlan:
    def test_faulty_set_bounded_by_t(self):
        for seed in range(30):
            rng = random.Random(seed)
            plan = random_byzantine_plan(8, 2, rng)
            faulty = {f.proc for f in plan}
            assert len(faulty) <= 2
            assert all(f.kind in ("compromise", "crash") for f in plan)

    def test_crashes_only_hit_compromised(self):
        # BG-style: a Byzantine process may also crash, but plain
        # crashes of honest processes are not this plan's business.
        for seed in range(30):
            rng = random.Random(seed)
            plan = random_byzantine_plan(8, 3, rng)
            compromised = {
                f.proc for f in plan if f.kind == "compromise"
            }
            for fault in plan:
                if fault.kind == "crash":
                    assert fault.proc in compromised

    def test_plan_runs_clean_on_a_world(self):
        for seed in range(10):
            rng = random.Random(seed)
            world = _byz_world(n=6, seed=seed)
            monitors = world.attach_monitor()
            apply_faults(world, random_byzantine_plan(6, 2, rng))
            world.run_to_quiescence(max_events=100_000)
            assert monitors.ok_so_far, monitors.first_violation
