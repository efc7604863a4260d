"""Unit tests for the FIFO network with holds."""

import random

import pytest

from repro.core.messages import MessageMint
from repro.errors import SimulationError
from repro.sim.delays import ConstantDelay, UniformDelay
from repro.sim.network import Network
from repro.sim.scheduler import Scheduler


def make_net(n=3, delay=None, seed=0, batch=True):
    scheduler = Scheduler()
    delivered = []
    net = Network(
        scheduler,
        n,
        delay or UniformDelay(0.1, 5.0),
        random.Random(seed),
        deliver=lambda src, dst, msg, system: delivered.append(
            (src, dst, msg, system)
        ),
        batch=batch,
    )
    return scheduler, net, delivered


class TestFifo:
    def test_fifo_per_channel_despite_random_delays(self):
        scheduler, net, delivered = make_net()
        mint = MessageMint(0)
        msgs = [mint.mint(i) for i in range(20)]
        for m in msgs:
            net.send(0, 1, m)
        scheduler.run()
        assert [d[2] for d in delivered] == msgs

    def test_channels_independent(self):
        scheduler, net, delivered = make_net(delay=ConstantDelay(1.0))
        m0, m2 = MessageMint(0).mint(), MessageMint(2).mint()
        net.send(0, 1, m0)
        net.send(2, 1, m2)
        scheduler.run()
        assert len(delivered) == 2

    def test_self_channel(self):
        scheduler, net, delivered = make_net()
        m = MessageMint(1).mint()
        net.send(1, 1, m)
        scheduler.run()
        assert delivered == [(1, 1, m, "app")]

    def test_channel_clock_monotone(self):
        # A very slow first message forces later fast ones to wait.
        scheduler = Scheduler()
        times = []
        delays = iter([10.0, 0.1])

        class TwoDelays:
            def sample(self, rng, src, dst):
                return next(delays)

        net = Network(
            scheduler, 2, TwoDelays(), random.Random(0),
            deliver=lambda *a: times.append(scheduler.now),
        )
        mint = MessageMint(0)
        net.send(0, 1, mint.mint())
        net.send(0, 1, mint.mint())
        scheduler.run()
        assert times[0] <= times[1]


class TestHolds:
    def test_block_and_release(self):
        scheduler, net, delivered = make_net()
        net.block_channel(0, 1)
        m = MessageMint(0).mint()
        net.send(0, 1, m)
        scheduler.run()
        assert delivered == []
        released = net.release_channel(0, 1)
        assert released == 1
        scheduler.run()
        assert [d[2] for d in delivered] == [m]

    def test_release_preserves_fifo(self):
        scheduler, net, delivered = make_net()
        net.block_channel(0, 1)
        mint = MessageMint(0)
        msgs = [mint.mint(i) for i in range(5)]
        for m in msgs:
            net.send(0, 1, m)
        net.release_channel(0, 1)
        scheduler.run()
        assert [d[2] for d in delivered] == msgs

    def test_predicate_triggers_block(self):
        scheduler, net, delivered = make_net()
        net.add_hold_predicate(lambda src, dst, msg: msg.payload == "bad")
        mint = MessageMint(0)
        net.send(0, 1, mint.mint("good"))
        net.send(0, 1, mint.mint("bad"))
        net.send(0, 1, mint.mint("after"))  # queues behind the held one
        scheduler.run()
        assert [d[2].payload for d in delivered] == ["good"]
        net.release_all()
        scheduler.run()
        assert [d[2].payload for d in delivered] == ["good", "bad", "after"]

    def test_release_all_counts(self):
        scheduler, net, delivered = make_net()
        net.block_channel(0, 1)
        net.block_channel(1, 2)
        net.send(0, 1, MessageMint(0).mint())
        net.send(1, 2, MessageMint(1).mint())
        assert net.release_all() == 2

    def test_held_messages_introspection(self):
        scheduler, net, _ = make_net()
        net.block_channel(0, 1)
        net.send(0, 1, MessageMint(0).mint())
        assert net.held_messages() == {(0, 1): 1}

    def test_release_all_keeps_hold_rules(self):
        # A partial release delivers the queue but unrelated content-hold
        # rules keep applying to future traffic.
        scheduler, net, delivered = make_net()
        net.add_hold_predicate(lambda src, dst, msg: msg.payload == "bad")
        mint = MessageMint(0)
        net.send(0, 1, mint.mint("bad"))
        assert net.release_all() == 1
        scheduler.run()
        assert [d[2].payload for d in delivered] == ["bad"]
        net.send(0, 2, mint.mint("bad"))  # fresh channel, rule still live
        scheduler.run()
        assert [d[2].payload for d in delivered] == ["bad"]
        assert net.held_messages() == {(0, 2): 1}

    def test_clear_holds_removes_rules(self):
        scheduler, net, delivered = make_net()
        net.add_hold_predicate(lambda src, dst, msg: msg.payload == "bad")
        net.add_hold_predicate(lambda src, dst, msg: msg.payload == "worse")
        assert net.clear_holds() == 2
        assert net.clear_holds() == 0
        net.send(0, 1, MessageMint(0).mint("bad"))
        scheduler.run()
        assert [d[2].payload for d in delivered] == ["bad"]

    def test_adversary_heal_clears_rules_and_releases(self):
        from repro.sim.adversary import Adversary

        scheduler, net, delivered = make_net()
        adversary = Adversary(net)
        adversary.hold_matching(lambda src, dst, msg: msg.payload == "bad")
        mint = MessageMint(0)
        net.send(0, 1, mint.mint("bad"))
        assert adversary.heal() == 1
        scheduler.run()
        assert [d[2].payload for d in delivered] == ["bad"]
        net.send(0, 1, mint.mint("bad"))  # rule is gone after heal
        scheduler.run()
        assert [d[2].payload for d in delivered] == ["bad", "bad"]


class TestBatchedDelivery:
    def test_backlogged_channel_shares_one_entry(self):
        # All sends happen at now=0 with a constant delay, so every due
        # clamps to the channel clock: one scheduler entry, M messages.
        scheduler, net, delivered = make_net(delay=ConstantDelay(1.0))
        mint = MessageMint(0)
        msgs = [mint.mint(i) for i in range(100)]
        for m in msgs:
            net.send(0, 1, m)
        assert net.delivery_entries == 1
        scheduler.run()
        assert [d[2] for d in delivered] == msgs
        assert net.messages_delivered == 100
        # Per-message delivery pays one entry per message, same order.
        scheduler, per_message_net, per_message = make_net(
            delay=ConstantDelay(1.0), batch=False
        )
        for m in msgs:
            per_message_net.send(0, 1, m)
        scheduler.run()
        assert per_message_net.delivery_entries == 100
        assert per_message == delivered

    def test_batched_order_identical_to_per_message(self):
        def run(batch):
            scheduler, net, delivered = make_net(
                delay=UniformDelay(0.1, 5.0), seed=7, batch=batch
            )
            mint = MessageMint(0)
            net.block_channel(0, 1)
            for i in range(200):
                net.send(0, 1, mint.mint(i))
            net.release_channel(0, 1)
            scheduler.run()
            return net, [d[2] for d in delivered]

        batched_net, batched = run(True)
        per_message_net, per_message = run(False)
        assert batched == per_message
        assert batched_net.delivery_entries < per_message_net.delivery_entries

    def test_interleaved_channels_never_merge(self):
        # Alternating channels break the "most recently scheduled" guard,
        # so batching must fall back to per-message entries — and stay
        # correct.
        scheduler, net, delivered = make_net(delay=ConstantDelay(1.0))
        mint = MessageMint(0)
        for i in range(10):
            net.send(0, 1, mint.mint(("a", i)))
            net.send(0, 2, mint.mint(("b", i)))
        scheduler.run()
        to_1 = [d[2].payload for d in delivered if d[1] == 1]
        to_2 = [d[2].payload for d in delivered if d[1] == 2]
        assert to_1 == [("a", i) for i in range(10)]
        assert to_2 == [("b", i) for i in range(10)]

    def test_kind_boundary_starts_new_entry(self):
        # A system (periodic) message may not ride a non-periodic burst:
        # quiescence accounting depends on the entry's periodic class.
        scheduler, net, delivered = make_net(delay=ConstantDelay(1.0))
        mint = MessageMint(0)
        net.send(0, 1, mint.mint("app"))
        net.send(0, 1, mint.mint("hb"), kind="system")
        net.send(0, 1, mint.mint("app2"))
        assert net.delivery_entries == 3
        assert scheduler.pending_nonperiodic() == 2
        scheduler.run()
        assert [d[2].payload for d in delivered] == ["app", "hb", "app2"]

    def test_reentrant_send_during_drain_opens_fresh_entry(self):
        # A delivery that immediately sends on the same channel (possible
        # with zero delay) must not inject into the burst being drained.
        scheduler = Scheduler()
        delivered = []
        net = Network(scheduler, 2, ConstantDelay(0.0), random.Random(0))
        mint = MessageMint(0)

        def deliver(src, dst, msg, kind):
            delivered.append(msg.payload)
            if msg.payload == "first":
                net.send(0, 1, mint.mint("reaction"))

        net.set_deliver(deliver)
        net.send(0, 1, mint.mint("first"))
        net.send(0, 1, mint.mint("second"))
        scheduler.run()
        assert delivered == ["first", "second", "reaction"]
        assert net.delivery_entries == 2

    def test_fired_bursts_are_pruned_from_channel_state(self):
        # Regression (mirrors the SimProcess._timers leak fix): once a
        # burst entry fires, the channel keeps no reference to its deque,
        # so thousands of idle channels cost nothing after their traffic.
        scheduler, net, _ = make_net(delay=ConstantDelay(1.0))
        mint = MessageMint(0)
        for dst in range(3):
            for i in range(50):
                net.send(0, dst, mint.mint(i))
        assert any(
            state.burst is not None for state in net._channels.values()
        )
        scheduler.run()
        assert all(state.burst is None for state in net._channels.values())

    def test_release_after_block_batches_the_backlog(self):
        scheduler, net, delivered = make_net(delay=ConstantDelay(2.0))
        mint = MessageMint(1)
        net.block_channel(1, 2)
        msgs = [mint.mint(i) for i in range(500)]
        for m in msgs:
            net.send(1, 2, m)
        assert net.delivery_entries == 0
        assert net.release_channel(1, 2) == 500
        assert net.delivery_entries == 1
        scheduler.run()
        assert [d[2] for d in delivered] == msgs


class TestGuards:
    def test_out_of_range_rejected(self):
        _, net, _ = make_net(n=2)
        with pytest.raises(SimulationError):
            net.send(0, 5, MessageMint(0).mint())

    def test_counters(self):
        scheduler, net, _ = make_net()
        net.send(0, 1, MessageMint(0).mint())
        net.send(0, 1, MessageMint(0).mint("hb"), kind="system")
        assert net.app_messages_sent == 1
        assert net.system_messages_sent == 1
        scheduler.run()
        assert net.messages_delivered == 2
