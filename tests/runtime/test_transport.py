"""Direct unit tests for the asyncio host's clock and transport.

The cluster tests exercise both only end to end; these pin their
contracts in isolation: per-channel FIFO under adverse delay draws,
messages carried as the sender minted them, timer handles, and the one
error path every host callback shares.

Two behaviours of the former transport moved out of it: minting
(``SimProcess.send`` / ``Network.fanout``) and app-only recording
(``World.transmit``). ``TestTraceVisibility`` pins both on the host, where
the wall-clock links now get them; the simulator side is covered by
``tests/accel/test_cross_core.py::test_fanout_is_n_sends_on_every_core``
and ``tests/sim/test_world_process.py::TestWorldBasics::test_history_records_send_recv``.
"""

import asyncio
import random

import pytest

from repro.core.events import SendEvent
from repro.core.messages import MessageMint
from repro.errors import ProtocolError, SimulationError
from repro.runtime import AsyncioClock, AsyncioWorld, LocalTransport
from repro.sim.delays import ConstantDelay, DelayModel
from repro.sim.process import SimProcess


class _DecreasingDelay(DelayModel):
    """First message slow, later ones fast — the FIFO stress shape."""

    def __init__(self, start=5.0, step=2.0):
        self._next = start
        self._step = step

    def sample(self, rng: random.Random, src: int, dst: int) -> float:
        value = self._next
        self._next = max(0.0, self._next - self._step)
        return value


def _run(body, n=2, delay=None, wait=0.05):
    """Run ``body(transport, mints)`` on a fresh clock, then collect
    ``(src, dst, payload, kind)`` deliveries for ``wait`` seconds."""

    async def scenario():
        got = []
        transport = LocalTransport(
            AsyncioClock(),
            n,
            lambda src, dst, msg, kind: got.append((src, dst, msg.payload, kind)),
            delay or ConstantDelay(0.5),
            random.Random(0),
            0.001,
        )
        body(transport, [MessageMint(i) for i in range(n)])
        await asyncio.sleep(wait)
        return got

    return asyncio.run(scenario())


class TestFifoAndDelays:
    def test_fifo_despite_decreasing_delays(self):
        """A slow first message must still beat fast later ones: later
        sends wait *behind* it on the channel."""

        def body(transport, mints):
            for i in range(10):
                transport.send(0, 1, mints[0].mint(i))

        got = _run(body, delay=_DecreasingDelay(start=20.0, step=6.0), wait=0.2)
        assert [payload for _, _, payload, _ in got] == list(range(10))

    def test_channels_are_independent(self):
        def body(transport, mints):
            transport.send(0, 1, mints[0].mint("a"))
            transport.send(0, 2, mints[0].mint("b"))
            transport.send(2, 1, mints[2].mint("c"))

        got = _run(body, n=3)
        assert {(src, dst) for src, dst, _, _ in got} == {(0, 1), (0, 2), (2, 1)}

    def test_negative_delay_clamped(self):
        class Negative(DelayModel):
            def sample(self, rng, src, dst):
                return -1.0

        got = _run(
            lambda transport, mints: transport.send(0, 1, mints[0].mint("x")),
            delay=Negative(),
            wait=0.02,
        )
        assert got == [(0, 1, "x", "app")]


class TestSendAndFanout:
    def test_send_outside_universe_refused(self):
        def body(transport, mints):
            with pytest.raises(SimulationError, match="outside process universe"):
                transport.send(0, 2, mints[0].mint("x"))

        assert _run(body, wait=0.0) == []

    def test_fanout_mints_one_message_per_destination(self):
        sent = []

        def body(transport, mints):
            sent.extend(transport.fanout(1, [0, 1, 2], mints[1], "p", "protocol"))

        got = _run(body, n=3)
        assert [msg.uid for msg in sent] == [(1, 0), (1, 1), (1, 2)]
        assert sorted(got) == [(1, dst, "p", "protocol") for dst in range(3)]


class TestClock:
    def test_now_is_monotonic_nonnegative(self):
        async def scenario():
            clock = AsyncioClock()
            first = clock.now
            await asyncio.sleep(0.01)
            return first, clock._now

        first, second = asyncio.run(scenario())
        assert 0.0 <= first < second

    def test_timer_handles_fire_once_or_not_at_all(self):
        async def scenario():
            clock = AsyncioClock()
            fired = []
            kept = clock.schedule(0.01, lambda: fired.append("kept"))
            dropped = clock.schedule_at(0.01, lambda: fired.append("dropped"))
            dropped.cancel()
            assert kept.active and not dropped.active
            await asyncio.sleep(0.03)
            return fired, kept.active

        assert asyncio.run(scenario()) == (["kept"], False)

    def test_a_raising_callback_ends_the_run(self):
        async def scenario():
            clock = AsyncioClock()
            ran = []

            def boom():
                raise ProtocolError("boom")

            clock.schedule_callback_at(0.0, boom)
            clock.schedule_callback_at(0.01, lambda: ran.append(1))
            await asyncio.sleep(0.03)
            return clock.done, ran

        done, ran = asyncio.run(scenario())
        assert ran == []
        with pytest.raises(ProtocolError, match="boom"):
            done.result()


def _run_on_host(body, n=2, wait=0.05):
    """Run ``body(world)`` at time 0 on a host of plain processes for
    ``wait`` seconds; returns the world."""

    async def scenario():
        world = AsyncioWorld(
            [SimProcess() for _ in range(n)], ConstantDelay(0.5), time_scale=0.001
        )
        world.scheduler.schedule_at(0.0, lambda: body(world))
        await world.run_for(wait)
        return world

    return asyncio.run(scenario())


class TestTraceVisibility:
    def test_only_app_sends_recorded(self):
        def body(world):
            sender = world.process(0)
            sender.send(1, "app-payload")
            sender.send(1, "susp", kind="protocol")
            sender.send(1, "beat", kind="system")

        history = list(_run_on_host(body).history())
        assert [e.msg.payload for e in history if isinstance(e, SendEvent)] == [
            "app-payload"
        ]
        assert {e.msg.payload for e in history} == {"app-payload"}

    def test_messages_minted_per_source(self):
        sent = []

        def body(world):
            sent.append(world.process(0).send(1, "x"))
            sent.append(world.process(0).send(2, "y"))
            sent.append(world.process(1).send(2, "z"))

        _run_on_host(body, n=3)
        a, b, c = sent
        assert a.sender == 0 and b.sender == 0 and c.sender == 1
        assert a.uid != b.uid  # distinct mint ids from one source


class TestRunFor:
    def test_cancels_background_awaitables(self):
        """Work scheduled past the duration never runs, even if the loop
        keeps going after :meth:`AsyncioWorld.run_for` returns."""
        fired = []

        async def scenario():
            world = AsyncioWorld([SimProcess() for _ in range(2)], time_scale=0.001)
            world.scheduler.schedule(0.005, lambda: fired.append("early"))
            world.scheduler.schedule(0.03, lambda: fired.append("late"))
            await world.run_for(0.02)
            await asyncio.sleep(0.04)

        asyncio.run(scenario())
        assert fired == ["early"]
