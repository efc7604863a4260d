"""Tests for the asyncio runtime: the host world, its links and the
cluster service.

These run real wall-clock scenarios; durations are kept around a second.
The host runs the simulator's own process objects, so the same scenario
is also run on the simulator and the two are compared.
"""

import asyncio
import time

import pytest

from repro.analysis import analyze
from repro.core.events import FailedEvent, RecvEvent, SendEvent
from repro.core.validate import is_valid
from repro.detectors.base import HEARTBEAT
from repro.errors import BoundsError, ProtocolError, SimulationError
from repro.protocols import SfsProcess, TransitiveSfsProcess
from repro.protocols.recovery import make_recovering
from repro.runtime import AsyncioWorld, run_cluster
from repro.sim import World
from repro.sim.delays import ConstantDelay
from repro.sim.process import SimProcess


def _run_plain(body, n=2, duration=0.1):
    """Run ``body(world)`` at time 0 on a host of plain processes, then
    keep the host running for ``duration`` seconds; returns the world."""

    async def scenario():
        world = AsyncioWorld(
            [SimProcess() for _ in range(n)], ConstantDelay(1.0), time_scale=0.001
        )
        world.scheduler.schedule_at(0.0, lambda: body(world))
        await world.run_for(duration)
        return world

    return asyncio.run(scenario())


class TestTransport:
    def test_fifo_per_channel(self):
        def body(world):
            for i in range(10):
                world.process(0).send(1, i)

        history = _run_plain(body).history()
        assert [e.msg.payload for e in history if isinstance(e, RecvEvent)] == list(
            range(10)
        )

    def test_system_traffic_not_recorded(self):
        def body(world):
            world.process(0).send(1, HEARTBEAT, kind="system")
            world.process(0).send(1, "app")

        history = list(_run_plain(body).history())
        # only the app message: its send and its recv
        assert [type(e) for e in history] == [SendEvent, RecvEvent]
        assert {e.msg.payload for e in history} == {"app"}


class TestCluster:
    def test_real_crash_detected_and_conformant(self):
        result = run_cluster(
            n=5, duration=1.2, t=1, crash_at={2: 0.3},
            heartbeat_interval=0.04, phi_threshold=6.0,
        )
        assert 2 in result.crashed
        survivors = [i for i in range(5) if i != 2]
        assert all(2 in result.detected[i] for i in survivors)
        assert is_valid(result.history)
        report = analyze(
            result.history, result.quorum_records, t=1, pending_ok=True
        )
        assert report.is_simulated_fail_stop
        assert report.indistinguishable_from_fail_stop

    def test_injected_false_suspicion_crashes_target(self):
        result = run_cluster(
            n=4, duration=1.0, t=1,
            suspect_at=[(0.2, 0, 3)],
            phi_threshold=None,  # no monitor: only the injected suspicion
            heartbeat_interval=0.05,
        )
        # sFS2a in real time: the falsely suspected node reads its own
        # name and crashes.
        assert 3 in result.crashed
        assert 3 in result.false_suspicion_targets
        report = analyze(
            result.history, result.quorum_records, t=1, pending_ok=True
        )
        assert report.is_simulated_fail_stop

    def test_healthy_cluster_quiet(self):
        result = run_cluster(
            n=3, duration=0.6, t=1, phi_threshold=50.0,
            heartbeat_interval=0.03,
        )
        assert result.crashed == frozenset()
        assert all(not d for d in result.detected.values())


class TestBadInput:
    @pytest.mark.parametrize(
        "kwargs, error, match",
        [
            (dict(n=3, crash_at={7: 0.1}), SimulationError, "no process 7"),
            (dict(n=3, suspect_at=[(0.1, 0, 0)]), SimulationError, "suspect itself"),
            (dict(n=3, suspect_at=[(0.1, 0, 9)]), SimulationError, "no process 9"),
            (dict(n=3, t=2), BoundsError, "Corollary 8"),
            (dict(n=1), BoundsError, "Corollary 8"),
        ],
        ids=["crash-unknown-pid", "self-suspicion", "suspect-unknown-pid",
             "n3-t2", "n1"],
    )
    def test_refused_before_the_run(self, kwargs, error, match):
        start = time.monotonic()
        with pytest.raises(error, match=match):
            run_cluster(duration=2.0, **kwargs)
        assert time.monotonic() - start < 1.0

    def test_protocol_error_in_a_delivery_fails_the_run(self, monkeypatch):
        def refuse(self, src, payload, msg):
            raise ProtocolError(f"process {self.pid} refuses {payload!r}")

        monkeypatch.setattr(SfsProcess, "on_protocol_message", refuse)
        start = time.monotonic()
        with pytest.raises(ProtocolError, match="refuses"):
            run_cluster(
                n=3, duration=2.0, suspect_at=[(0.05, 0, 1)], phi_threshold=None
            )
        assert time.monotonic() - start < 1.0


# One genuine crash (4), detected through 0's suspicion; 1 sends 0 an app
# message the moment 0's round opens. Every hop takes one delay unit, so
# the message reaches 0 a hop before the quorum of echoes does: 0 must
# defer it and record its recv only after failed_0(4) (sFS2d).
N, T = 5, 2
CRASH_AT, SUSPECT_AT = 5.0, 10.0
TIME_SCALE = 0.01  # seconds per unit on the host


def _scripted(world, unit):
    world.inject_crash(4, CRASH_AT * unit)
    world.inject_suspicion(0, 4, SUSPECT_AT * unit)
    world.scheduler.schedule_at(
        SUSPECT_AT * unit, lambda: world.process(1).send_app(0, "hello")
    )
    return world.attach_monitor()


def _on_simulator(cls, failure_model):
    world = World(
        [cls(t=T) for _ in range(N)], ConstantDelay(1.0),
        failure_model=failure_model,
    )
    monitors = _scripted(world, 1.0)
    world.run_to_quiescence()
    return world, monitors


def _on_host(cls, failure_model):
    async def scenario():
        world = AsyncioWorld(
            [cls(t=T) for _ in range(N)], ConstantDelay(1.0),
            time_scale=TIME_SCALE, failure_model=failure_model,
        )
        monitors = _scripted(world, TIME_SCALE)
        await world.run_for(0.4)
        return world, monitors

    return asyncio.run(scenario())


@pytest.mark.parametrize(
    "cls, failure_model",
    [
        (SfsProcess, "fail-stop"),
        (TransitiveSfsProcess, "fail-stop"),
        (make_recovering(SfsProcess), "crash-recovery"),
    ],
    ids=["sfs", "transitive", "recovering-sfs"],
)
@pytest.mark.parametrize("host", [_on_simulator, _on_host], ids=["sim", "asyncio"])
def test_same_objects_on_both_clocks(cls, failure_model, host):
    world, monitors = host(cls, failure_model)
    history = world.history()
    assert [p.crashed for p in world.processes] == [False] * 4 + [True]
    assert all(p.detected == {4} for p in world.processes[:4])

    report = analyze(history, world.trace.quorum_records, t=T, pending_ok=True)
    assert report.is_simulated_fail_stop
    assert report.indistinguishable_from_fail_stop

    assert monitors.events_seen == len(world.trace)
    assert monitors.violation_log == []

    # sFS2d: the app message was held back while 0's round was open and
    # consumed as the round closed, right after failed_0(4).
    events = list(history)
    failed = events.index(FailedEvent(0, 4))
    recvs = [i for i, e in enumerate(events) if isinstance(e, RecvEvent)]
    assert recvs == [failed + 1]
    assert events[failed + 1].proc == 0
