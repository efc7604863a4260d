"""Unit tests for the streaming conformance monitors (analyze-on-append)."""

import inspect
import sys

import pytest

from repro.analysis.checker import analyze, report_from_monitors
from repro.analysis.extensions import build_monitor_world, run_e14
from repro.analysis.fuzz import build_scenario_world
from repro.analysis.monitors import (
    DEFAULT_HALT_ON,
    BadPairCounter,
    MonitorSet,
)
from repro.core import events as events_module
from repro.core.events import (
    EVENT_KINDS,
    CrashEvent,
    FailedEvent,
    InternalEvent,
    RecoverEvent,
    RecvEvent,
    SendEvent,
    crash,
    failed,
    internal,
    recover,
    recv,
    send,
)
from repro.core.failure_models import (
    FAILURE_MODEL_NAMES,
    Condition3State,
    FS1State,
    FS2State,
    RecoveryState,
    SFS2aState,
    SFS2bState,
    SFS2cState,
    SFS2dState,
)
from repro.core.history import History, HistoryBuilder
from repro.core.messages import Message, MessageMint
from repro.core.validate import ValidationState
from repro.errors import SimulationError
from repro.exec.job import paused_cyclic_gc
from repro.protocols import SfsProcess, UnilateralProcess
from repro.sim import build_world
from repro.sim.failures import Fault

from tests.analysis.test_fuzz_oracle_seeding import _clean_scenario
from tests.reference import reference_verdicts


def replay(events, n):
    history = History(events, n)
    return MonitorSet(n).replay(history), history


class TestMonitorVerdicts:
    def test_clean_run_all_ok(self):
        monitors, _ = replay([crash(0), failed(1, 0)], n=2)
        assert monitors.ok_so_far
        assert monitors.first_violation is None
        assert all(r.ok for r in monitors.check_results().values())

    def test_fs2_locks_at_detection_event(self):
        monitors, _ = replay([failed(1, 0), crash(0)], n=2)
        assert monitors.fs2.first_violation_index == 0
        assert not monitors.fs2.ok
        assert monitors.bad_pairs.count == 1
        # FS2 is not halt-relevant by default: sFS legitimately trips it.
        assert monitors.ok_so_far
        assert "FS2" not in DEFAULT_HALT_ON

    def test_cycle_locks_sfs2b_and_halts(self):
        monitors, _ = replay(
            [failed(1, 0), failed(0, 1), crash(0), crash(1)], n=2
        )
        assert monitors.sfs2b.first_violation_index == 1
        assert monitors.sfs2b.cycle == [(1, 0), (0, 1)]
        assert monitors.first_violation == (1, "sFS2b")
        assert not monitors.ok_so_far

    def test_self_detection_locks_sfs2c(self):
        monitors, _ = replay([failed(0, 0)], n=1)
        assert monitors.sfs2c.first_violation_index == 0
        # A self-detection is also a failed-before self-loop, so sFS2b
        # (fed first) trips at the same event; both are in the log.
        assert monitors.first_violation == (0, "sFS2b")
        assert (0, "sFS2c") in monitors.violation_log

    def test_sfs2d_locks_at_receive(self):
        m = MessageMint(0).mint("app")
        monitors, _ = replay(
            [failed(0, 2), send(0, 1, m), recv(1, 0, m), crash(2)], n=3
        )
        assert monitors.sfs2d.first_violation_index == 2
        assert monitors.first_violation == (2, "sFS2d")

    def test_invalid_history_locks_validity(self):
        monitors, _ = replay([crash(0), crash(0)], n=1)
        assert monitors.validity.first_violation_index == 1
        assert monitors.first_violation == (1, "valid")

    def test_liveness_monitors_never_lock_midrun(self):
        monitors, _ = replay([crash(0)], n=3)
        assert monitors.fs1.first_violation_index is None
        assert monitors.fs1.ok  # live verdict: not falsifiable yet
        assert monitors.fs1.pending_obligations() == 2
        assert not monitors.fs1.result().ok  # finalized verdict
        assert MonitorSet(3, pending_ok=True).replay(
            History([crash(0)], n=3)
        ).fs1.result().ok

    def test_sfs2a_pending_obligations(self):
        monitors, _ = replay([failed(1, 0)], n=2)
        assert monitors.sfs2a.pending_obligations() == 1
        assert monitors.sfs2a.first_violation_index is None

    def test_halt_on_opt_in_fs2(self):
        events = [failed(1, 0), crash(0)]
        strict = MonitorSet(2, halt_on=("FS2",)).replay(
            History(events, n=2)
        )
        assert strict.first_violation == (0, "FS2")

    def test_summary_renders_lock_indices(self):
        monitors, _ = replay(
            [failed(1, 0), failed(0, 1), crash(0), crash(1)], n=2
        )
        text = monitors.summary()
        assert "sFS2b" in text and "locked at event [1]" in text
        assert "failed-before cycle" in text

    def test_bad_pair_counter_requires_crash(self):
        counter = BadPairCounter()
        for idx, event in enumerate([failed(1, 0), failed(2, 0)]):
            counter.observe(idx, event)
        assert counter.count == 0  # no crash recorded: not (yet) bad pairs
        counter.observe(2, crash(0))
        assert counter.count == 2


class TestReportFromMonitors:
    def test_matches_analyze_on_simulated_run(self):
        world = build_world(6, lambda: SfsProcess(t=2), seed=3)
        monitors = world.attach_monitor()
        world.inject_crash(4, at=0.5)
        world.inject_suspicion(0, 4, at=1.0)
        world.run_to_quiescence()
        history = world.history()
        streamed = report_from_monitors(
            monitors, history, quorums=world.trace.quorum_records, t=2
        )
        batch = analyze(
            history, world.trace.quorum_records, t=2, complete=False
        )
        assert streamed == batch
        assert streamed.is_simulated_fail_stop


class TestWorldAttachMonitor:
    def _cycle_world(self, stop):
        world = build_world(4, lambda: UnilateralProcess(), seed=1)
        monitors = world.attach_monitor(stop_on_violation=stop)
        world.inject_suspicion(0, 1, at=1.0)
        world.inject_suspicion(1, 0, at=1.0)
        world.run_to_quiescence()
        return world, monitors

    def test_streaming_matches_replay_index(self):
        world, monitors = self._cycle_world(stop=False)
        assert monitors.first_violation is not None
        replayed = MonitorSet(world.n).replay(world.history())
        assert replayed.first_violation == monitors.first_violation
        assert world.monitors is monitors

    def test_stop_on_violation_halts_scheduler(self):
        full_world, full_monitors = self._cycle_world(stop=False)
        world, monitors = self._cycle_world(stop=True)
        assert world.scheduler.stop_requested
        assert monitors.first_violation == full_monitors.first_violation
        assert len(world.trace) < len(full_world.trace)
        # The halted prefix is exactly the full run's prefix (stopping
        # never reorders anything).
        full_events = full_world.history().events
        halted_events = world.history().events
        assert full_events[: len(halted_events)] == halted_events


    def _world_with_a_crash_on_record(self):
        world = build_world(5, lambda: SfsProcess(t=2), seed=3)
        world.inject_crash(2, at=1.0)
        world.inject_suspicion(0, 2, at=2.0)
        world.start()
        world.scheduler.run(until=1.5)
        assert world.history().events == (crash(2),)
        return world

    def test_set_behind_the_trace_is_refused(self):
        # A set that never saw crash_2 would call every later failed_i(2)
        # a false detection (FS2, sFS2a, Conditions1-3), silently.
        world = self._world_with_a_crash_on_record()
        with pytest.raises(SimulationError) as refused:
            world.attach_monitor()
        message = str(refused.value)
        assert "seen 0 events" in message and "recorded 1" in message
        assert "replay(world.history())" in message and "\n" not in message
        assert world.monitors is None

    def test_set_brought_up_to_date_attaches_and_judges_like_a_replay(self):
        world = self._world_with_a_crash_on_record()
        monitors = MonitorSet(5).replay(world.history())
        assert world.attach_monitor(monitors) is monitors
        world.run_to_quiescence()
        assert monitors.events_seen == len(world.trace) > 1
        replayed = MonitorSet(5).replay(world.history())
        assert monitors.check_results() == replayed.check_results()
        assert monitors.fs2.result().ok and monitors.sfs2a.result().ok

    def test_used_set_ahead_of_a_fresh_trace_is_refused(self):
        world = build_world(4, lambda: UnilateralProcess(), seed=1)
        monitors = MonitorSet(4)
        monitors.observe(0, crash(0), (1, 0, 0, 0))
        with pytest.raises(SimulationError, match="seen 1 events .* recorded 0"):
            world.attach_monitor(monitors)
        assert world.monitors is None

    @pytest.mark.parametrize(
        "n, model",
        [
            (6, "fail-stop"),
            (3, "fail-stop"),
            (4, "crash-recovery"),
            (4, "byzantine-crash"),
        ],
    )
    def test_set_built_for_another_world_is_refused(self, n, model):
        # MonitorSet(6) on four processes used to owe FS1 detections by
        # processes 4 and 5, which do not exist; a set under another
        # model judges recover events and channels by the wrong rules.
        world = build_world(4, lambda: SfsProcess(t=1), seed=3)
        with pytest.raises(SimulationError) as refused:
            world.attach_monitor(MonitorSet(n, failure_model=model))
        message = str(refused.value)
        assert f"for {n} processes under {model!r}" in message
        assert "this world has 4 under 'fail-stop'" in message
        assert "\n" not in message
        assert world.monitors is None

    @pytest.mark.parametrize("n", [3, 6])
    def test_replay_of_another_sized_history_is_refused(self, n):
        with pytest.raises(
            SimulationError, match=f"for {n} processes but the history has 4"
        ):
            MonitorSet(n).replay(History([crash(2), failed(0, 2)], 4))

    def test_a_world_takes_one_monitor_set(self):
        world, monitors = self._cycle_world(stop=False)
        for second in (monitors, MonitorSet(4).replay(world.history()), None):
            with pytest.raises(SimulationError) as refused:
                world.attach_monitor(second)
            assert "already has a monitor set" in str(refused.value)
            assert "\n" not in str(refused.value)
        # The first set is still the one observing, each event once.
        assert world.monitors is monitors
        assert monitors.events_seen == len(world.trace)


class TestStreamingCostIsFlat:
    """Analyze-on-append costs the same per event at any history length.

    Counts the Python lines run to record and judge a window of events,
    early and late in one long run (a count, so it is deterministic where
    a timing is not). A monitor or recorder that walked the history would
    run ~10x the lines in the later window.
    """

    N = 8

    @classmethod
    def ring(cls, pairs):
        """``pairs`` send/receive pairs around a ring: a valid run with no
        crash whose event mix repeats every ``2 * N`` events."""
        mints = [MessageMint(p) for p in range(cls.N)]
        events = []
        for i in range(pairs):
            src, dst = i % cls.N, (i + 1) % cls.N
            msg = mints[src].mint(i)
            events += [SendEvent(src, dst, msg), RecvEvent(dst, src, msg)]
        return events

    @staticmethod
    def lines_to_record(builder, events):
        lines = 0

        def local(frame, event, arg):
            nonlocal lines
            lines += event == "line"
            return local

        # The collector is paused: a collection inside the window runs
        # whatever gc.callbacks are installed (hypothesis installs one),
        # and their lines would be counted as the monitors'.
        previous = sys.gettrace()
        with paused_cyclic_gc():
            sys.settrace(lambda frame, event, arg: local)
            try:
                for event in events:
                    builder.append(event)
            finally:
                sys.settrace(previous)
        return lines

    def test_lines_per_event_do_not_grow_with_the_history(self):
        events = self.ring(10_200)
        builder = HistoryBuilder(self.N)
        monitors = MonitorSet(self.N)
        builder.attach_observer(monitors.observe)
        for event in events[:2_000]:
            builder.append(event)
        early = self.lines_to_record(builder, events[2_000:2_400])
        for event in events[2_400:20_000]:
            builder.append(event)
        late = self.lines_to_record(builder, events[20_000:20_400])
        assert early > 0
        assert late == early
        assert monitors.events_seen == len(events) and monitors.ok_so_far


class TestRunE14:
    def test_early_stop_agrees_and_saves_events(self):
        (full,) = run_e14(seeds=(5,))
        (early,) = run_e14(seeds=(5,), early_stop=True)
        assert full.violated and early.violated
        assert full.violating_monitor == "sFS2b"
        assert (
            early.violation_event_index == full.violation_event_index
        )
        assert early.events_recorded < full.events_recorded

    def test_suspicion_ring_validated(self):
        with pytest.raises(ValueError):
            run_e14(n=4, suspicion_ring=1, seeds=(0,))


class TestMonitorScenarios:
    def test_demo_scenario_is_conformant(self):
        world = build_monitor_world("demo", seed=3)
        monitors = world.attach_monitor()
        world.run_to_quiescence()
        assert monitors.ok_so_far

    def test_cycle_scenario_violates(self):
        world = build_monitor_world("cycle", seed=1)
        monitors = world.attach_monitor()
        world.run_to_quiescence()
        assert monitors.first_violation is not None

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SimulationError, match="unknown monitored"):
            build_monitor_world("e99")


class TestModelAwareMonitors:
    def test_fail_stop_default_has_no_recovery_monitor(self):
        monitors = MonitorSet(3)
        assert monitors.recovery is None
        assert "recovery" not in monitors.check_results()

    def test_crash_recovery_set_includes_recovery_monitor(self):
        monitors = MonitorSet(3, failure_model="crash-recovery")
        assert monitors.recovery is not None
        assert "recovery" in monitors.check_results()

    def test_recover_event_invalid_under_fail_stop_validity(self):
        events = [crash(0), recover(0, 1)]
        monitors = MonitorSet(2).replay(History(events, 2))
        assert not monitors.validity.ok

    def test_recover_event_accepted_under_crash_recovery(self):
        events = [crash(0), recover(0, 1)]
        monitors = MonitorSet(2, failure_model="crash-recovery").replay(
            History(events, 2)
        )
        assert monitors.validity.ok
        assert monitors.check_results()["recovery"].ok

    def test_recovery_monitor_flags_recover_without_crash(self):
        monitors = MonitorSet(2, failure_model="crash-recovery").replay(
            History([recover(0, 1)], 2)
        )
        assert not monitors.check_results()["recovery"].ok

    def test_default_halt_on_lists_recovery_but_tolerates_fail_stop(self):
        assert "recovery" in DEFAULT_HALT_ON
        # A fail-stop MonitorSet has no "recovery" monitor; the halt set
        # entry must be ignored, not crash or mis-halt.
        monitors = MonitorSet(2, halt_on=DEFAULT_HALT_ON).replay(
            History([crash(0), failed(1, 0)], 2)
        )
        assert monitors.ok_so_far

    @pytest.mark.parametrize("model", FAILURE_MODEL_NAMES)
    def test_recovery_is_a_halt_name_under_every_model(self, model):
        monitors = MonitorSet(2, halt_on=("recovery",), failure_model=model)
        monitors.observe(0, recover(0, 1), (1, 0))
        # Only a set that has the monitor can trip it.
        assert monitors.ok_so_far == (monitors.recovery is None)

    @pytest.mark.parametrize("typo", ["sfs2b", "FS1", "sFS2a", "bad-pairs"])
    def test_halt_on_name_of_no_safety_monitor_is_refused(self, typo):
        # "sfs2b" used to build an empty halt set: stop_on_violation then
        # never halted and ok_so_far was always true. A liveness monitor
        # never locks, so naming one is the same trap.
        with pytest.raises(SimulationError) as refused:
            MonitorSet(2, halt_on=("valid", typo))
        message = str(refused.value)
        assert typo in message and "\n" not in message
        for name in ("valid", "FS2", "sFS2b", "sFS2c", "sFS2d",
                     "Conditions1-3", "recovery"):
            assert name in message

    def test_byzantine_model_skips_recovery_monitor(self):
        monitors = MonitorSet(3, failure_model="byzantine-crash")
        assert monitors.recovery is None


# ----------------------------------------------------------------------
# The dispatch, held to the paper
# ----------------------------------------------------------------------

ALL_KINDS = {
    SendEvent, RecvEvent, CrashEvent, RecoverEvent, FailedEvent,
    InternalEvent,
}

#: Which event kinds each machine consumes, with the clause that says so.
#: This is the paper's table, not the code's: a machine whose ``handlers``
#: drifts from it has stopped checking what the paper states.
KINDS_BY_MACHINE = {
    # Definitions 1, 6, 7: no event of a crashed process, of any kind;
    # sends and receives match per FIFO channel; crash_i and failed_i(j)
    # flip once (recover: the crash-recovery extension of Definition 1).
    ValidationState: ALL_KINDS,
    # FS1: crash_i leads to failed_j(i) at every surviving j (Section
    # 3.1); a recover voids the obligation (crash-recovery extension).
    FS1State: {CrashEvent, FailedEvent, RecoverEvent},
    # FS2: failed_j(i) only after crash_i (Section 3.1).
    FS2State: {CrashEvent, FailedEvent},
    # sFS2a: failed_i(j) implies crash_j eventually (Figure 1).
    SFS2aState: {CrashEvent, FailedEvent},
    # sFS2b: failed-before, a relation on detections alone, is acyclic.
    SFS2bState: {FailedEvent},
    # sFS2c: no failed_i(i).
    SFS2cState: {FailedEvent},
    # sFS2d: send_i(k, m) after failed_i(j) implies failed_k(j) before
    # recv_k(i, m).
    SFS2dState: {SendEvent, RecvEvent, FailedEvent},
    # Condition 3 (Section 3.2): no event of j, of any kind, causally
    # follows failed_i(j).
    Condition3State: ALL_KINDS,
    # Recovery discipline: a recover follows a crash, incarnations count.
    RecoveryState: {CrashEvent, RecoverEvent},
    # Definition 8: a bad pair is failed_j(i) before crash_i.
    BadPairCounter: {CrashEvent, FailedEvent},
}


def machines_of(monitors: MonitorSet) -> list:
    """Every machine a set dispatches to, each once."""
    return monitors._machines


def stamp(events, width):
    """Vector timestamps for any event sequence with pids below ``width``.

    ``HistoryBuilder`` refuses a pid outside ``0..n-1``, which is one of
    the malformations the monitors must judge, so malformed streams are
    stamped here: a receive merges the first send of its uid, if any.
    """
    clocks = [[0] * width for _ in range(width)]
    sent: dict = {}
    vectors = []
    for event in events:
        row = clocks[event.proc]
        if event.__class__ is RecvEvent and event.msg.uid in sent:
            row[:] = map(max, row, sent[event.msg.uid])
        row[event.proc] += 1
        vector = tuple(row)
        if event.__class__ is SendEvent:
            sent.setdefault(event.msg.uid, vector)
        vectors.append(vector)
    return vectors


def assert_agrees_with_reference(
    n, stream, failure_model="fail-stop", halt_on=DEFAULT_HALT_ON
):
    """Feed one stream to a MonitorSet and to the reference; compare all."""
    stream = list(stream)
    monitors = MonitorSet(n, halt_on=halt_on, failure_model=failure_model)
    for idx, (event, vector) in enumerate(stream):
        monitors.observe(idx, event, vector)
    results, log, bad_pair_count = reference_verdicts(
        n, stream, failure_model, halt_on
    )
    assert monitors.violation_log == log
    assert monitors.check_results() == results
    assert monitors.bad_pairs.count == bad_pair_count
    return monitors


M0, M1, M2 = (Message(0, seq, "x") for seq in range(3))

#: name -> (n, events, failure model): histories no legal run produces.
MALFORMED = {
    "send after crash": (2, [crash(0), send(0, 1, M0)], "fail-stop"),
    "internal after crash": (2, [crash(0), internal(0, "x")], "fail-stop"),
    "detection by the crashed": (
        3, [crash(0), failed(0, 1), crash(1)], "fail-stop"),
    "duplicate crash": (2, [crash(0), crash(0)], "fail-stop"),
    "duplicate detection": (
        2, [failed(1, 0), failed(1, 0), crash(0)], "fail-stop"),
    "duplicate uid sent": (
        3, [send(0, 1, M0), send(0, 2, M0)], "fail-stop"),
    "duplicate uid received": (
        2, [send(0, 1, M0), recv(1, 0, M0), recv(1, 0, M0)], "fail-stop"),
    "receive without a send": (2, [recv(1, 0, M0)], "fail-stop"),
    "FIFO overtaking": (
        2,
        [send(0, 1, M0), send(0, 1, M1), recv(1, 0, M1), recv(1, 0, M0)],
        "fail-stop",
    ),
    "pid out of range": (
        2, [send(3, 0, M0), crash(3), internal(2, "x")], "fail-stop"),
    "dst out of range": (2, [send(0, 3, M0)], "fail-stop"),
    "src out of range": (2, [recv(1, 3, M0)], "fail-stop"),
    "target out of range": (2, [failed(0, 3), failed(1, 0)], "fail-stop"),
    "detector out of range": (
        2, [failed(3, 0), internal(0, "x"), crash(0)], "fail-stop"),
    "recover under fail-stop": (2, [crash(0), recover(0, 1)], "fail-stop"),
    "recover under byzantine-crash": (
        2, [crash(0), recover(0, 1), send(0, 1, M0)], "byzantine-crash"),
    "recover without a crash": (2, [recover(0, 1)], "crash-recovery"),
    "incarnation skipped": (
        2, [crash(0), recover(0, 2), crash(0), recover(0, 2)],
        "crash-recovery",
    ),
    "lossy FIFO under crash-recovery": (
        2,
        [send(0, 1, M0), send(0, 1, M1), recv(1, 0, M1), recv(1, 0, M0)],
        "crash-recovery",
    ),
    "3-cycle": (
        3, [failed(1, 0), failed(2, 1), failed(0, 2)], "fail-stop"),
    "Condition 3 before the cycle": (
        2,
        [failed(1, 0), send(1, 0, M0), recv(0, 1, M0), failed(0, 1)],
        "fail-stop",
    ),
    "self-detection": (1, [failed(0, 0)], "fail-stop"),
    "sFS2d then a late detection": (
        3,
        [failed(0, 2), send(0, 1, M0), recv(1, 0, M0), failed(1, 2)],
        "fail-stop",
    ),
}


class TestDispatchMatchesThePaper:
    @pytest.mark.parametrize(
        "machine", KINDS_BY_MACHINE, ids=lambda cls: cls.__name__
    )
    def test_machine_consumes_the_kinds_its_clause_names(self, machine):
        assert set(machine.handlers) == KINDS_BY_MACHINE[machine]

    @pytest.mark.parametrize("model", FAILURE_MODEL_NAMES)
    def test_every_machine_of_a_set_is_in_the_table(self, model):
        machines = machines_of(MonitorSet(3, failure_model=model))
        assert len(set(map(id, machines))) == len(machines)
        assert {type(machine) for machine in machines} <= set(
            KINDS_BY_MACHINE
        )
        assert (RecoveryState in map(type, machines)) == (
            model == "crash-recovery"
        )

    def test_an_event_reaches_only_the_machines_that_consume_it(self):
        reached = {
            kind: sum(
                kind in KINDS_BY_MACHINE[type(machine)]
                for machine in machines_of(MonitorSet(3))
            )
            for kind in EVENT_KINDS
        }
        assert reached == {
            SendEvent: 3, RecvEvent: 3, InternalEvent: 2, RecoverEvent: 3,
            CrashEvent: 6, FailedEvent: 9,
        }


class TestClosedAlphabet:
    def test_event_kinds_are_the_classes_of_the_events_module(self):
        defined = {
            cls
            for _, cls in inspect.getmembers(events_module, inspect.isclass)
            if cls.__module__ == events_module.__name__
        }
        assert defined == set(EVENT_KINDS) == ALL_KINDS

    def test_no_event_class_has_a_subclass(self):
        # Dispatch is on class identity; a subclass would be dropped by
        # every table it is not listed in.
        for kind in EVENT_KINDS:
            assert kind.__subclasses__() == []

    @pytest.mark.parametrize(
        "observer",
        [
            MonitorSet(2),
            *machines_of(MonitorSet(2, failure_model="crash-recovery")),
        ],
        ids=lambda observer: type(observer).__name__,
    )
    def test_an_object_of_another_class_is_an_error_not_skipped(
        self, observer
    ):
        class Impostor:
            proc = 0

            def __repr__(self):
                return "impostor_0"

        with pytest.raises(SimulationError) as refused:
            observer.observe(0, Impostor(), (1, 0))
        message = str(refused.value)
        assert "impostor_0" in message and "Impostor" in message
        assert "\n" not in message


class TestAgainstReferenceOnMalformedHistories:
    @pytest.mark.parametrize("name", MALFORMED)
    def test_named_malformation(self, name):
        n, events, model = MALFORMED[name]
        stream = list(zip(events, stamp(events, width=4)))
        for halt_on in (DEFAULT_HALT_ON, ("FS2", "Conditions1-3")):
            assert_agrees_with_reference(n, stream, model, halt_on)

    def test_the_malformations_are_malformed_or_violating(self):
        # The table above earns its name: every entry locks something.
        for name, (n, events, model) in MALFORMED.items():
            if name == "lossy FIFO under crash-recovery":
                continue  # legal there; the same events are not above
            monitors = MonitorSet(n, failure_model=model)
            for idx, vector in enumerate(stamp(events, width=4)):
                monitors.observe(idx, events[idx], vector)
            assert not monitors.ok_so_far, name

    def test_k_cycle_trips_both_owners_of_the_shared_machine(self):
        n, events, model = MALFORMED["3-cycle"]
        monitors = assert_agrees_with_reference(
            n, zip(events, stamp(events, width=4)), model
        )
        assert monitors.violation_log == [
            (2, "sFS2b"), (2, "Conditions1-3"),
        ]

    def test_conditions_locks_at_the_earlier_of_its_two_machines(self):
        n, events, model = MALFORMED["Condition 3 before the cycle"]
        monitors = assert_agrees_with_reference(
            n, zip(events, stamp(events, width=4)), model
        )
        # The receive is an event of 0 after failed_1(0) (Condition 3),
        # and a message sent after a detection its receiver lacks (sFS2d).
        assert monitors.violation_log == [
            (2, "sFS2d"), (2, "Conditions1-3"), (3, "sFS2b"),
        ]
        assert monitors.conditions.first_violation_index == 2

    def test_same_event_trips_are_in_monitors_order(self):
        # A self-detection by a crashed process: an event after the crash,
        # a failed-before self-loop, and sFS2c — but not FS2, the crash
        # came first.
        events = [crash(0), failed(0, 0)]
        monitors = assert_agrees_with_reference(
            1, zip(events, stamp(events, width=4)),
            halt_on=DEFAULT_HALT_ON + ("FS2",),
        )
        assert monitors.violation_log == [
            (1, "valid"), (1, "sFS2b"), (1, "sFS2c"), (1, "Conditions1-3"),
        ]

    @pytest.mark.parametrize("model", FAILURE_MODEL_NAMES)
    @pytest.mark.parametrize(
        "fault",
        [Fault("forge_failed", 2.0, 3, 3), Fault("phantom_recv", 2.0, 2, 4)],
        ids=lambda fault: fault.kind,
    )
    def test_sabotaged_world(self, model, fault):
        # The fuzzer's own seeded violations, judged three ways: the
        # world's streaming set, a replay, and the reference loop.
        scenario = _clean_scenario(model, faults=(fault,))
        world = build_scenario_world(scenario)
        world.run_to_quiescence()
        history = world.history()
        results, log, bad_pair_count = reference_verdicts(
            scenario.n, zip(history, history.vectors), model,
            pending_ok=True,
        )
        replayed = MonitorSet(
            scenario.n, pending_ok=True, failure_model=model
        ).replay(history)
        assert log
        for monitors in (world.monitors, replayed):
            assert monitors.violation_log == log
            assert monitors.check_results() == results
            assert monitors.bad_pairs.count == bad_pair_count
        world.dispose()


class TestPushedHalt:
    def test_stop_on_violation_adds_no_second_observer(self):
        world = build_world(4, lambda: UnilateralProcess(), seed=1)
        monitors = world.attach_monitor(stop_on_violation=True)
        assert monitors.on_violation == world.scheduler.request_stop
        assert not world.scheduler.stop_requested
        vectors = stamp([failed(1, 0), failed(0, 1)], width=4)
        monitors.observe(0, failed(1, 0), vectors[0])
        assert not world.scheduler.stop_requested
        monitors.observe(1, failed(0, 1), vectors[1])
        assert world.scheduler.stop_requested

    def test_resumed_world_halts_again_only_at_a_new_lock_in(self):
        world = build_world(4, lambda: UnilateralProcess(), seed=1)
        monitors = world.attach_monitor(stop_on_violation=True)
        world.inject_suspicion(0, 1, at=1.0)
        world.inject_suspicion(1, 0, at=1.0)
        world.run_to_quiescence()
        assert world.scheduler.stop_requested and len(world.trace) == 2
        halted_log = list(monitors.violation_log)
        # Resuming is the caller's decision: the locked monitors stay
        # locked, and recording further events does not halt again ...
        world.scheduler.clear_stop()
        world.run_to_quiescence()
        assert not world.scheduler.stop_requested
        assert len(world.trace) == 8
        assert monitors.violation_log == halted_log
        # ... until a monitor that had not locked yet does.
        idx = len(world.trace)
        monitors.observe(idx, failed(2, 2), (0, 0, idx, 0))
        assert world.scheduler.stop_requested
        assert monitors.violation_log[-1] == (idx, "sFS2c")

    def test_set_tripped_before_attach_halts_at_its_next_lock_in(self):
        # A set may be attached late only once it has caught up with the
        # trace, so the trip it brings along is one the world recorded.
        world = build_world(4, lambda: UnilateralProcess(), seed=1)
        world.trace.record_recv(0.0, 2, 3, Message(3, 99, "never sent"))
        monitors = MonitorSet(4).replay(world.history())
        assert monitors.violation_log == [(0, "valid")]
        world.attach_monitor(monitors, stop_on_violation=True)
        assert not world.scheduler.stop_requested
        world.inject_suspicion(0, 1, at=1.0)
        world.inject_suspicion(1, 0, at=1.0)
        world.run_to_quiescence()
        assert world.scheduler.stop_requested and len(world.trace) == 3

    def test_lock_in_outside_halt_on_does_not_call_back(self):
        calls = []
        monitors = MonitorSet(2)
        monitors.on_violation = lambda: calls.append(
            len(monitors.violation_log)
        )
        monitors.observe(0, failed(1, 0), (0, 1))  # FS2 locks; not halting
        assert monitors.fs2.first_violation_index == 0
        assert calls == [] and monitors.ok_so_far
        monitors.observe(1, failed(0, 1), (1, 0))
        assert calls == [2]  # sFS2b and Conditions1-3, one call
