"""Unit tests for trace recording."""

from collections import Counter

from repro.core.events import CrashEvent, FailedEvent
from repro.core.history import History
from repro.core.validate import is_valid
from repro.protocols import SfsProcess
from repro.sim import build_world
from repro.sim.trace import TraceRecorder


class TestTraceRecorder:
    def test_records_in_order_with_times(self):
        trace = TraceRecorder(2)
        trace.record_crash(1.0, 0)
        trace.record_failed(2.0, 1, 0)
        timed = trace.timed_events()
        assert [t.time for t in timed] == [1.0, 2.0]
        assert isinstance(timed[0].event, CrashEvent)
        assert isinstance(timed[1].event, FailedEvent)

    def test_history_roundtrip(self):
        trace = TraceRecorder(2)
        trace.record_crash(1.0, 0)
        trace.record_failed(2.0, 1, 0)
        h = trace.history()
        assert is_valid(h)
        assert h.n == 2 and len(h) == 2

    def test_internal_auto_sequencing(self):
        trace = TraceRecorder(1)
        a = trace.record_internal(0.0, 0, "step")
        b = trace.record_internal(1.0, 0, "step")
        assert a != b  # distinct seq numbers keep events unique

    def test_quorum_records(self):
        trace = TraceRecorder(3)
        assert trace.quorum_records == ()
        record = trace.record_quorum(0, 1, frozenset({0, 2}))
        assert trace.quorum_records == (record,)
        assert record.size == 2

    def test_quorum_records_view_is_cached_and_stable(self):
        trace = TraceRecorder(3)
        first = trace.record_quorum(0, 1, frozenset({0, 2}))
        view = trace.quorum_records
        assert trace.quorum_records is view  # O(1) repeat access, no copy
        second = trace.record_quorum(2, 1, frozenset({1, 2}))
        assert view == (first,)  # earlier views never mutate
        assert trace.quorum_records == (first, second)

    def test_time_queries(self):
        trace = TraceRecorder(3)
        trace.record_crash(5.0, 2)
        trace.record_failed(7.0, 0, 2)
        trace.record_failed(8.0, 1, 2)
        assert trace.time_of_crash(2) == 5.0
        assert trace.time_of_crash(0) is None
        assert trace.time_of_detection(0, 2) == 7.0
        assert trace.detection_times(2) == {0: 7.0, 1: 8.0}

    def test_len(self):
        trace = TraceRecorder(1)
        assert len(trace) == 0
        trace.record_crash(0.0, 0)
        assert len(trace) == 1


class TestLargeClusterRun:
    """Four overlapping detection rounds on n=64: ~15.7k scheduler
    events, 64-wide vector clocks."""

    def test_quiesces_and_queries_never_rebuild(self, monkeypatch):
        # Linearity as a count: recording the run and querying its
        # snapshot never calls the O(len) index or vector-clock pass.
        rebuilds: Counter = Counter()
        for name in ("_build_indices", "_build_vectors"):
            original = getattr(History, name)

            def spy(self, _name=name, _original=original):
                rebuilds[_name] += 1
                return _original(self)

            monkeypatch.setattr(History, name, spy)
        world = build_world(64, lambda: SfsProcess(t=4), seed=3)
        for i in range(4):
            world.inject_suspicion(i, i + 1, at=1.0 + 0.1 * i)
        world.run_to_quiescence()
        assert world.scheduler.pending_nonperiodic() == 0
        assert world.scheduler.processed > 10_000
        # world.history() is the recorder's cache-seeded snapshot.
        history = world.history()
        assert len(history) == len(world.trace)
        assert history.detected_pairs()
        history.happens_before(0, len(history) - 1)
        assert history.indices_of_process(0)
        assert not rebuilds
        # The from-scratch path is the one that pays, once per cache.
        scratch = History(history.events[:1_500], 64)
        scratch.detected_pairs()
        scratch.happens_before(0, len(scratch) - 1)
        assert rebuilds == {"_build_indices": 1, "_build_vectors": 1}
