"""Property-based equivalence of streaming monitors and batch analysis.

Three families of invariants over random valid histories:

* **stream == batch** — feeding events one at a time through a
  :class:`MonitorSet` riding a ``HistoryBuilder`` observer (incremental
  vector clocks, O(delta) state) produces a ``ConformanceReport`` equal
  to ``analyze()`` on the snapshot of the same events;
* **monitors == legacy** — the monitor verdicts agree with independent
  re-implementations of the original batch checkers (kept here as the
  oracle: index scans over the finished history, networkx acyclicity),
  so the fold refactor cannot have drifted from the paper's definitions;
* **prefix monotonicity** — where the paper's property is safety, a
  violated verdict never un-violates on any longer prefix, and the
  locked ``first_violation_index`` never moves.

One over simulated runs — scenarios drawn from hypothesis-drawn fuzz
configurations, live detectors included:

* **stream == replay** — the set that rode the world agrees with a fresh
  set replaying the recorded history: the comparison the fuzzer made per
  scenario until PR 24, now made here (and over every small history in
  ``test_small_scope.py``).

And two over random event sequences that are mostly **malformed** (pids,
destinations and targets out of range, events after crashes, duplicate
uids and detections, recovers under any model) — what the generator
above never produces:

* **routed == unrouted** — a :class:`MonitorSet`, which shows each event
  only to the machines that consume its kind and is told of lock-ins by
  push, agrees with the reference loop of
  ``tests/analysis/test_monitors.py`` (every machine, every event, then
  poll) on check results, violation log and bad-pair count;
* **an unlisted kind is a no-op** — observing an event of a kind outside
  a machine's ``handlers`` table changes nothing the machine can report.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import networkx as nx

from repro.analysis.checker import analyze, report_from_monitors
from repro.analysis.fuzz import (
    DELAY_FAMILIES,
    DETECTORS,
    PROTOCOLS,
    FuzzConfig,
    generate_scenario,
)
from repro.analysis.monitors import (
    DEFAULT_HALT_ON,
    BadPairCounter,
    MonitorSet,
)
from repro.core.events import crash, failed, internal, recover, recv, send
from repro.core.failure_models import FAILURE_MODEL_NAMES
from repro.core.history import HistoryBuilder
from repro.core.indistinguishability import bad_pairs, ensure_crashes
from repro.core.messages import Message

from tests.analysis.test_monitors import (
    KINDS_BY_MACHINE,
    assert_agrees_with_reference,
    machines_of,
    stamp,
)
from tests.property.test_history_properties import random_history
from tests.reference import run_and_compare_with_replay


@st.composite
def histories(draw, completed: bool = False):
    seed = draw(st.integers(min_value=0, max_value=20_000))
    n = draw(st.integers(min_value=2, max_value=6))
    steps = draw(st.integers(min_value=5, max_value=80))
    history = random_history(seed, n, steps)
    return ensure_crashes(history) if completed else history


# ----------------------------------------------------------------------
# Legacy batch checkers (the pre-streaming implementations), as oracles
# ----------------------------------------------------------------------


def legacy_fs1(history) -> bool:
    crash_index = history.crash_index
    failed_index = history.failed_index
    for i in crash_index:
        for j in history.processes:
            if j == i or j in crash_index:
                continue
            if (j, i) not in failed_index:
                return False
    return True


def legacy_fs2(history) -> bool:
    crash_index = history.crash_index
    for (_, target), fidx in history.failed_index.items():
        cidx = crash_index.get(target)
        if cidx is None or cidx > fidx:
            return False
    return True


def legacy_sfs2a(history) -> bool:
    crash_index = history.crash_index
    return all(
        target in crash_index for (_, target) in history.failed_index
    )


def legacy_sfs2b(history) -> bool:
    graph = nx.DiGraph()
    graph.add_nodes_from(history.processes)
    for (detector, target), _ in sorted(
        history.failed_index.items(), key=lambda kv: kv[1]
    ):
        graph.add_edge(target, detector)
    return nx.is_directed_acyclic_graph(graph)


def legacy_sfs2c(history) -> bool:
    return all(
        detector != target for (detector, target) in history.failed_index
    )


def legacy_sfs2d(history) -> bool:
    recv_index = history.recv_index
    failed_index = history.failed_index
    detections_by_proc: dict[int, list[tuple[int, int]]] = {}
    for (detector, target), fidx in failed_index.items():
        detections_by_proc.setdefault(detector, []).append((fidx, target))
    for proc in detections_by_proc:
        detections_by_proc[proc].sort()
    for uid, sidx in history.send_index.items():
        send_event = history[sidx]
        i, k = send_event.proc, send_event.dst
        ridx = recv_index.get(uid)
        if ridx is None:
            continue
        for fidx, j in detections_by_proc.get(i, ()):
            if fidx > sidx:
                break
            k_fidx = failed_index.get((k, j))
            if k_fidx is None or k_fidx > ridx:
                return False
    return True


def legacy_condition3(history) -> bool:
    for (_, target), fidx in history.failed_index.items():
        for eidx in history.indices_of_process(target):
            if eidx <= fidx:
                continue
            if history.happens_before(fidx, eidx):
                return False
    return True


# ----------------------------------------------------------------------
# stream == batch
# ----------------------------------------------------------------------


def stream_through_builder(history) -> MonitorSet:
    """Monitors riding HistoryBuilder.append, one event at a time."""
    builder = HistoryBuilder(history.n)
    monitors = MonitorSet(history.n)
    builder.attach_observer(monitors.observe)
    for event in history:
        builder.append(event)
    return monitors


@settings(max_examples=50, deadline=None)
@given(histories(completed=True))
def test_streamed_report_equals_batch_analyze(history):
    monitors = stream_through_builder(history)
    streamed = report_from_monitors(monitors, history)
    batch = analyze(history, complete=False)
    assert streamed == batch


@settings(max_examples=30, deadline=None)
@given(histories(completed=False))
def test_streamed_report_equals_batch_on_raw_prefixes(history):
    # Uncompleted prefixes too: analyze(complete=False) must agree with
    # the streaming path on exactly the recorded events.
    monitors = stream_through_builder(history)
    streamed = report_from_monitors(monitors, history)
    batch = analyze(history, complete=False)
    assert streamed == batch


@settings(max_examples=30, deadline=None)
@given(histories(completed=True))
def test_streamed_pending_ok_report_equals_batch(history):
    monitors = MonitorSet(history.n, pending_ok=True).replay(history)
    streamed = report_from_monitors(monitors, history)
    batch = analyze(history, complete=False, pending_ok=True)
    assert streamed == batch


# ----------------------------------------------------------------------
# stream == replay, on simulated runs
# ----------------------------------------------------------------------


def nonempty_subsets(pool):
    return st.lists(
        st.sampled_from(pool), min_size=1, max_size=len(pool), unique=True
    ).map(tuple)


@st.composite
def fuzz_configs(draw):
    min_n = draw(st.integers(min_value=2, max_value=6))
    return FuzzConfig(
        min_n=min_n,
        max_n=draw(st.integers(min_value=min_n, max_value=8)),
        protocols=draw(nonempty_subsets(PROTOCOLS)),
        delays=draw(nonempty_subsets(DELAY_FAMILIES)),
        detectors=draw(nonempty_subsets(DETECTORS)),
        detector_rate=draw(st.sampled_from((0.0, 0.5, 1.0))),
        adversary_rate=draw(st.sampled_from((0.0, 0.4, 1.0))),
        partition_rate=draw(st.sampled_from((0.0, 0.15, 1.0))),
        detector_horizon=draw(st.sampled_from((5.0, 12.0))),
        max_chatter=draw(st.integers(min_value=0, max_value=12)),
        failure_model=draw(st.sampled_from(FAILURE_MODEL_NAMES)),
    )


@settings(max_examples=40, deadline=None)
@given(
    fuzz_configs(),
    st.integers(min_value=0, max_value=2**16),
    st.integers(min_value=0, max_value=200),
)
def test_streamed_set_agrees_with_replay_of_the_recorded_run(
    config, seed, index
):
    outcome = run_and_compare_with_replay(
        generate_scenario(seed, index, config)
    )
    assert not any("divergence" in finding for finding in outcome.findings)


# ----------------------------------------------------------------------
# monitors == legacy oracles
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(histories(completed=True))
def test_monitor_verdicts_match_legacy_checkers(history):
    monitors = MonitorSet(history.n).replay(history)
    assert monitors.fs1.result().ok == legacy_fs1(history)
    assert monitors.fs2.result().ok == legacy_fs2(history)
    assert monitors.sfs2a.result().ok == legacy_sfs2a(history)
    assert monitors.sfs2b.result().ok == legacy_sfs2b(history)
    assert monitors.sfs2c.result().ok == legacy_sfs2c(history)
    assert monitors.sfs2d.result().ok == legacy_sfs2d(history)
    conditions_ok = (
        legacy_sfs2a(history)
        and legacy_sfs2b(history)
        and legacy_condition3(history)
    )
    assert monitors.conditions.result().ok == conditions_ok
    assert monitors.bad_pairs.count == len(bad_pairs(history))


# ----------------------------------------------------------------------
# Prefix monotonicity of safety verdicts
# ----------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(histories(completed=True))
def test_safety_verdicts_are_prefix_monotone(history):
    builder = HistoryBuilder(history.n)
    monitors = MonitorSet(history.n)
    builder.attach_observer(monitors.observe)
    safety = [
        monitors.validity,
        monitors.fs2,
        monitors.sfs2b,
        monitors.sfs2c,
        monitors.sfs2d,
        monitors.conditions,
    ]
    violated_at: dict[str, int] = {}
    for event in history:
        builder.append(event)
        for monitor in safety:
            locked = monitor.first_violation_index
            if monitor.name in violated_at:
                # A violated safety check never un-violates, and its
                # lock-in index never moves.
                assert locked == violated_at[monitor.name]
                assert not monitor.ok
            elif locked is not None:
                violated_at[monitor.name] = locked
    # The violation log is in event-index order and contains each
    # monitor at most once.
    log_names = [name for _, name in monitors.violation_log]
    assert len(log_names) == len(set(log_names))
    indices = [idx for idx, _ in monitors.violation_log]
    assert indices == sorted(indices)


# ----------------------------------------------------------------------
# Arbitrary (mostly malformed) event sequences
# ----------------------------------------------------------------------

WIDTH = 4
"""Pids are drawn from ``0..WIDTH-1`` and ``n`` from ``1..WIDTH``, so a
stream has out-of-range pids, destinations and targets whenever
``n < WIDTH``."""

pids = st.integers(min_value=0, max_value=WIDTH - 1)
# Few uids, so sends and receives collide: duplicates, receives without a
# send, receives on the wrong channel, FIFO overtaking.
messages = st.builds(Message, pids, st.integers(0, 2), st.just("x"))
any_event = st.one_of(
    st.builds(send, pids, pids, messages),
    st.builds(recv, pids, pids, messages),
    st.builds(crash, pids),
    st.builds(failed, pids, pids),
    st.builds(recover, pids, st.integers(1, 3)),
    st.builds(internal, pids, st.just("step")),
)


@st.composite
def arbitrary_streams(draw):
    n = draw(st.integers(min_value=1, max_value=WIDTH))
    events = draw(st.lists(any_event, min_size=1, max_size=40))
    return n, list(zip(events, stamp(events, WIDTH)))


@settings(max_examples=150, deadline=None)
@given(
    arbitrary_streams(),
    st.sampled_from(FAILURE_MODEL_NAMES),
    st.sampled_from([DEFAULT_HALT_ON, ("FS2",), ("FS2", "Conditions1-3")]),
)
def test_routed_set_agrees_with_unrouted_reference(stream, model, halt_on):
    n, pairs = stream
    assert_agrees_with_reference(n, pairs, model, halt_on)


def reportable(machine):
    """Everything a machine can be asked, as one comparable value."""
    return (
        # The bad-pair tally is read through ``count``, below.
        None if isinstance(machine, BadPairCounter) else machine.finalize(),
        machine.first_violation_index,
        getattr(machine, "pending_obligations", lambda: None)(),
        getattr(machine, "count", None),
        getattr(machine, "cycle", None),
    )


@settings(max_examples=100, deadline=None)
@given(arbitrary_streams(), st.sampled_from(FAILURE_MODEL_NAMES))
def test_event_of_an_unlisted_kind_changes_no_machine(stream, model):
    n, pairs = stream
    # Standalone machines through their own observe(): the claim is about
    # the tables, so the set's routing must not be what upholds it.
    for machine in machines_of(MonitorSet(n, failure_model=model)):
        consumed = KINDS_BY_MACHINE[type(machine)]
        for idx, (event, vector) in enumerate(pairs):
            before = reportable(machine)
            machine.observe(idx, event, vector)
            if type(event) not in consumed:
                assert reportable(machine) == before
