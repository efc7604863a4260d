"""Micro-benchmarks for the library's hot paths (timing only).

Not tied to a paper table; these keep the engine honest: happens-before
stamping, Theorem 5 witness construction, full protocol rounds, and the
conformance checker, each timed on a realistic mid-size run.
"""

import pytest

from repro.analysis.checker import analyze
from repro.core.indistinguishability import (
    ensure_crashes,
    fail_stop_witness,
    fail_stop_witness_by_commutation,
)
from repro.protocols import SfsProcess
from repro.sim import build_world


def _mid_size_history():
    world = build_world(12, lambda: SfsProcess(t=3), seed=5)
    world.adversary.hold_suspicions_about(7, {7})
    world.inject_suspicion(0, 7, at=1.0)
    world.inject_suspicion(1, 8, at=1.2)
    world.inject_crash(9, at=0.5)
    world.inject_suspicion(2, 9, at=1.4)
    world.scheduler.schedule_at(30.0, world.adversary.heal)
    world.run_to_quiescence()
    return ensure_crashes(world.history()), world


HISTORY, WORLD = _mid_size_history()


def test_bench_protocol_round(benchmark):
    """One full detection round on n=12, t=3 from a cold world."""

    def run():
        world = build_world(12, lambda: SfsProcess(t=3), seed=1)
        world.inject_suspicion(0, 7, at=1.0)
        world.run_to_quiescence()
        return len(world.history())

    events = benchmark(run)
    assert events > 0


def test_bench_happens_before_stamping(benchmark):
    """Vector-clock stamping plus an all-pairs sample of hb queries."""

    def run():
        history = HISTORY.with_events(HISTORY.events)  # fresh caches
        count = 0
        step = max(1, len(history) // 40)
        for a in range(0, len(history), step):
            for b in range(0, len(history), step):
                count += history.happens_before(a, b)
        return count

    assert benchmark(run) >= 0


def test_bench_fail_stop_witness(benchmark):
    """Theorem 5 constraint-graph construction on a bad-pair-rich run."""
    result = benchmark(lambda: fail_stop_witness(HISTORY))
    assert len(result) == len(HISTORY)


def test_bench_witness_by_commutation(benchmark):
    """The appendix's pairwise commutation construction, same input."""
    result = benchmark(lambda: fail_stop_witness_by_commutation(HISTORY))
    assert len(result) == len(HISTORY)


def test_bench_full_conformance_report(benchmark):
    """analyze(): validity + Figure 1 + witness + quorum checks."""
    report = benchmark(
        lambda: analyze(HISTORY, WORLD.trace.quorum_records, t=3)
    )
    assert report.is_simulated_fail_stop


# ----------------------------------------------------------------------
# Per-component timings (PR 8): the three hot-path primitives in
# isolation, so a regression in one shows up directly instead of only
# as a blurred shift in the end-to-end numbers above.
# ----------------------------------------------------------------------


def test_bench_component_heap_push_pop(benchmark):
    """Scheduler entry churn alone: schedule then drain 2000 callbacks.

    Pure push/pop through the handle-less entry path — no network, no
    processes.
    """
    from repro.sim.scheduler import Scheduler

    def run():
        scheduler = Scheduler()
        for i in range(2000):
            scheduler.schedule_callback_at(float(i % 97), _noop_cb)
        return scheduler.run()

    assert benchmark(run) == 2000


def _noop_cb() -> None:
    return None


def test_bench_component_delay_sampling(benchmark):
    """Delay model dispatch alone: 2000 ``sample`` calls.

    The models are pure under either event core, so the ``core`` tag of
    the recorded artifact does not bear on this row.
    """
    import random

    from repro.sim.delays import LogNormalDelay

    model = LogNormalDelay()
    pairs = [(src, dst) for src in range(10) for dst in range(10)] * 20

    def run():
        rng = random.Random(42)
        total = 0.0
        for src, dst in pairs:
            total += model.sample(rng, src, dst)
        return total

    assert benchmark(run) > 0.0


def test_bench_component_history_append(benchmark):
    """HistoryBuilder.append_one alone: a 2000-event send/recv stream.

    There is one builder — the pure class in ``repro.core.history`` —
    under either event core, so the ``core`` tag of the recorded
    artifact does not bear on this row.
    """
    from repro.core.events import recv, send
    from repro.core.history import HistoryBuilder
    from repro.core.messages import Message

    events = []
    for i in range(1000):
        src, dst = i % 12, (i + 1) % 12
        msg = Message(src, i, ("payload", i))
        events.append(send(src, dst, msg))
        events.append(recv(dst, src, msg))

    def run():
        builder = HistoryBuilder(12)
        append_one = builder.append_one
        for event in events:
            append_one(event)
        return len(builder.snapshot())

    assert benchmark(run) == 2000
