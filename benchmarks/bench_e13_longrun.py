"""E13 — long-run scale: incremental history building, batched delivery.

Not a paper table; this guards the PR that scaled the engine for very long
runs (the regime where asymptotic detector behaviour lives). Three
properties must hold:

1. recording a 100k-event history through
   :class:`~repro.core.history.HistoryBuilder` is **>= 10x faster** than
   the rebuild-per-append baseline. The baseline is timed on a prefix
   (it is quadratic — running it at 100k outlasts any CI budget) and
   extrapolated *linearly*, which understates its true cost, so the
   asserted speedup is a conservative lower bound. Both sides are pure
   Python under either event core: the builder has no compiled twin;
2. a builder snapshot is indistinguishable from a from-scratch
   ``History`` — same events, indices, vector clocks;
3. batched delivery collapses a backlogged channel's heap entries by
   >= 10x while delivering bit-identically to the per-message path.
"""

import random
import time

from repro.core.events import CrashEvent, FailedEvent, RecvEvent, SendEvent
from repro.core.history import History, HistoryBuilder
from repro.core.messages import MessageMint
from repro.sim.delays import ConstantDelay
from repro.sim.network import Network
from repro.sim.scheduler import Scheduler

from conftest import attach_rows

N_EVENTS = 100_000
BASELINE_PREFIX = 1_500
N_PROCS = 8
TARGET_SPEEDUP = 10.0
BACKLOG_MESSAGES = 20_000


def _event_stream(count: int, n_procs: int, seed: int) -> list:
    """A deterministic long-run mix: mostly send/recv, a few crash/failed."""
    rng = random.Random(seed)
    mints = [MessageMint(p) for p in range(n_procs)]
    in_flight: list[tuple[int, int, object]] = []
    alive = list(range(n_procs))
    events: list = []
    while len(events) < count:
        roll = rng.random()
        proc = rng.choice(alive)
        if roll < 0.495 or not in_flight:
            dst = rng.randrange(n_procs)
            msg = mints[proc].mint(len(events))
            in_flight.append((proc, dst, msg))
            events.append(SendEvent(proc, dst, msg))
        elif roll < 0.99:
            src, dst, msg = in_flight.pop(0)
            events.append(RecvEvent(dst, src, msg))
        elif roll < 0.995 and len(alive) > 2:
            victim = alive.pop()
            events.append(CrashEvent(victim))
            events.append(FailedEvent(alive[0], victim))
        else:
            events.append(FailedEvent(proc, rng.randrange(n_procs)))
    return events[:count]


def _record_incremental(events: list) -> History:
    builder = HistoryBuilder(N_PROCS)
    for event in events:
        builder.append(event)
    return builder.snapshot()


def _record_rebuild_per_append(events: list) -> History:
    """The pre-builder pattern: immutable append + index/vector rebuild."""
    history = History((), N_PROCS)
    for event in events:
        history = history.append(event)
        history.send_index  # noqa: B018 - forces the O(len) index rebuild
        history.vectors  # noqa: B018 - forces the O(len * procs) rebuild
    return history


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def test_bench_longrun_history_recording(benchmark):
    """HistoryBuilder at 100k events vs rebuild-per-append, >= 10x."""
    events = _event_stream(N_EVENTS, N_PROCS, seed=13)
    baseline_elapsed, _ = _timed(
        _record_rebuild_per_append, events[:BASELINE_PREFIX]
    )
    incremental_elapsed, history = _timed(_record_incremental, events)
    benchmark.pedantic(
        lambda: _record_incremental(events), rounds=1, iterations=1
    )
    # Linear extrapolation of a quadratic baseline: a deliberate
    # understatement, so the assertion can only be pessimistic.
    baseline_at_scale = baseline_elapsed * (N_EVENTS / BASELINE_PREFIX)
    speedup = baseline_at_scale / incremental_elapsed
    attach_rows(
        benchmark,
        [
            f"events={N_EVENTS} incremental={incremental_elapsed:.3f}s "
            f"baseline({BASELINE_PREFIX} ev)={baseline_elapsed:.3f}s "
            f"extrapolated={baseline_at_scale:.1f}s speedup>={speedup:.0f}x"
        ],
    )
    assert len(history) == N_EVENTS
    assert speedup >= TARGET_SPEEDUP
    # The snapshot's precomputed caches must match a from-scratch History
    # on a prefix small enough to build one (full equivalence is the
    # property suite's job; this is the smoke-level cross-check).
    reference = History(events[:BASELINE_PREFIX], N_PROCS)
    prefix = HistoryBuilder(N_PROCS, events[:BASELINE_PREFIX]).snapshot()
    assert prefix == reference
    assert prefix.vectors == reference.vectors
    assert prefix.send_index == reference.send_index


def test_bench_longrun_queries_stay_cheap(benchmark):
    """Index queries on a snapshot never trigger recomputation."""
    events = _event_stream(N_EVENTS, N_PROCS, seed=29)
    history = _record_incremental(events)

    def query():
        pairs = history.detected_pairs()
        crashed = history.crashed_processes()
        hb = history.happens_before(0, len(history) - 1)
        return pairs, crashed, hb

    elapsed, _ = _timed(query)
    benchmark.pedantic(query, rounds=1, iterations=1)
    # Pre-seeded caches: the whole battery is dict/list lookups.
    assert elapsed < 0.05


def _drain_backlog(batch: bool):
    scheduler = Scheduler()
    delivered = []
    network = Network(
        scheduler,
        4,
        ConstantDelay(1.0),
        random.Random(5),
        deliver=lambda src, dst, msg, kind: delivered.append(msg),
        batch=batch,
    )
    mint = MessageMint(0)
    for i in range(BACKLOG_MESSAGES):
        network.send(0, 1, mint.mint(i))
    scheduler.run()
    return network, delivered


def test_bench_batched_backlog_heap_pressure(benchmark):
    """A backlogged channel: >= 10x fewer heap entries, identical order."""
    network, delivered = benchmark.pedantic(
        lambda: _drain_backlog(batch=True), rounds=1, iterations=1
    )
    per_message_net, per_message = _drain_backlog(batch=False)
    assert delivered == per_message
    assert per_message_net.delivery_entries == BACKLOG_MESSAGES
    assert network.delivery_entries * TARGET_SPEEDUP <= BACKLOG_MESSAGES
    attach_rows(
        benchmark,
        [
            f"messages={BACKLOG_MESSAGES} "
            f"entries batched={network.delivery_entries} "
            f"per-message={per_message_net.delivery_entries}"
        ],
    )
