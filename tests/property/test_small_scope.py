"""Every valid small history, not a sample (ROADMAP: exhaustive, stage 1).

The hypothesis properties next door draw histories; this module enumerates
them. Starting from ``MachineState.initial(n)`` (Appendix A.1) it follows
every event :func:`~repro.core.semantics.can_occur` admits — the FLP
configuration/step view — depth first up to a fixed length, and on *each*
history reached checks that

* ``validate_history`` finds nothing (validate ≡ semantics);
* a streamed :class:`MonitorSet` (routed dispatch, pushed lock-ins), the
  unrouted polling reference of ``tests/reference.py`` and the batch
  ``check_*`` functions agree on every check result, on the violation
  log's contents and order, and on the bad-pair count;
* those verdicts are the ones the index-scan checkers that predate the
  transition machines give — the three paths above share the machines'
  ``handlers`` tables, so only this catches a clause dropped from one;
* the pushed violation log equals the polled one, and the set counted
  every event — the two invariants ``judge_world`` checks per scenario.

The bounds are constants: the per-length history counts are pinned below,
so a change to the enumeration (or to ``can_occur``) that silently shrinks
the scope fails here, and CI prints them (``-s``).
"""

import pytest

from repro.analysis.monitors import MonitorSet
from repro.core.events import SendEvent, crash, failed, recv, send
from repro.core.failure_models import (
    check_fs1,
    check_fs2,
    check_necessary_conditions,
    check_sfs2a,
    check_sfs2b,
    check_sfs2c,
    check_sfs2d,
)
from repro.core.history import History
from repro.core.indistinguishability import bad_pairs
from repro.core.messages import Message
from repro.core.semantics import MachineState, apply_event, can_occur
from repro.core.validate import validate_history

from tests.property.test_monitor_properties import (
    legacy_condition3,
    legacy_fs1,
    legacy_fs2,
    legacy_sfs2a,
    legacy_sfs2b,
    legacy_sfs2c,
    legacy_sfs2d,
)
from tests.reference import reference_verdicts

#: n -> number of valid histories of each length 0, 1, 2, ...; the length
#: bound for n is ``len(HISTORIES_BY_LENGTH[n]) - 1``.
HISTORIES_BY_LENGTH = {
    2: (1, 8, 54, 320, 1_776, 9_538, 50_112),
    3: (1, 18, 303, 4_836, 74_268),
}

BATCH_CHECKS = (
    check_fs1,
    check_fs2,
    check_sfs2a,
    check_sfs2b,
    check_sfs2c,
    check_sfs2d,
    check_necessary_conditions,
)


def candidate_events(state, sent):
    """The event alphabet at ``state``, before Definition 6 filters it:
    ``crash_i``, ``failed_i(j)`` (``j = i`` included), ``send_i(j, m)``
    with ``i``'s next sequence number, ``recv_i(j, head of C_{j,i})``."""
    procs = range(state.n)
    for i in procs:
        yield crash(i)
        for j in procs:
            yield failed(i, j)
        for j in procs:
            if j != i:
                yield send(i, j, Message(i, sent[i], "m"))
        for j in procs:
            queue = state.channels.get((j, i))
            if queue:
                yield recv(i, j, queue[0])


def histories(n, bound):
    """Every event sequence of at most ``bound`` events that is a run
    prefix per Definition 7, each once, prefixes before extensions."""

    def extend(state, sent, events):
        yield events
        if len(events) == bound:
            return
        for event in candidate_events(state, sent):
            if can_occur(state, event) is not None:
                continue
            after = apply_event(
                MachineState(
                    n,
                    set(state.crashed),
                    set(state.failed),
                    {ch: list(q) for ch, q in state.channels.items()},
                    set(state.sent_uids),
                ),
                event,
            )
            minted = list(sent)
            if event.__class__ is SendEvent:
                minted[event.proc] += 1
            yield from extend(after, minted, events + [event])

    return extend(MachineState.initial(n), [0] * n, [])


def check_history(n, events):
    history = History(events, n)
    assert validate_history(history) == []
    stream = list(zip(history, history.vectors))

    monitors = MonitorSet(n)
    for idx, (event, vector) in enumerate(stream):
        monitors.observe(idx, event, vector)
    results, log, bad_pair_count = reference_verdicts(n, stream)
    assert monitors.check_results() == results
    assert monitors.violation_log == log
    assert monitors.bad_pairs.count == bad_pair_count == len(bad_pairs(history))
    for check in BATCH_CHECKS:
        result = check(history)
        assert results[result.name] == result
    legacy = {
        "FS1": legacy_fs1(history),
        "FS2": legacy_fs2(history),
        "sFS2a": legacy_sfs2a(history),
        "sFS2b": legacy_sfs2b(history),
        "sFS2c": legacy_sfs2c(history),
        "sFS2d": legacy_sfs2d(history),
    }
    legacy["Conditions1-3"] = (
        legacy["sFS2a"] and legacy["sFS2b"] and legacy_condition3(history)
    )
    assert {name: results[name].ok for name in legacy} == legacy

    assert monitors.polled_violation_log() == monitors.violation_log
    assert monitors.events_seen == len(history)


@pytest.mark.parametrize("n", sorted(HISTORIES_BY_LENGTH))
def test_every_valid_history_is_judged_identically_three_ways(n):
    pinned = HISTORIES_BY_LENGTH[n]
    counts = [0] * len(pinned)
    for events in histories(n, bound=len(pinned) - 1):
        counts[len(events)] += 1
        check_history(n, events)
    print(f"\nn={n}: histories of length 0..{len(pinned) - 1}: {counts}")
    assert tuple(counts) == pinned
