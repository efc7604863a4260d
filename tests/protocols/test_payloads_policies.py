"""Unit tests for protocol payloads and quorum policies."""

import pytest

from repro.core.bounds import min_quorum_size
from repro.protocols import (
    Ack,
    FixedQuorum,
    GenericOneRoundProcess,
    SfsProcess,
    Susp,
    TransitiveSfsProcess,
    WaitForAll,
    is_protocol_payload,
)
from repro.sim import build_world


class TestPayloads:
    def test_susp_exposes_target(self):
        assert Susp(3).suspicion_target == 3

    def test_ack_exposes_target(self):
        assert Ack(3).suspicion_target == 3

    def test_protocol_payload_classifier(self):
        assert is_protocol_payload(Susp(0))
        assert is_protocol_payload(Ack(0))
        assert not is_protocol_payload("app data")
        assert not is_protocol_payload(None)

    def test_hashable(self):
        assert len({Susp(1), Susp(1), Susp(2), Ack(1)}) == 3


class TestFixedQuorum:
    def test_resolves_minimum_when_unsized(self):
        policy = FixedQuorum(t=2)
        assert policy.resolved_size(9) == min_quorum_size(9, 2)

    def test_explicit_size_wins(self):
        assert FixedQuorum(t=2, size=3).resolved_size(9) == 3

    def test_satisfied_by_count(self):
        policy = FixedQuorum(t=2, size=3)
        assert not policy.satisfied(9, frozenset({0, 1}), frozenset())
        assert policy.satisfied(9, frozenset({0, 1, 2}), frozenset())

    def test_suspected_irrelevant(self):
        policy = FixedQuorum(t=2, size=2)
        assert policy.satisfied(9, frozenset({0, 1}), frozenset({5, 6, 7}))

    def test_describe(self):
        assert "fixed quorum" in FixedQuorum(t=2).describe(9)


class TestWaitForAll:
    def test_requires_every_unsuspected(self):
        policy = WaitForAll()
        everyone = frozenset(range(5))
        assert policy.satisfied(5, everyone, frozenset())
        assert not policy.satisfied(5, everyone - {3}, frozenset())

    def test_suspected_excused(self):
        policy = WaitForAll()
        assert policy.satisfied(5, frozenset({0, 1, 2, 4}), frozenset({3}))

    def test_describe(self):
        assert "wait-for-all" in WaitForAll().describe(5)


class TestRecordedQuorums:
    """The quorum check reads a process's live confirmation set; what
    ``execute_failed`` records must be a frozen copy of it as it stood
    at the detection, whoever confirms afterwards."""

    FACTORIES = {
        "sfs-fixed": lambda: SfsProcess(t=2),
        "sfs-all": lambda: SfsProcess(t=2, policy=WaitForAll()),
        "transitive-fixed": lambda: TransitiveSfsProcess(t=2),
        "transitive-all": lambda: TransitiveSfsProcess(
            t=2, policy=WaitForAll()
        ),
        "generic": lambda: GenericOneRoundProcess(quorum_size=4),
    }
    # ``detector target : members`` in detection order, as the commit
    # before the live-set change recorded them (n=7, seed 11).
    RECORDED = {
        "sfs-fixed": "06:0245 46:0124 15:0134 36:0124 16:0134 45:0124 "
                     "26:0134 25:0134 35:0134 05:0134",
        "sfs-all": "46:01234 06:012345 36:012345 45:01234 16:01234 "
                   "26:012345 25:01234 15:01234 05:01234 35:01234",
        "transitive-fixed": "06:0245 46:0124 15:0134 36:0124 16:0134 "
                            "45:0124 26:0134 25:0134 35:0134 05:0134",
        "transitive-all": "46:01234 06:012345 36:012345 45:01234 16:01234 "
                          "26:012345 25:01234 15:01234 05:01234 35:01234",
        "generic": "06:0145 15:1246",
    }

    @pytest.mark.parametrize("name", list(FACTORIES))
    def test_frozen_at_detection_time(self, name):
        world = build_world(7, self.FACTORIES[name], seed=11)
        world.inject_suspicion(0, 6, at=1.0)
        world.inject_suspicion(1, 5, at=1.5)
        world.run_to_quiescence()
        records = world.trace.quorum_records
        outgrown = 0
        for record in records:
            assert type(record.members) is frozenset
            detector = world.process(record.detector)
            live = (
                detector.acks_for(record.target) if name == "generic"
                else detector.confirmations_for(record.target)
            )
            assert record.members <= live
            outgrown += record.members < live
        assert outgrown  # confirmations did keep arriving after a detection
        assert " ".join(
            f"{r.detector}{r.target}:{''.join(map(str, sorted(r.members)))}"
            for r in records
        ) == self.RECORDED[name]
