"""Coverage for small helpers: merge, chains, report edge cases."""

from repro.core.events import internal, recv, send
from repro.core.history import (
    History,
    find_message_chains,
    merge_preserving_process_order,
)
from repro.core.messages import MessageMint
from repro.core.validate import is_valid


class TestMergePreservingProcessOrder:
    def test_round_robin_interleave(self):
        a = History([internal(0, "a1"), internal(0, "a2")], n=2)
        b = History([internal(1, "b1"), internal(1, "b2")], n=2)
        merged = merge_preserving_process_order([a, b])
        assert merged.projection(0) == tuple(a)
        assert merged.projection(1) == tuple(b)
        assert len(merged) == 4

    def test_uneven_lengths(self):
        a = History([internal(0, "a1")], n=2)
        b = History([internal(1, f"b{i}") for i in range(3)], n=2)
        merged = merge_preserving_process_order([a, b])
        assert len(merged) == 4
        assert merged.projection(1) == tuple(b)

    def test_empty_inputs(self):
        assert len(merge_preserving_process_order([])) == 0


class TestMessageChains:
    def test_chain_through_relay(self):
        m0, m1 = MessageMint(0).mint(), MessageMint(1).mint()
        h = History(
            [send(0, 1, m0), recv(1, 0, m0), send(1, 2, m1), recv(2, 1, m1)],
            n=3,
        )
        chains = find_message_chains(h)
        assert any(len(chain) >= 4 for chain in chains)

    def test_unreceived_send_starts_no_chain(self):
        h = History([send(0, 1, MessageMint(0).mint())])
        assert find_message_chains(h) == []

    def test_chains_are_causal(self):
        m0, m1 = MessageMint(0).mint(), MessageMint(1).mint()
        h = History(
            [send(0, 1, m0), recv(1, 0, m0), send(1, 2, m1), recv(2, 1, m1)],
            n=3,
        )
        for chain in find_message_chains(h):
            for a, b in zip(chain, chain[1:]):
                assert h.happens_before(a, b)


class TestSlicedHistoriesStayValid:
    def test_prefixes_of_valid_histories_are_valid(self, simple_exchange):
        for cut in range(len(simple_exchange) + 1):
            assert is_valid(simple_exchange[:cut])
