"""Unit tests for repro.core.failed_before (Definition 3, sFS2b)."""

import random

from repro.core.events import crash, failed
from repro.core.failed_before import (
    failed_before_graph,
    failed_before_pairs,
    find_cycle,
    is_acyclic,
    is_transitive,
    last_failed_candidates,
)
from repro.core.history import History


class TestRelation:
    def test_pairs_swap_detector_and_target(self):
        h = History([failed(1, 0)], n=2)
        # failed_1(0): 0 failed before 1.
        assert failed_before_pairs(h) == [(0, 1)]

    def test_pairs_in_detection_order(self):
        h = History([failed(2, 0), failed(0, 1)], n=3)
        assert failed_before_pairs(h) == [(0, 2), (1, 0)]

    def test_graph_has_all_nodes(self):
        h = History([], n=4)
        assert set(failed_before_graph(h).nodes) == {0, 1, 2, 3}

    def test_empty_relation_acyclic(self):
        assert is_acyclic(History([], n=3))


class TestCycles:
    def test_two_cycle(self):
        h = History([failed(0, 1), failed(1, 0)], n=2)
        assert not is_acyclic(h)
        cycle = find_cycle(h)
        assert cycle is not None and len(cycle) == 2

    def test_three_cycle(self):
        h = History([failed(0, 1), failed(1, 2), failed(2, 0)], n=3)
        cycle = find_cycle(h)
        assert cycle is not None and len(cycle) == 3

    def test_chain_is_acyclic(self):
        h = History([failed(1, 0), failed(2, 1)], n=3)
        assert is_acyclic(h)
        assert find_cycle(h) is None

    def test_diamond_is_acyclic(self):
        h = History(
            [failed(1, 0), failed(2, 0), failed(3, 1), failed(3, 2)], n=4
        )
        assert is_acyclic(h)


class TestTransitivity:
    def test_transitive_chain(self):
        # 0 fb 1, 1 fb 2, and 0 fb 2 recorded: transitive.
        h = History([failed(1, 0), failed(2, 1), failed(2, 0)], n=3)
        assert is_transitive(h)

    def test_intransitive_chain(self):
        # 0 fb 1, 1 fb 2 but no 0 fb 2: sFS does not guarantee this edge.
        h = History([failed(1, 0), failed(2, 1)], n=3)
        assert not is_transitive(h)

    def test_empty_is_transitive(self):
        assert is_transitive(History([], n=2))


class TestLastFailedCandidates:
    def test_total_failure_chain(self):
        # 0 detected by 1, 1 detected by 2; all crash. 2 is maximal.
        h = History(
            [failed(1, 0), crash(0), failed(2, 1), crash(1), crash(2)], n=3
        )
        assert last_failed_candidates(h) == frozenset({2})

    def test_unrelated_crashes_all_candidates(self):
        h = History([crash(0), crash(1)], n=2)
        assert last_failed_candidates(h) == frozenset({0, 1})

    def test_non_crashed_not_candidates(self):
        h = History([failed(1, 0), crash(0)], n=2)
        assert last_failed_candidates(h) == frozenset()


def _random_history(seed: int) -> History:
    """A seeded detection/crash soup, not a legal run: self-detections,
    repeated detections, detectors that never crash, crashed processes
    nobody detects and processes that appear in no event at all."""
    rng = random.Random(seed)
    n = rng.choice((1, 2, 3, 5, 8, 13, 32, 64))
    active = rng.sample(range(n), rng.randrange(1, n + 1))
    # The share of edges that respect one fixed order: 1.0 is a DAG by
    # construction (however dense), 0.5 is cyclic as soon as it is dense.
    ordered = rng.choice((1.0, 0.95, 0.5))
    self_detections = rng.random() < 0.15
    events = []
    for _ in range(rng.randrange(rng.choice((n, 2 * n, n * n // 2)) + 2)):
        detector, target = rng.choice(active), rng.choice(active)
        if detector == target and not self_detections:
            continue
        if rng.random() < ordered:
            detector, target = max(detector, target), min(detector, target)
        events.append(failed(detector, target))
        if rng.random() < 0.2:
            events.append(failed(detector, target))  # detected twice
    for pid in range(n):
        if rng.random() < 0.5:
            events.insert(rng.randrange(len(events) + 1), crash(pid))
    return History(events, n=n)


class TestAgainstNetworkx:
    """The stdlib predicates against networkx, the tests' own oracle: the
    graph is built here from the pair list, not by the code under test."""

    SEEDS = range(240)

    def _oracle(self, history):
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(history.processes)
        graph.add_edges_from(failed_before_pairs(history))
        return nx, graph

    def test_acyclicity_agrees_and_matches_find_cycle(self):
        verdicts = set()
        for seed in self.SEEDS:
            history = _random_history(seed)
            nx, graph = self._oracle(history)
            expected = nx.is_directed_acyclic_graph(graph)
            assert is_acyclic(history) == expected, f"seed {seed}"
            assert (find_cycle(history) is None) == expected, f"seed {seed}"
            verdicts.add(expected)
        assert verdicts == {True, False}  # the soup reaches both sides

    def test_transitivity_agrees(self):
        verdicts = set()
        for seed in self.SEEDS:
            history = _random_history(seed)
            nx, graph = self._oracle(history)
            # Transitive iff its own closure. a -> b -> a demands the
            # loop a -> a, which reflexive=False adds exactly then.
            closure = nx.transitive_closure(graph, reflexive=False)
            expected = set(closure.edges) == set(graph.edges)
            assert is_transitive(history) == expected, f"seed {seed}"
            verdicts.add(expected)
        assert verdicts == {True, False}

    def test_last_failed_candidates_agree(self):
        nonempty = 0
        for seed in self.SEEDS:
            history = _random_history(seed)
            _, graph = self._oracle(history)
            expected = {
                p for p in history.crashed_processes()
                if graph.out_degree(p) == 0
            }
            assert last_failed_candidates(history) == expected, f"seed {seed}"
            assert isinstance(last_failed_candidates(history), frozenset)
            nonempty += bool(expected)
        assert nonempty > len(self.SEEDS) // 4


class TestFailedBeforeTracker:
    """The incremental relation the streaming monitors ride."""

    def _tracker(self):
        from repro.core.failed_before import FailedBeforeTracker

        return FailedBeforeTracker()

    def test_stays_acyclic_on_chains(self):
        tracker = self._tracker()
        tracker.add(0, 1)
        tracker.add(1, 2)
        assert tracker.acyclic and tracker.cycle is None

    def test_locks_first_cycle(self):
        tracker = self._tracker()
        tracker.add(0, 1)
        tracker.add(1, 0)
        first = tracker.cycle
        assert first is not None and len(first) == 2
        # Later edges — even ones closing other cycles — never move it.
        tracker.add(2, 3)
        tracker.add(3, 2)
        assert tracker.cycle == first
        assert not tracker.acyclic

    def test_duplicate_edges_ignored(self):
        tracker = self._tracker()
        tracker.add(0, 1)
        tracker.add(0, 1)
        assert tracker.acyclic

    def test_self_loop_is_a_cycle(self):
        tracker = self._tracker()
        tracker.add(2, 2)
        assert tracker.cycle == [(2, 2)]

    def test_matches_networkx_acyclicity_on_random_relations(self):
        import random

        import networkx as nx

        for seed in range(40):
            rng = random.Random(seed)
            tracker = self._tracker()
            graph = nx.DiGraph()
            n = rng.randrange(2, 7)
            graph.add_nodes_from(range(n))
            for _ in range(rng.randrange(1, 12)):
                i, j = rng.randrange(n), rng.randrange(n)
                tracker.add(i, j)
                graph.add_edge(i, j)
                assert tracker.acyclic == nx.is_directed_acyclic_graph(
                    graph
                ), f"disagreement at seed {seed}"
                if not tracker.acyclic:
                    # The locked cycle really is a cycle in the relation.
                    cycle = tracker.cycle
                    assert all(graph.has_edge(a, b) for a, b in cycle)
                    assert all(
                        cycle[k][1] == cycle[(k + 1) % len(cycle)][0]
                        for k in range(len(cycle))
                    )

    def test_find_cycle_is_tracker_fold(self):
        from repro.core.failed_before import find_cycle
        from repro.core.events import failed
        from repro.core.history import History

        h = History([failed(0, 1), failed(1, 2), failed(2, 0)], n=3)
        cycle = find_cycle(h)
        assert cycle is not None
        assert {edge for edge in cycle} == {(1, 0), (0, 2), (2, 1)}
