"""The *failed-before* relation (Definition 3) and its acyclicity (sFS2b).

``i`` failed before ``j`` in run ``r`` iff ``r |= <> FAILED_j(i)`` — that
is, *j* detects *i*'s failure at some point. sFS2b demands this relation be
acyclic; the paper shows (Theorem 2, Condition 2) that acyclicity is
*necessary* for a failure model to be indistinguishable from fail-stop, and
Section 6 shows protocols (last-process-to-fail) that are incorrect exactly
when cycles occur.

The relation is a digraph on at most *n* process ids, held as the pair
list :func:`failed_before_pairs` returns — edge ``(i, j)`` means "i failed
before j" — and everything the paper asks of it (acyclicity, transitivity,
maximal elements) is a short walk over a dict of successor sets. The
package therefore needs no graph library: :func:`failed_before_graph` is
the one function that imports networkx, for callers who want the relation
as a :class:`networkx.DiGraph` to draw or query (``pip install
repro[graph]``), and nothing in ``src/`` calls it.

Two evaluation regimes share one transition core:

* **batch** — :func:`find_cycle` folds a finished history's detection pairs
  through a :class:`FailedBeforeTracker`;
* **streaming** — the same tracker rides event appends one detection at a
  time (see :mod:`repro.analysis.monitors`), locking onto the *first* cycle
  the relation acquires, which by construction is the cycle the batch fold
  reports for any extension of the same prefix.

:func:`is_acyclic` deliberately shares nothing with the tracker: it peels
sources (Kahn's topological sort) where the tracker searches depth-first
for a path back, so the property suite's tracker-vs-``is_acyclic`` check
compares two algorithms, and the tests hold both against networkx.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.history import History
from repro.errors import SimulationError

if TYPE_CHECKING:
    import networkx as nx


class FailedBeforeTracker:
    """Incrementally maintained failed-before relation with cycle lock-in.

    Edges arrive one at a time via :meth:`add` as detections are observed;
    the tracker answers "is the relation still acyclic?" after every edge.
    Because edges are never removed, acyclicity is prefix-monotone: the
    first cycle found is *the* verdict for every longer prefix, so the
    tracker freezes it (``cycle``) and skips all further search work.

    Cost model: an edge insertion into a still-acyclic relation runs one
    DFS over the process-level relation — O(V + E) with V, E bounded by
    the number of processes and ordered detection pairs (<= n^2), never by
    the history length. Once a cycle is locked every further call is O(1),
    so monitoring a long run costs O(1) amortized per event.
    """

    __slots__ = ("_succ", "_edges", "_cycle")

    def __init__(self) -> None:
        self._succ: dict[int, list[int]] = {}
        self._edges: set[tuple[int, int]] = set()
        self._cycle: list[tuple[int, int]] | None = None

    @property
    def cycle(self) -> list[tuple[int, int]] | None:
        """The first cycle the relation acquired (edge list), or None."""
        return None if self._cycle is None else list(self._cycle)

    @property
    def acyclic(self) -> bool:
        """Whether the relation is (still) acyclic."""
        return self._cycle is None

    def add(self, i: int, j: int) -> None:
        """Record *i failed before j* (i.e. ``failed_j(i)`` occurred)."""
        if (i, j) in self._edges:
            return
        self._edges.add((i, j))
        self._succ.setdefault(i, []).append(j)
        if self._cycle is not None:
            return  # verdict already locked; nothing can un-cycle it
        path = self._path(j, i)
        if path is not None:
            self._cycle = [(i, j)] + path

    def _path(self, start: int, goal: int) -> list[tuple[int, int]] | None:
        """A DFS path ``start -> goal`` as an edge list, or None.

        Deterministic: successors are explored in edge-insertion order, so
        batch folds and streaming appends of the same detection sequence
        lock onto the identical cycle.
        """
        if start == goal:
            return []
        stack: list[tuple[int, int]] = [(start, 0)]
        visited = {start}
        while stack:
            node, child_pos = stack[-1]
            children = self._succ.get(node, [])
            if child_pos >= len(children):
                stack.pop()
                continue
            stack[-1] = (node, child_pos + 1)
            child = children[child_pos]
            if child == goal:
                edges = [
                    (stack[k][0], stack[k + 1][0])
                    for k in range(len(stack) - 1)
                ]
                edges.append((node, child))
                return edges
            if child not in visited:
                visited.add(child)
                stack.append((child, 0))
        return None


def failed_before_pairs(history: History) -> list[tuple[int, int]]:
    """All ordered pairs ``(i, j)`` with *i failed before j*, in detection order.

    The pair ``(i, j)`` is produced when ``failed_j(i)`` occurs in the
    history (note the argument swap relative to the event: the *detector*
    is the second element of the relation).
    """
    pairs = sorted(history.failed_index.items(), key=lambda kv: kv[1])
    return [(target, detector) for (detector, target), _ in pairs]


def failed_before_graph(history: History) -> nx.DiGraph:
    """The failed-before relation as a :class:`networkx.DiGraph`.

    Opt-in: the only function of the package that needs networkx (the
    ``graph`` extra); the predicates below work on the pair list.
    """
    try:
        import networkx as nx
    except ImportError:
        raise SimulationError(
            "failed_before_graph needs networkx, which the package does not "
            "require: install the 'graph' extra (pip install repro[graph])"
        ) from None

    graph = nx.DiGraph()
    graph.add_nodes_from(history.processes)
    graph.add_edges_from(failed_before_pairs(history))
    return graph


def _successors(history: History) -> dict[int, set[int]]:
    """``i -> {j : i failed before j}``, keyed by every process with an edge."""
    succ: dict[int, set[int]] = {}
    for i, j in failed_before_pairs(history):
        succ.setdefault(i, set()).add(j)
    return succ


def is_acyclic(history: History) -> bool:
    """sFS2b: true iff the failed-before relation has no cycle.

    Kahn's algorithm: repeatedly remove a process that no remaining
    process failed before; acyclic iff every process gets removed.
    """
    succ = _successors(history)
    indegree = dict.fromkeys(succ, 0)
    for targets in succ.values():
        for j in targets:
            indegree[j] = indegree.get(j, 0) + 1
    sources = [p for p, d in indegree.items() if d == 0]
    removed = 0
    while sources:
        removed += 1
        for j in succ.get(sources.pop(), ()):
            indegree[j] -= 1
            if indegree[j] == 0:
                sources.append(j)
    return removed == len(indegree)


def find_cycle(history: History) -> list[tuple[int, int]] | None:
    """A cycle in the failed-before relation, or ``None`` if acyclic.

    Returns the cycle as a list of edges ``(i, j)`` meaning *i failed
    before j*; useful as a human-readable certificate that a run is
    distinguishable from fail-stop (Theorem 2, Condition 2).

    A thin fold over :class:`FailedBeforeTracker`, so the batch answer is
    — by construction — the cycle a streaming monitor locks onto while
    observing the same detections one event at a time. Cross-validated
    against the independent source-peeling path (:func:`is_acyclic`) in
    the property suite.
    """
    tracker = FailedBeforeTracker()
    for i, j in failed_before_pairs(history):
        tracker.add(i, j)
    return tracker.cycle


def is_transitive(history: History) -> bool:
    """Whether failed-before is transitive (Section 6's stronger model).

    The paper notes that sFS does *not* guarantee transitivity, and that a
    transitive failed-before relation permits a faster last-process-to-fail
    recovery. This predicate lets experiments measure how often transitivity
    happens to hold.
    """
    succ = _successors(history)
    return all(
        succ.get(b, frozenset()) <= after_a
        for after_a in succ.values()
        for b in after_a
    )


def last_failed_candidates(history: History) -> frozenset[int]:
    """Crashed processes that are maximal in the failed-before order.

    These are the possible answers to Skeen's "last process to fail"
    question: crashed processes that nobody is recorded as having
    detected — if any process executed ``failed(p)``, something outlived
    ``p`` and ``p`` was not last.
    """
    detected = {i for i, _ in failed_before_pairs(history)}
    return history.crashed_processes() - detected
