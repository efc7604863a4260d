"""The *failed-before* relation (Definition 3) and its acyclicity (sFS2b).

``i`` failed before ``j`` in run ``r`` iff ``r |= <> FAILED_j(i)`` — that
is, *j* detects *i*'s failure at some point. sFS2b demands this relation be
acyclic; the paper shows (Theorem 2, Condition 2) that acyclicity is
*necessary* for a failure model to be indistinguishable from fail-stop, and
Section 6 shows protocols (last-process-to-fail) that are incorrect exactly
when cycles occur.

The relation is represented as a :class:`networkx.DiGraph` whose edge
``(i, j)`` means "i failed before j". networkx is imported inside the two
functions that build or query that graph (:func:`failed_before_graph`,
:func:`is_acyclic`), so only a process that asks for the graph pays for
the import — the tracker, the monitors and every fuzz, journal and
worker path never do.

Two evaluation regimes share one transition core:

* **batch** — :func:`find_cycle` folds a finished history's detection pairs
  through a :class:`FailedBeforeTracker`;
* **streaming** — the same tracker rides event appends one detection at a
  time (see :mod:`repro.analysis.monitors`), locking onto the *first* cycle
  the relation acquires, which by construction is the cycle the batch fold
  reports for any extension of the same prefix.

:func:`is_acyclic` deliberately stays on the independent networkx path so
the property suite can cross-validate the tracker against it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.history import History

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
    """The failed-before relation as a digraph over process ids."""
    import networkx as nx

    graph = nx.DiGraph()
    graph.add_nodes_from(history.processes)
    graph.add_edges_from(failed_before_pairs(history))
    return graph


def is_acyclic(history: History) -> bool:
    """sFS2b: true iff the failed-before relation has no cycle."""
    import networkx as nx

    return nx.is_directed_acyclic_graph(failed_before_graph(history))


def find_cycle(history: History) -> list[tuple[int, int]] | None:
    """A cycle in the failed-before relation, or ``None`` if acyclic.

    Returns the cycle as a list of edges ``(i, j)`` meaning *i failed
    before j*; useful as a human-readable certificate that a run is
    distinguishable from fail-stop (Theorem 2, Condition 2).

    A thin fold over :class:`FailedBeforeTracker`, so the batch answer is
    — by construction — the cycle a streaming monitor locks onto while
    observing the same detections one event at a time. Cross-validated
    against the independent networkx path (:func:`is_acyclic`) in the
    property suite.
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
    graph = failed_before_graph(history)
    for a, b in graph.edges:
        for _, c in graph.out_edges(b):
            if not graph.has_edge(a, c):
                return False
    return True


def last_failed_candidates(history: History) -> frozenset[int]:
    """Crashed processes that are maximal in the failed-before order.

    These are the possible answers to Skeen's "last process to fail"
    question: crashed processes that nobody is recorded as having
    detected — if any process executed ``failed(p)``, something outlived
    ``p`` and ``p`` was not last.
    """
    graph = failed_before_graph(history)
    crashed = history.crashed_processes()
    return frozenset(
        p for p in crashed if not any(True for _ in graph.successors(p))
    )
