"""Probing Section 6's future work: towards a transitive failed-before.

The paper closes by noting that sFS's failed-before relation is *not*
transitive, that a transitive relation would allow faster
last-process-to-fail recovery, and that "several stronger versions of
fail-stop" are being looked into. This module implements the natural
strengthening a one-round protocol admits — **knowledge piggybacking** —
and exposes what it can and cannot buy:

Every suspicion notice carries the sender's current ``detected`` set. A
receiver adopts those suspicions first, and defers executing ``failed(j)``
until every process that counted confirmations reported as
already-detected has been detected locally (best effort: mutually-blocked
rounds are broken in id order, so progress — and all of sFS — is never
sacrificed for ordering).

What this buys — and the measured finding of experiment E11: *nothing
beyond what FIFO already gives*. Knowledge rides the same FIFO channels
as the confirmations themselves, so whenever a prerequisite is learnable,
the plain protocol's quorums were already ordered; and when knowledge is
unavailable (it died with a crashed process, or the channels carrying it
are the slow ones), the piggyback is equally blind. Detection-order
inversions and crash-truncated logs occur at identical rates under both
protocols. The intransitivity of sFS's failed-before is therefore
information-theoretic, not an ordering artifact — evidence for the
paper's closing position that "stronger versions of fail-stop" (Section
6) require a genuinely different protocol, not a richer message format.

The class remains useful as the executable form of that argument, and its
local ordering guarantee (prerequisites detected first *when known*) is
unit-tested directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.history import History
from repro.core.messages import Message
from repro.errors import ProtocolError
from repro.protocols.sfs import SfsProcess


@dataclass(frozen=True, slots=True)
class KSusp:
    """``"target failed"`` plus the sender's detection knowledge."""

    target: int
    known: frozenset[int]

    @property
    def suspicion_target(self) -> int:
        """The process this message claims has failed."""
        return self.target

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        known = ",".join(map(str, sorted(self.known)))
        return f'"{self.target} failed|k={{{known}}}"'


class TransitiveSfsProcess(SfsProcess):
    """The echo protocol with detection-knowledge piggybacking.

    Inherits all Section 5 behaviour (and therefore all of sFS); adds a
    best-effort ordering constraint: a detection is executed only after
    its *learned prerequisites* — processes reported as already-detected
    by received confirmations — unless that would block progress (mutual
    prerequisite cycles are broken in ascending target order).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # target -> prerequisites learned from received confirmations.
        self._prerequisites: dict[int, set[int]] = {}
        # Rounds whose quorum is satisfied but whose execution may wait
        # on prerequisites.
        self._ready: set[int] = set()
        self._draining = False

    # ------------------------------------------------------------------
    # Protocol overrides
    # ------------------------------------------------------------------

    def suspect(self, target: int) -> None:
        if self.crashed or target in self.detected or target in self.suspected:
            return
        if target == self.pid:
            raise ProtocolError("a process does not suspect itself")
        self.suspected.add(target)
        self._confirmations.setdefault(target, set())
        known = frozenset(self.detected)
        self.broadcast(KSusp(target, known), include_self=True, kind="protocol")

    def on_protocol_message(self, src: int, payload, msg: Message) -> None:
        if not isinstance(payload, KSusp):
            return
        target = payload.target
        if target == self.pid or self.pid in payload.known:
            # Our own name is on the wire (directly or as prior
            # knowledge): we are detected, so we crash (sFS2a).
            self.crash_now()
            return
        prerequisites = self._prerequisites.setdefault(target, set())
        for known_target in payload.known:
            prerequisites.add(known_target)
            if known_target not in self.detected:
                self.suspect(known_target)
        confirmations = self._confirmations.get(target)
        if confirmations is None:
            confirmations = self._confirmations[target] = set()
        confirmations.add(src)
        self.suspect(target)
        self._check_quorum(target)

    def _check_quorum(self, target: int) -> None:
        if self.crashed or target in self.detected:
            return
        if self._quorum_reached(target):
            self._ready.add(target)
        self._drain_ready()

    def on_detect(self, target: int) -> None:
        super().on_detect(target)
        for other in list(self.suspected - self.detected):
            if other not in self._ready:
                self._check_quorum(other)

    # ------------------------------------------------------------------
    # Ordered execution of ready rounds
    # ------------------------------------------------------------------

    def _missing_prerequisites(self, target: int) -> set[int]:
        return self._prerequisites.get(target, set()) - self.detected

    def _drain_ready(self) -> None:
        """Execute ready rounds, prerequisites first, never deadlocking.

        A ready round runs once its prerequisites are detected. If every
        pending round is blocked only by *other ready rounds* (a
        prerequisite cycle — possible when detection knowledge crossed in
        flight), the smallest target id runs first; ordering is
        best-effort, progress is not.
        """
        if self._draining:
            return
        self._draining = True
        try:
            while True:
                pending = [
                    t for t in sorted(self._ready) if t not in self.detected
                ]
                if not pending:
                    break
                runnable = [
                    t for t in pending if not self._missing_prerequisites(t)
                ]
                if runnable:
                    self._execute_ready(runnable[0])
                    continue
                cyclic = [
                    t
                    for t in pending
                    if self._missing_prerequisites(t) <= self._ready
                ]
                if cyclic:
                    self._execute_ready(cyclic[0])
                    continue
                break  # blocked on rounds whose quorum is still open
        finally:
            self._draining = False

    def _execute_ready(self, target: int) -> None:
        self._ready.discard(target)
        confirmations = frozenset(self._confirmations.get(target, ()))
        self.execute_failed(target, confirmations)
        self.flush_deferred()


# ----------------------------------------------------------------------
# Measurement helpers (experiment E11)
# ----------------------------------------------------------------------


def transitivity_gaps(history: History) -> list[tuple[int, int, int]]:
    """All triples ``(i, j, k)`` with i fb j fb k but not i fb k.

    Empty iff the run's failed-before relation is transitive.
    """
    detected_by: dict[int, set[int]] = {}
    for (detector, target) in history.failed_index:
        detected_by.setdefault(detector, set()).add(target)
    gaps = []
    for j, j_detected in detected_by.items():
        for i in j_detected:  # i fb j
            for k, k_detected in detected_by.items():
                if j in k_detected and i not in k_detected and i != k:
                    gaps.append((i, j, k))
    return sorted(gaps)


def transitivity_ratio(history: History) -> float:
    """Fraction of fb-chains ``i fb j fb k`` that close (1.0 = transitive).

    Vacuously 1.0 when there are no two-step chains.
    """
    detected_by: dict[int, set[int]] = {}
    for (detector, target) in history.failed_index:
        detected_by.setdefault(detector, set()).add(target)
    chains = 0
    closed = 0
    for j, j_detected in detected_by.items():
        for i in j_detected:
            for k, k_detected in detected_by.items():
                if j in k_detected and i != k:
                    chains += 1
                    if i in k_detected:
                        closed += 1
    if chains == 0:
        return 1.0
    return closed / chains
