"""Quorum policies for one-round detection (Section 4's two variants).

The paper discusses two ways to guarantee the Witness Property:

* :class:`FixedQuorum` — wait for a fixed number of confirmations, which
  must exceed ``n(t-1)/t`` (Theorem 7) and requires ``n > t**2``
  (Corollary 8). Fast when ``n`` is large and ``t`` small.
* :class:`WaitForAll` — wait for every process not currently suspected of
  failure; only requires ``t < n`` but each detection waits for up to
  ``n - t`` confirmations, "which in practice could take a long time".

A policy answers one question: given who has confirmed and who is
suspected, is the quorum satisfied? Benchmarks also instantiate
:class:`FixedQuorum` *below* the legal minimum (``enforce_bounds=False``
at the protocol level) to demonstrate the bound empirically.
"""

from __future__ import annotations

from collections.abc import Set as AbstractSet
from dataclasses import dataclass

from repro.core.bounds import min_quorum_size


class QuorumPolicy:
    """Decides when a detector has heard enough to execute ``failed``."""

    def satisfied(
        self,
        n: int,
        confirmations: AbstractSet[int],
        suspected: AbstractSet[int],
    ) -> bool:
        """Whether the quorum for one detection is complete.

        Args:
            n: system size.
            confirmations: processes whose confirmation the detector has
                (always contains the detector itself).
            suspected: processes the detector currently believes faulty
                (the target itself plus any concurrent suspicions).

        Both may be the caller's live sets (a quorum check runs on every
        delivered confirmation): read them, never keep or mutate them.
        """
        raise NotImplementedError

    def describe(self, n: int) -> str:
        """Human-readable summary for reports."""
        raise NotImplementedError


@dataclass(frozen=True)
class FixedQuorum(QuorumPolicy):
    """Wait for a fixed count of confirmations (Theorem 7 sizing).

    ``size=None`` means "the minimum legal size for (n, t)", resolved per
    world because ``n`` is unknown at construction time.
    """

    t: int
    size: int | None = None

    def resolved_size(self, n: int) -> int:
        """The concrete threshold for a system of ``n`` processes."""
        if self.size is not None:
            return self.size
        return min_quorum_size(n, self.t)

    def satisfied(
        self,
        n: int,
        confirmations: AbstractSet[int],
        suspected: AbstractSet[int],
    ) -> bool:
        del suspected
        return len(confirmations) >= self.resolved_size(n)

    def describe(self, n: int) -> str:
        return f"fixed quorum of {self.resolved_size(n)} (t={self.t}, n={n})"


@dataclass(frozen=True)
class WaitForAll(QuorumPolicy):
    """Wait for every process not suspected to have failed."""

    def satisfied(
        self,
        n: int,
        confirmations: AbstractSet[int],
        suspected: AbstractSet[int],
    ) -> bool:
        required = frozenset(range(n)) - suspected
        return required <= confirmations

    def describe(self, n: int) -> str:
        return f"wait-for-all-unsuspected (n={n})"
