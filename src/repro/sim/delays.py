"""Message-delay models for the asynchronous network.

The paper's only assumption about delivery time is that it is *unbounded*;
everything interesting about asynchrony lives in the delay distribution and
the adversary. These models give the workload generators a spectrum from
near-synchronous (constant) to heavy-tailed (Pareto), the latter being what
makes timeout-based "perfect" detection fail observably (experiment E1).

All sampling goes through a caller-supplied :class:`random.Random` so runs
are deterministic per seed. There is one sampler per model — ``sample`` —
under both event cores; this module has no compiled twin. Parameters a
sampler could not draw from (a zero mean, a negative factor) are refused
at construction with a :class:`~repro.errors.SimulationError`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property

from repro.errors import SimulationError


class DelayModel:
    """Samples a one-way message delay for a channel."""

    def sample(self, rng: random.Random, src: int, dst: int) -> float:
        """A non-negative delay for one message from ``src`` to ``dst``."""
        raise NotImplementedError

    def _require(self, ok: bool, field: str, need: str) -> None:
        """Refuse a parameter ``sample`` could not draw from (NaN included)."""
        if not ok:
            raise SimulationError(
                f"{type(self).__name__}.{field} must be {need}, "
                f"got {getattr(self, field)!r}"
            )


@dataclass(frozen=True)
class ConstantDelay(DelayModel):
    """Every message takes exactly ``delay`` time units."""

    delay: float = 1.0

    def __post_init__(self) -> None:
        self._require(self.delay >= 0, "delay", ">= 0")

    def sample(self, rng: random.Random, src: int, dst: int) -> float:
        return self.delay


@dataclass(frozen=True)
class UniformDelay(DelayModel):
    """Delays uniform in ``[low, high]``."""

    low: float = 0.5
    high: float = 1.5

    def __post_init__(self) -> None:
        self._require(self.low >= 0, "low", ">= 0")
        self._require(self.high >= self.low, "high", ">= low")

    def sample(self, rng: random.Random, src: int, dst: int) -> float:
        return rng.uniform(self.low, self.high)


@dataclass(frozen=True)
class ExponentialDelay(DelayModel):
    """Memoryless delays with the given ``mean``."""

    mean: float = 1.0

    def __post_init__(self) -> None:
        self._require(self.mean > 0, "mean", "> 0")

    def sample(self, rng: random.Random, src: int, dst: int) -> float:
        return rng.expovariate(1.0 / self.mean)


@dataclass(frozen=True)
class LogNormalDelay(DelayModel):
    """Log-normal delays — the canonical "mostly fast, sometimes slow".

    ``median`` sets the scale; ``sigma`` the spread of the log. Used by the
    phi-accrual experiments (E10) because the accrual detector's Gaussian
    assumption is a reasonable fit for moderate sigma.
    """

    median: float = 1.0
    sigma: float = 0.5

    def __post_init__(self) -> None:
        self._require(self.median > 0, "median", "> 0")
        self._require(self.sigma >= 0, "sigma", ">= 0")

    def sample(self, rng: random.Random, src: int, dst: int) -> float:
        return rng.lognormvariate(math.log(self.median), self.sigma)


@dataclass(frozen=True)
class ParetoDelay(DelayModel):
    """Heavy-tailed delays: minimum ``scale``, tail index ``alpha``.

    With small ``alpha`` (e.g. 1.5) occasional deliveries take arbitrarily
    long relative to the median — the adversarial regime in which any fixed
    timeout misfires, demonstrating Theorem 1 empirically (experiment E1).
    """

    scale: float = 0.5
    alpha: float = 1.5

    def __post_init__(self) -> None:
        self._require(self.scale >= 0, "scale", ">= 0")
        self._require(self.alpha > 0, "alpha", "> 0")

    def sample(self, rng: random.Random, src: int, dst: int) -> float:
        return self.scale * rng.paretovariate(self.alpha)


@dataclass(frozen=True)
class PerChannelDelay(DelayModel):
    """Wrap another model, slowing selected channels by a factor.

    ``slow_channels`` maps ``(src, dst)`` pairs to multipliers; useful for
    crafting asymmetric topologies (a "far away" process) without a full
    adversary.
    """

    base: DelayModel
    slow_channels: tuple[tuple[tuple[int, int], float], ...] = ()

    def __post_init__(self) -> None:
        self._require(
            all(factor >= 0 for _, factor in self.slow_channels),
            "slow_channels",
            "factors >= 0",
        )

    @cached_property
    def _factors(self) -> dict[tuple[int, int], float]:
        # First occurrence wins, matching the historical linear scan.
        factors: dict[tuple[int, int], float] = {}
        for channel, factor in self.slow_channels:
            factors.setdefault(channel, factor)
        return factors

    def sample(self, rng: random.Random, src: int, dst: int) -> float:
        delay = self.base.sample(rng, src, dst)
        factor = self._factors.get((src, dst))
        return delay if factor is None else delay * factor
