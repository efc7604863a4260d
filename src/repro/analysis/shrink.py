"""Automatic shrinking of fuzz findings to minimal reproducing scenarios.

A raw fuzz finding is a :class:`~repro.analysis.fuzz.Scenario` with a
dozen entangled choices — most of them irrelevant to the bug. This
module minimises a finding the way hypothesis shrinks a failing example:
propose a structurally smaller candidate, re-run it through the *same*
one-shard execution path every backend uses
(:func:`~repro.analysis.fuzz.run_scenario`), and keep the candidate iff
it still reproduces the finding. The loop is greedy over a fixed pass
order with no randomness anywhere, so shrinking is deterministic: the
same scenario shrinks to the same minimal form, every time, on every
machine — the property suite pins that.

"Still reproduces" is judged on **finding kinds**
(:func:`finding_kinds`), not exact finding text: messages embed event
indices and log contents that legitimately change as the scenario
shrinks, but the *kind* of bug — which model property tripped, which
differential layer diverged — must survive. Every kind of the original
finding set must be present in the candidate's (a superset is fine: a
smaller scenario occasionally exposes more, and that is a better
reproducer, not a worse one).

The passes, in order (each restarts the sequence on success):

1. drop fault-plan chunks (ddmin-style: halves, then quarters, ...,
   then single faults);
2. drop application chatter (all, then singles);
3. drop adversary suspicion holds (all, then singles);
4. drop the partition, then the heal;
5. drop the live detector (and with it the time horizon);
6. collapse the delay model to ``("constant", (1.0,))``;
7. halve the time horizon;
8. lower the failure bound ``t``;
9. remove a process entirely (faults, chatter, holds, partition
   remapped; ``t`` and ``quorum_size`` re-clamped).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence

from repro.analysis.fuzz import Scenario, run_scenario
from repro.core.bounds import max_tolerable_t
from repro.errors import SimulationError

#: Attempt budget: each candidate re-run counts once. Shrinking is a
#: debugging aid, not a search — a few hundred runs of an
#: already-smallish scenario keep it interactive.
DEFAULT_MAX_ATTEMPTS = 400


def finding_kinds(findings: Iterable[str]) -> frozenset[str]:
    """Classify finding messages into stable kind labels.

    ``model:<monitor>`` for model-oracle violations;
    ``divergence:events`` / ``divergence:log`` for the two
    differential-oracle invariants. Unrecognised messages map to
    ``other`` rather than being dropped — a finding the classifier does
    not know must still be preserved through shrinking.
    """
    kinds = set()
    for finding in findings:
        if finding.startswith("model violation: "):
            name = finding[len("model violation: "):].split(" ", 1)[0]
            kinds.add(f"model:{name}")
        elif finding.startswith("stream/batch divergence: monitors observed"):
            kinds.add("divergence:events")
        elif finding.startswith("stream/batch divergence: violation logs"):
            kinds.add("divergence:log")
        else:
            kinds.add("other")
    return frozenset(kinds)


def scenario_size(scenario: Scenario) -> int:
    """The shrinker's size metric; candidates must strictly decrease it.

    Processes dominate (removing one simplifies everything downstream),
    then faults, then the adversary schedule, detector, and chatter.
    Integer by construction so comparisons are exact.
    """
    return (
        scenario.n * 8
        + len(scenario.faults) * 4
        + len(scenario.holds) * 2
        + (2 if scenario.partition is not None else 0)
        + (1 if scenario.heal_at is not None else 0)
        + (4 if scenario.detector[0] != "none" else 0)
        + (1 if scenario.horizon is not None else 0)
        + len(scenario.chatter)
        + len(scenario.delay[1])
    )


@dataclass(frozen=True)
class ShrinkResult:
    """What shrinking achieved: the minimal scenario and the path to it.

    ``steps`` is the accepted-pass log (one human-readable line per
    successful shrink); ``attempts`` counts every candidate re-run,
    accepted or not.
    """

    original: Scenario
    minimal: Scenario
    kinds: frozenset[str]
    attempts: int
    steps: tuple[str, ...]

    def summary(self) -> str:
        """A compact human-readable rendering for the CLI."""
        lines = [
            f"shrink: size {scenario_size(self.original)} -> "
            f"{scenario_size(self.minimal)} in {len(self.steps)} step(s), "
            f"{self.attempts} attempt(s)",
            f"kinds preserved: {', '.join(sorted(self.kinds))}",
        ]
        lines.extend(f"  {step}" for step in self.steps)
        lines.append(f"minimal reproducer: {self.minimal!r}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Candidate generation (pure; no randomness anywhere)
# ----------------------------------------------------------------------


def _chunked_drops(items: tuple, make) -> Iterator[Scenario]:
    """ddmin-style deletions: halves, quarters, ..., then singles."""
    size = len(items)
    chunk = size // 2
    while chunk >= 1:
        for offset in range(0, size, chunk):
            kept = items[:offset] + items[offset + chunk:]
            if len(kept) < size:
                yield make(kept)
        chunk //= 2


def _drop_faults(scenario: Scenario) -> Iterator[Scenario]:
    if scenario.faults:
        yield from _chunked_drops(
            scenario.faults, lambda kept: replace(scenario, faults=kept)
        )


def _drop_chatter(scenario: Scenario) -> Iterator[Scenario]:
    if scenario.chatter:
        yield replace(scenario, chatter=())
        yield from _chunked_drops(
            scenario.chatter, lambda kept: replace(scenario, chatter=kept)
        )


def _drop_holds(scenario: Scenario) -> Iterator[Scenario]:
    if scenario.holds:
        yield replace(scenario, holds=())
        for index in range(len(scenario.holds)):
            kept = scenario.holds[:index] + scenario.holds[index + 1:]
            yield replace(scenario, holds=kept)


def _drop_schedule(scenario: Scenario) -> Iterator[Scenario]:
    if scenario.partition is not None:
        yield replace(scenario, partition=None)
    if scenario.heal_at is not None:
        yield replace(scenario, heal_at=None)


def _drop_detector(scenario: Scenario) -> Iterator[Scenario]:
    if scenario.detector[0] != "none":
        yield replace(scenario, detector=("none", ()), horizon=None)


def _simplify_delay(scenario: Scenario) -> Iterator[Scenario]:
    if scenario.delay != ("constant", (1.0,)):
        yield replace(scenario, delay=("constant", (1.0,)))


def _halve_horizon(scenario: Scenario) -> Iterator[Scenario]:
    # Size-neutral on its own, so piggyback a chatter trim check: the
    # size gate in the main loop requires strict decrease, and a halved
    # horizon drops chatter scheduled beyond it from mattering — but we
    # keep this purely structural: only offer it when it prunes chatter.
    if scenario.horizon is not None and scenario.horizon > 2.0:
        horizon = round(scenario.horizon / 2, 4)
        kept = tuple(c for c in scenario.chatter if c[0] <= horizon)
        if len(kept) < len(scenario.chatter):
            yield replace(scenario, horizon=horizon, chatter=kept)


def _lower_t(scenario: Scenario) -> Iterator[Scenario]:
    if scenario.t > 1:
        yield replace(scenario, t=scenario.t - 1)


def _clamp_t(protocol: str, t: int, n: int) -> int:
    if protocol in ("sfs", "transitive"):
        return max(1, min(t, max_tolerable_t(n)))
    return max(1, min(t, max(1, n // 2)))


def _remap(pid: int, removed: int) -> int:
    return pid - 1 if pid > removed else pid


def _remove_pid(scenario: Scenario, removed: int) -> Scenario | None:
    """The scenario with process ``removed`` deleted, or ``None``.

    Everything referencing the process is dropped; every higher pid
    shifts down by one; ``t`` and ``quorum_size`` re-clamp to the
    smaller system. ``None`` when ``n == 2`` (the generator's floor).
    """
    if scenario.n <= 2:
        return None
    n = scenario.n - 1
    faults = tuple(
        replace(
            fault,
            proc=_remap(fault.proc, removed),
            target=(
                None if fault.target is None
                else _remap(fault.target, removed)
            ),
        )
        for fault in scenario.faults
        if fault.proc != removed and fault.target != removed
    )
    chatter = tuple(
        (at, _remap(src, removed), _remap(dst, removed), tag)
        for at, src, dst, tag in scenario.chatter
        if src != removed and dst != removed
    )
    holds = tuple(
        (
            _remap(target, removed),
            tuple(
                sorted(_remap(p, removed) for p in shield if p != removed)
            ),
        )
        for target, shield in scenario.holds
        if target != removed
    )
    partition = scenario.partition
    if partition is not None:
        side_a = tuple(
            sorted(_remap(p, removed) for p in partition[0] if p != removed)
        )
        side_b = tuple(
            sorted(_remap(p, removed) for p in partition[1] if p != removed)
        )
        partition = (side_a, side_b) if side_a and side_b else None
    quorum_size = scenario.quorum_size
    if quorum_size is not None:
        quorum_size = min(quorum_size, n)
    return replace(
        scenario,
        n=n,
        t=_clamp_t(scenario.protocol, scenario.t, n),
        quorum_size=quorum_size,
        faults=faults,
        chatter=chatter,
        holds=holds,
        partition=partition,
    )


def _remove_processes(scenario: Scenario) -> Iterator[Scenario]:
    for removed in range(scenario.n - 1, -1, -1):
        candidate = _remove_pid(scenario, removed)
        if candidate is not None:
            yield candidate


_PASSES: tuple[tuple[str, object], ...] = (
    ("drop faults", _drop_faults),
    ("drop chatter", _drop_chatter),
    ("drop holds", _drop_holds),
    ("drop partition/heal", _drop_schedule),
    ("drop detector", _drop_detector),
    ("simplify delay", _simplify_delay),
    ("halve horizon", _halve_horizon),
    ("lower t", _lower_t),
    ("remove process", _remove_processes),
)


# ----------------------------------------------------------------------
# The shrink loop
# ----------------------------------------------------------------------


def shrink(
    scenario: Scenario,
    kinds: Sequence[str] | frozenset[str] | None = None,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> ShrinkResult:
    """Greedily minimise ``scenario`` while preserving its finding kinds.

    ``kinds`` is the contract a candidate must keep satisfying (every
    listed kind present among the candidate's finding kinds). When
    omitted it is computed by running the scenario once — which then
    must produce at least one finding, or there is nothing to preserve
    and the call raises.

    Deterministic by construction: fixed pass order, no randomness, and
    every accepted candidate strictly decreases :func:`scenario_size`,
    so the loop terminates with or without the attempt budget.
    """
    if kinds is None:
        kinds = finding_kinds(run_scenario(scenario).findings)
    target = frozenset(kinds)
    if not target:
        raise SimulationError(
            "nothing to shrink: the scenario produces no findings "
            "(pass kinds= to preserve a specific contract)"
        )
    attempts = 0
    steps: list[str] = []
    current = scenario
    seen = {repr(scenario)}

    def reproduces(candidate: Scenario) -> bool:
        nonlocal attempts
        attempts += 1
        return target <= finding_kinds(run_scenario(candidate).findings)

    improved = True
    while improved and attempts < max_attempts:
        improved = False
        for name, generate in _PASSES:
            for candidate in generate(current):
                if attempts >= max_attempts:
                    break
                key = repr(candidate)
                if key in seen:
                    continue
                seen.add(key)
                if scenario_size(candidate) >= scenario_size(current):
                    continue
                if reproduces(candidate):
                    steps.append(
                        f"{name}: size {scenario_size(current)} -> "
                        f"{scenario_size(candidate)}"
                    )
                    current = candidate
                    improved = True
                    break
            if improved:
                break
    return ShrinkResult(
        original=scenario,
        minimal=current,
        kinds=target,
        attempts=attempts,
        steps=tuple(steps),
    )
