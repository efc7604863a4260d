"""Experiment drivers E1-E10 (the paper tables; see README.md).

The paper is a theory paper — its "evaluation" is Figure 1 and Theorems
1-7 / Corollary 8. Each driver below turns one of those claims into a
measured, seeded, replayable experiment; ``python -m repro experiment``
prints its table, and ``tests/analysis/test_experiments.py`` asserts
each table's shape at full scale.

Every driver returns plain dataclass rows so callers can render or assert
on them without re-running anything. Drivers that take a ``seeds``
sequence are registered in :data:`SEEDED_DRIVERS`, which the parallel
sweep runner (:mod:`repro.analysis.sweep`) fans out one seed per task.
"""

from __future__ import annotations

import inspect
import random
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Sequence

from repro.apps.election import ElectionProcess, max_concurrent_leaders
from repro.apps.last_to_fail import (
    recover_last_to_fail,
    verdict_is_correct,
)
from repro.core.bounds import bounds_table, min_quorum_size
from repro.core.failed_before import find_cycle, is_acyclic
from repro.core.indistinguishability import (
    bad_pairs,
    ensure_crashes,
    fail_stop_witness,
    verify_witness,
)
from repro.core.quorum import counterexample_family
from repro.detectors.heartbeat import HeartbeatDriver
from repro.detectors.phi_accrual import PhiAccrualDriver
from repro.errors import CannotRearrangeError
from repro.protocols.generic import GenericOneRoundProcess
from repro.protocols.sfs import SfsProcess
from repro.protocols.unilateral import UnilateralProcess
from repro.analysis.checker import analyze
from repro.analysis.metrics import collect_metrics, detection_latency
from repro.sim.delays import (
    LogNormalDelay,
    ParetoDelay,
    UniformDelay,
)
from repro.sim.failures import apply_faults, random_fault_plan
from repro.sim.world import World, build_world


# ----------------------------------------------------------------------
# Sweep registration — one decorator, used by every seeded driver
# ----------------------------------------------------------------------

SEEDED_DRIVERS: dict[str, Callable[..., object]] = {}
"""Registry of drivers accepting ``seeds=...``, keyed by experiment id.

Populated by the :func:`seeded_driver` decorator — here for E1-E10 and in
:mod:`repro.analysis.extensions` for E11/A1/E14 — and consumed by the
sweep planner (:mod:`repro.analysis.sweep`), which fans registered
drivers out one seed per job through :mod:`repro.exec`. Never write to
this dict directly; decorate the driver instead, so every registration
carries the same contract.
"""


def seeded_driver(eid: str) -> Callable[[Callable[..., object]], Callable[..., object]]:
    """Register an experiment driver as sweepable under id ``eid``.

    The decorated driver must accept a ``seeds`` sequence keyword and
    return one frozen dataclass row (or a list of them) whose fields are
    plain values — the contract the sweep digest relies on. Registration
    is the *only* way into :data:`SEEDED_DRIVERS`; duplicate ids are a
    programming error and rejected loudly.

    Dispose what you build: a world is cyclic by construction, so call
    :meth:`World.dispose() <repro.sim.world.World.dispose>` after the
    last read that needs it (history, trace, monitors and process state
    stay readable afterwards). Sweep jobs run with the cyclic collector
    paused (:func:`repro.exec.job.run_job`), so a disposed world frees at
    once by reference count, while a dropped one sits in memory until
    the job ends. ``tests/sim/test_dispose.py`` walks the registry and
    fails, by id, any driver that leaves a world behind.
    """

    def register(driver: Callable[..., object]) -> Callable[..., object]:
        key = eid.lower()
        if key in SEEDED_DRIVERS:
            raise ValueError(
                f"experiment id {key!r} is already registered "
                f"(to {SEEDED_DRIVERS[key].__qualname__})"
            )
        if "seeds" not in inspect.signature(driver).parameters:
            raise ValueError(
                f"driver {driver.__qualname__} cannot be registered as "
                f"{key!r}: sweepable drivers must accept a 'seeds' keyword"
            )
        SEEDED_DRIVERS[key] = driver
        return driver

    return register


# ----------------------------------------------------------------------
# E1 — Theorem 1: timeouts cannot implement FS2 in an asynchronous net
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class E1Row:
    """False-suspicion behaviour of a fixed-timeout detector."""

    timeout_factor: float
    runs: int
    runs_with_false_suspicion: int
    total_false_suspicions: int
    crash_detected_runs: int

    @property
    def false_run_rate(self) -> float:
        """Fraction of runs where a live process was suspected."""
        return self.runs_with_false_suspicion / self.runs


@seeded_driver("e1")
def run_e1(
    n: int = 8,
    seeds: Sequence[int] = tuple(range(20)),
    timeout_factors: Sequence[float] = (1.5, 2.0, 4.0, 8.0),
    heartbeat_interval: float = 1.0,
    horizon: float = 60.0,
) -> list[E1Row]:
    """Sweep timeout aggressiveness under heavy-tailed delays.

    One genuine crash happens mid-run; the heartbeat detector must notice
    it (FS1) — but with Pareto delays every fixed timeout also fires on
    live processes sometimes (the empirical face of Theorem 1). The rate
    falls with the timeout but never structurally reaches zero.
    """
    rows: list[E1Row] = []
    for factor in timeout_factors:
        false_runs = 0
        false_total = 0
        detected_runs = 0
        for seed in seeds:
            drivers = [
                HeartbeatDriver(
                    interval=heartbeat_interval,
                    timeout=heartbeat_interval * factor,
                )
                for _ in range(n)
            ]
            processes = [
                SfsProcess(t=n - 1, enforce_bounds=False,
                           quorum_size=1, detector=drivers[i])
                for i in range(n)
            ]
            world = World(processes, ParetoDelay(scale=0.4, alpha=1.5), seed=seed)
            victim = seed % n
            crash_at = horizon / 2
            world.inject_crash(victim, at=crash_at)
            world.run(until=horizon)
            crash_times = {victim: crash_at}
            run_false = 0
            for driver in drivers:
                run_false += len(driver.false_suspicions(crash_times))
            if run_false:
                false_runs += 1
                false_total += run_false
            if any(
                target == victim
                for _, target in world.history().detected_pairs()
            ):
                detected_runs += 1
            world.dispose()
        rows.append(
            E1Row(
                timeout_factor=factor,
                runs=len(seeds),
                runs_with_false_suspicion=false_runs,
                total_false_suspicions=false_total,
                crash_detected_runs=detected_runs,
            )
        )
    return rows


# ----------------------------------------------------------------------
# E2 — Figure 1 + Theorem 5: sFS conformance and the FS witness
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class E2Row:
    """Conformance of sFS-protocol runs across random fault schedules."""

    n: int
    t: int
    runs: int
    sfs_conformant: int
    witnesses_verified: int
    runs_with_bad_pairs: int
    max_bad_pairs: int


def _sfs_world_with_faults(
    n: int, t: int, seed: int, adversarial: bool
) -> World:
    world = build_world(n, lambda: SfsProcess(t=t), seed=seed)
    rng = random.Random(seed * 7919 + 13)
    faults = random_fault_plan(n, t, rng, horizon=8.0)
    apply_faults(world, faults)
    if adversarial:
        # Shield one suspected target briefly so detections can complete
        # before it crashes — manufacturing bad pairs on purpose.
        targets = [f.target for f in faults if f.kind == "suspicion"]
        if targets:
            shielded = targets[0]
            assert shielded is not None
            world.adversary.hold_suspicions_about(shielded, {shielded})
            world.scheduler.schedule_at(25.0, world.adversary.heal)
    return world


@seeded_driver("e2")
def run_e2(
    configs: Sequence[tuple[int, int]] = ((4, 1), (6, 2), (9, 2), (12, 3)),
    seeds: Sequence[int] = tuple(range(25)),
) -> list[E2Row]:
    """Check FS1 ^ sFS2a-d and build the Theorem 5 witness per run."""
    rows: list[E2Row] = []
    for n, t in configs:
        conformant = 0
        verified = 0
        with_bad = 0
        max_bad = 0
        for seed in seeds:
            world = _sfs_world_with_faults(n, t, seed, adversarial=seed % 2 == 0)
            world.run_to_quiescence()
            history = ensure_crashes(world.history())
            report = analyze(
                history, world.trace.quorum_records, t=t, complete=False
            )
            world.dispose()
            if report.is_simulated_fail_stop:
                conformant += 1
            if report.indistinguishable_from_fail_stop:
                verified += 1
            pairs = bad_pairs(history)
            if pairs:
                with_bad += 1
                max_bad = max(max_bad, len(pairs))
        rows.append(
            E2Row(
                n=n,
                t=t,
                runs=len(seeds),
                sfs_conformant=conformant,
                witnesses_verified=verified,
                runs_with_bad_pairs=with_bad,
                max_bad_pairs=max_bad,
            )
        )
    return rows


# ----------------------------------------------------------------------
# E3 — Theorem 6 / Appendix A.3: the adversarial k-cycle construction
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class E3Row:
    """One adversarial construction attempt."""

    k: int
    n: int
    quorum_size: int
    legal_quorum: int
    cycle_length: int | None
    detections: int

    @property
    def cycle_formed(self) -> bool:
        """Whether the failed-before relation acquired a cycle."""
        return self.cycle_length is not None


def run_e3_single(k: int, n: int, quorum_size: int) -> E3Row:
    """Run the Appendix A.3 scenario once with the given quorum size.

    Processes are partitioned into ``k`` shield blocks; process ``i``
    (i < k) suspects ``i+1 mod k``; all suspicion traffic about a target
    is held away from the target's own block. With
    ``quorum_size <= n - block``, every detection completes and the
    failed-before relation closes into a k-cycle; one above, detections
    starve and no cycle can form.
    """
    world = build_world(
        n, lambda: GenericOneRoundProcess(quorum_size=quorum_size), seed=k * 1000 + n
    )
    # The paper's S_m sets: process m in S_m, the rest distributed — here
    # the residue classes mod k, so detector i (in S_i) is never shielded
    # from traffic about its own target (i+1 mod k, in a different class).
    blocks = [
        frozenset(p for p in range(n) if p % k == m) for m in range(k)
    ]
    for target in range(k):
        # Shield the non-detector members of the target's block from all
        # traffic about the target, so they never acknowledge it; the
        # target itself hears nothing because the skeleton does not write
        # to processes it believes dead. Result: Q_{i, i+1} = P - S_{i+1},
        # and the quorums' global intersection is empty.
        world.adversary.hold_suspicions_about(target, blocks[target] - {target})
    for i in range(k):
        world.inject_suspicion(i, (i + 1) % k, at=1.0)
    world.run_to_quiescence()
    history = world.history()
    world.dispose()
    cycle = find_cycle(history)
    return E3Row(
        k=k,
        n=n,
        quorum_size=quorum_size,
        legal_quorum=min_quorum_size(n, k),
        cycle_length=len(cycle) if cycle else None,
        detections=len(history.detected_pairs()),
    )


def run_e3(
    ks: Sequence[int] = (2, 3, 4), multiplier: int = 3
) -> list[E3Row]:
    """The construction at and just above the Theorem 7 bound.

    At ``quorum = n - n/k`` (the floor the bound must strictly exceed)
    every detection completes and the k-cycle forms; at the legal minimum
    one more confirmation is needed than the shields allow, so detections
    starve and no cycle can exist.
    """
    rows: list[E3Row] = []
    for k in ks:
        n = k * multiplier
        available = n - (-(-n // k))  # n - ceil(n/k) confirmations possible
        rows.append(run_e3_single(k, n, available))
        rows.append(run_e3_single(k, n, min_quorum_size(n, k)))
    return rows


# ----------------------------------------------------------------------
# E4 — Theorem 7 + Corollary 8: the bounds table
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class E4Row:
    """One (n, t) entry of the bounds table, with brute-force cross-check."""

    n: int
    t: int
    min_quorum: int
    feasible: bool
    max_t: int
    family_intersection_empty: bool


def run_e4(ns: Sequence[int] = (4, 9, 10, 16, 25, 26, 49, 50, 100)) -> list[E4Row]:
    """Tabulate the bounds and verify the counterexample family."""
    rows: list[E4Row] = []
    for row in bounds_table(list(ns)):
        family = counterexample_family(row.n, row.t) if row.t >= 2 else None
        empty = (
            not reduce(frozenset.intersection, family) if family else True
        )
        rows.append(
            E4Row(
                n=row.n,
                t=row.t,
                min_quorum=row.min_quorum,
                feasible=row.fixed_quorum_feasible,
                max_t=row.max_t,
                family_intersection_empty=empty,
            )
        )
    return rows


# ----------------------------------------------------------------------
# E5 — Theorem 7 tightness: cycle rate vs quorum size (echo protocol)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class E5Row:
    """Cycle frequency for one quorum size."""

    n: int
    t: int
    quorum_size: int
    at_or_above_bound: bool
    runs: int
    runs_with_cycle: int

    @property
    def cycle_rate(self) -> float:
        """Fraction of runs whose failed-before relation is cyclic."""
        return self.runs_with_cycle / self.runs


@seeded_driver("e5")
def run_e5(
    n: int = 12,
    t: int = 3,
    quorum_sizes: Sequence[int] | None = None,
    seeds: Sequence[int] = tuple(range(40)),
    heal_at: float = 40.0,
) -> list[E5Row]:
    """Sweep the echo protocol's quorum size through the Theorem 7 bound.

    Workload: ``t`` suspicions around a ring (0 suspects 1 suspects 2
    suspects 0), with the adversary temporarily shielding each ring member
    from its own name — the most cycle-friendly schedule asynchrony
    permits. Below the bound the shields let every member complete its
    detection, closing the cycle; at or above it, the FIFO witness
    argument of Lemma 9 makes a full cycle impossible no matter the
    schedule (the common witness's echo order would have to satisfy
    circular constraints), so the measured rate drops to exactly zero.
    """
    legal = min_quorum_size(n, t)
    if quorum_sizes is None:
        quorum_sizes = tuple(range(2, legal + 2))
    rows: list[E5Row] = []
    for quorum in quorum_sizes:
        cycles = 0
        for seed in seeds:
            world = build_world(
                n,
                lambda: SfsProcess(
                    t=t, quorum_size=quorum, enforce_bounds=False
                ),
                delay_model=UniformDelay(0.2, 3.0),
                seed=seed,
            )
            for member in range(t):
                world.adversary.hold_suspicions_about(member, {member})
            for i in range(t):
                world.inject_suspicion(i, (i + 1) % t, at=1.0)
            world.scheduler.schedule_at(heal_at, world.adversary.heal)
            world.run_to_quiescence()
            if not is_acyclic(world.history()):
                cycles += 1
            world.dispose()
        rows.append(
            E5Row(
                n=n,
                t=t,
                quorum_size=quorum,
                at_or_above_bound=quorum >= legal,
                runs=len(seeds),
                runs_with_cycle=cycles,
            )
        )
    return rows


# ----------------------------------------------------------------------
# E6 — Section 5 cost: messages per detection and latency scaling
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class E6Row:
    """Cost of one detected failure at system size n."""

    n: int
    t: int
    policy: str
    protocol_messages: int
    messages_per_target: float
    first_detection_latency: float | None
    all_detected_latency: float | None
    detectors: int


def run_e6(
    ns: Sequence[int] = (4, 6, 9, 12, 16, 25),
    t: int = 1,
    seed: int = 11,
) -> list[E6Row]:
    """One genuine crash, one suspicion, measure the detection round."""
    from repro.protocols.quorum_policy import WaitForAll

    rows: list[E6Row] = []
    for n in ns:
        for policy_name in ("fixed", "wait-for-all"):
            if policy_name == "fixed":
                factory = lambda: SfsProcess(t=t)
            else:
                factory = lambda: SfsProcess(t=t, policy=WaitForAll())
            world = build_world(n, factory, seed=seed)
            world.inject_crash(0, at=0.5)
            world.inject_suspicion(1, 0, at=1.0)
            world.run_to_quiescence()
            metrics = collect_metrics(world)
            latency = detection_latency(world, target=0, suspicion_time=1.0)
            world.dispose()
            rows.append(
                E6Row(
                    n=n,
                    t=t,
                    policy=policy_name,
                    protocol_messages=metrics.protocol_messages,
                    messages_per_target=metrics.messages_per_target,
                    first_detection_latency=latency.first_latency,
                    all_detected_latency=latency.last_latency,
                    detectors=latency.detectors,
                )
            )
    return rows


# ----------------------------------------------------------------------
# E7 — Section 6: the cheap model forms cycles; sFS never does
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class E7Row:
    """Cycle statistics for one protocol over many seeds."""

    protocol: str
    runs: int
    runs_with_cycle: int
    runs_distinguishable: int

    @property
    def cycle_rate(self) -> float:
        """Fraction of runs with a failed-before cycle."""
        return self.runs_with_cycle / self.runs


@seeded_driver("e7")
def run_e7(
    n: int = 6, seeds: Sequence[int] = tuple(range(60))
) -> list[E7Row]:
    """Identical mutual-suspicion schedules under both protocols."""
    rows: list[E7Row] = []
    for protocol_name in ("unilateral", "sfs"):
        cycles = 0
        distinguishable = 0
        for seed in seeds:
            if protocol_name == "unilateral":
                factory = lambda: UnilateralProcess()
            else:
                factory = lambda: SfsProcess(t=2)
            world = build_world(
                n, factory, delay_model=UniformDelay(0.2, 2.0), seed=seed
            )
            world.inject_suspicion(0, 1, at=1.0)
            world.inject_suspicion(1, 0, at=1.0)
            world.run_to_quiescence()
            history = ensure_crashes(world.history())
            world.dispose()
            if not is_acyclic(history):
                cycles += 1
            try:
                witness = fail_stop_witness(history)
            except CannotRearrangeError:
                distinguishable += 1
            else:
                if verify_witness(history, witness):
                    distinguishable += 1
        rows.append(
            E7Row(
                protocol=protocol_name,
                runs=len(seeds),
                runs_with_cycle=cycles,
                runs_distinguishable=distinguishable,
            )
        )
    return rows


# ----------------------------------------------------------------------
# E8 — [Ske85]: last-process-to-fail under both models
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class E8Row:
    """Recovery outcomes for one protocol over staged total failures."""

    protocol: str
    runs: int
    recoveries_correct: int
    recoveries_unsolvable: int

    @property
    def correct_rate(self) -> float:
        """Fraction of total-failure runs recovered correctly."""
        return self.recoveries_correct / self.runs


def _total_failure_world(protocol_name: str, n: int, seed: int) -> World:
    if protocol_name == "unilateral":
        factory = lambda: UnilateralProcess()
    else:
        factory = lambda: SfsProcess(t=n - 1, enforce_bounds=False,
                                     quorum_size=max(2, n // 2))
    world = build_world(
        n, factory, delay_model=UniformDelay(0.2, 1.5), seed=seed
    )
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    # Victims are suspected one by one by the next process in the order;
    # the final survivor crashes for real at the end (total failure).
    at = 1.0
    for idx, victim in enumerate(order[:-1]):
        observer = order[-1] if idx % 2 == 0 else order[(idx + 1) % n]
        if observer == victim:
            observer = order[-1]
        world.inject_suspicion(observer, victim, at=at)
        at += rng.uniform(3.0, 6.0)
    if protocol_name == "unilateral" and n >= 2:
        # Poison the logs with a concurrent mutual suspicion.
        a, b = order[0], order[1]
        world.inject_suspicion(a, b, at=0.9)
        world.inject_suspicion(b, a, at=0.9)
    world.inject_crash(order[-1], at=at + 5.0)
    return world


@seeded_driver("e8")
def run_e8(
    n: int = 5, seeds: Sequence[int] = tuple(range(30))
) -> list[E8Row]:
    """Stage total failures, recover, score against the witness order."""
    rows: list[E8Row] = []
    for protocol_name in ("sfs", "unilateral"):
        correct = 0
        unsolvable = 0
        for seed in seeds:
            world = _total_failure_world(protocol_name, n, seed)
            world.run_to_quiescence()
            history = ensure_crashes(world.history())
            world.dispose()
            verdict = recover_last_to_fail(history)
            if not verdict.solvable:
                unsolvable += 1
            elif verdict_is_correct(history):
                correct += 1
        rows.append(
            E8Row(
                protocol=protocol_name,
                runs=len(seeds),
                recoveries_correct=correct,
                recoveries_unsolvable=unsolvable,
            )
        )
    return rows


# ----------------------------------------------------------------------
# E9 — Section 1: election split-brain, raw run vs FS witness
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class E9Row:
    """Concurrent-leadership statistics, raw vs witness."""

    runs: int
    raw_runs_with_two_leaders: int
    witness_runs_with_two_leaders: int
    max_raw_leaders: int
    max_witness_leaders: int


@seeded_driver("e9")
def run_e9(
    n: int = 6, seeds: Sequence[int] = tuple(range(30))
) -> E9Row:
    """Falsely depose the leader; compare raw and witness leadership.

    The adversary shields process 0 (the initial leader) from the
    suspicion against it long enough for everyone else to detect it and
    for process 1 to take over — two simultaneous believed-leaders in the
    raw run. The Theorem 5 witness of the same run must never show two.
    """
    raw_two = 0
    witness_two = 0
    max_raw = 0
    max_witness = 0
    for seed in seeds:
        world = build_world(
            n, lambda: ElectionProcess(t=2), seed=seed,
            delay_model=UniformDelay(0.3, 1.2),
        )
        world.adversary.hold_suspicions_about(0, {0})
        world.inject_suspicion(2, 0, at=1.0)
        world.scheduler.schedule_at(30.0, world.adversary.heal)
        world.run_to_quiescence()
        history = ensure_crashes(world.history())
        world.dispose()
        raw = max_concurrent_leaders(history)
        witness = fail_stop_witness(history)
        wit = max_concurrent_leaders(witness)
        max_raw = max(max_raw, raw)
        max_witness = max(max_witness, wit)
        if raw >= 2:
            raw_two += 1
        if wit >= 2:
            witness_two += 1
    return E9Row(
        runs=len(seeds),
        raw_runs_with_two_leaders=raw_two,
        witness_runs_with_two_leaders=witness_two,
        max_raw_leaders=max_raw,
        max_witness_leaders=max_witness,
    )


# ----------------------------------------------------------------------
# E10 — phi-accrual: the FS1/FS2 trade-off as a threshold sweep
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class E10Row:
    """Accuracy/latency trade-off at one phi threshold."""

    threshold: float
    runs: int
    false_suspicions: int
    crash_detected_runs: int
    mean_detection_delay: float | None


@seeded_driver("e10")
def run_e10(
    n: int = 6,
    thresholds: Sequence[float] = (0.5, 1.0, 2.0, 4.0, 8.0),
    seeds: Sequence[int] = tuple(range(10)),
    horizon: float = 80.0,
) -> list[E10Row]:
    """Sweep the accrual threshold under log-normal delays."""
    rows: list[E10Row] = []
    for threshold in thresholds:
        false_total = 0
        detected = 0
        delays: list[float] = []
        for seed in seeds:
            drivers = [
                PhiAccrualDriver(interval=1.0, threshold=threshold)
                for _ in range(n)
            ]
            processes = [
                SfsProcess(t=n - 1, enforce_bounds=False, quorum_size=2,
                           detector=drivers[i])
                for i in range(n)
            ]
            world = World(
                processes, LogNormalDelay(median=0.8, sigma=0.6), seed=seed
            )
            victim = seed % n
            crash_at = horizon / 2
            world.inject_crash(victim, at=crash_at)
            world.run(until=horizon)
            crash_times = {victim: crash_at}
            for driver in drivers:
                false_total += len(driver.false_suspicions(crash_times))
            times = world.trace.detection_times(victim)
            world.dispose()
            if times:
                detected += 1
                # Latency counts only detections of the *actual* crash; a
                # victim falsely detected earlier contributes accuracy
                # loss (counted above), not negative latency.
                post_crash = [t for t in times.values() if t >= crash_at]
                if post_crash:
                    delays.append(min(post_crash) - crash_at)
        rows.append(
            E10Row(
                threshold=threshold,
                runs=len(seeds),
                false_suspicions=false_total,
                crash_detected_runs=detected,
                mean_detection_delay=(
                    sum(delays) / len(delays) if delays else None
                ),
            )
        )
    return rows


