"""Deterministic scenario fuzzing over the sharded multi-world engine.

The paper's claims are quantified over *all* admissible runs; hand-written
scenarios (``experiments.py``) explore a sliver of that space. This module
generates whole families of adversarial scenarios — topology size, failure
sets and timing, adversary delay/partition schedules, detector choice and
parameters, protocol choice, application chatter — from nothing but a
``(seed, index, config)`` triple, plans them as jobs for
:mod:`repro.exec`, and folds the judged outcomes into digest-stable
reports and adaptive campaigns. :func:`expected_clean` is the model
oracle's per-configuration contract (e.g. a bounds-enforced Section 5 run
must never trip sFS2b-d, per Theorem 5).

Building, running and judging a scenario's world is
:mod:`repro.analysis.fuzz_world`, which the job runners below import on
their first job: planning, reporting and a resume that restores every
outcome from its journal load no simulator. ``build_scenario_world`` and
``judge_world`` are still readable from here (PEP 562).

Everything is a pure function of the inputs: the same
``python -m repro fuzz --seed S --count N`` invocation replays the same
scenarios, the same runs, and the same report digest, byte for byte —
which is what makes a fuzz finding *shareable* (the scenario's repr is
the reproducer).
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro._lazy import lazy_namespace
from repro.analysis.coverage import (
    AxisWeights,
    CoverageMap,
    derive_weights,
    weighted_choice,
)
from repro.core.bounds import max_tolerable_t
from repro.core.failure_models import get_failure_model
from repro.errors import SimulationError
from repro.exec.core import run_jobs
from repro.exec.executors import (
    EXEC_BACKENDS,
    Executor,
    effective_backend,
    make_executor,
)
from repro.exec.job import JobSpec, run_job
from repro.exec.sink import ResultSink
from repro.sim.failures import (
    Fault,
    random_byzantine_plan,
    random_fault_plan,
    random_recovery_plan,
)

if TYPE_CHECKING:
    from repro.sim.multiworld import ShardedRunner

__getattr__, __dir__ = lazy_namespace(globals(), {
    "build_scenario_world": "fuzz_world",
    "judge_world": "fuzz_world",
})

PROTOCOLS = ("sfs", "transitive", "generic", "unilateral")
"""Fuzzable protocol ids (Section 5, its piggybacked variant, the
Section 4 skeleton, and the Section 6 cheap model)."""

DELAY_FAMILIES = ("constant", "uniform", "exponential", "lognormal", "pareto")
"""Fuzzable delay-model families (see :mod:`repro.sim.delays`)."""

DETECTORS = ("none", "heartbeat", "phi")
"""Fuzzable suspicion sources; ``"none"`` means injected suspicions only."""


@dataclass(frozen=True)
class FuzzConfig:
    """Bounds of the scenario space one fuzz run draws from.

    The config is part of the reproducer: :func:`generate_scenario` is a
    pure function of ``(seed, index, config)``, so changing any field
    changes the scenarios (and the report digest) deterministically.

    ``detector_rate`` exists because detector-driven scenarios are run to
    a virtual-time horizon under continuous heartbeat traffic — an order
    of magnitude more events than injected-fault scenarios — so they are
    sampled, not drawn uniformly.

    ``failure_model`` selects the fault vocabulary the fuzzer draws from
    (and the semantics every generated world runs under): ``"fail-stop"``
    crashes are forever, ``"crash-recovery"`` plans crash/recover churn
    and runs the protocols under the black-box wrapper of
    :mod:`repro.protocols.recovery`, ``"byzantine-crash"`` compromises up
    to ``t`` senders. The default reproduces the historical scenario
    stream byte for byte (``repr`` included), so pre-existing digests
    stay valid.
    """

    min_n: int = 3
    max_n: int = 12
    protocols: tuple[str, ...] = PROTOCOLS
    delays: tuple[str, ...] = DELAY_FAMILIES
    detectors: tuple[str, ...] = DETECTORS
    detector_rate: float = 0.2
    adversary_rate: float = 0.4
    partition_rate: float = 0.15
    fault_horizon: float = 8.0
    detector_horizon: float = 30.0
    max_chatter: int = 12
    failure_model: str = "fail-stop"

    def __repr__(self) -> str:
        return self._repr

    @cached_property
    def _repr(self) -> str:
        # Rendered once per config: every job of a plan shares one config,
        # and plan_digest and each job_digest render the job's repr.
        # Byte-identical to the pre-failure-model dataclass repr when the
        # new field keeps its default: reprs seed job identities and
        # journal keys, which must not shift under existing configs.
        base = (
            f"FuzzConfig(min_n={self.min_n!r}, max_n={self.max_n!r}, "
            f"protocols={self.protocols!r}, delays={self.delays!r}, "
            f"detectors={self.detectors!r}, "
            f"detector_rate={self.detector_rate!r}, "
            f"adversary_rate={self.adversary_rate!r}, "
            f"partition_rate={self.partition_rate!r}, "
            f"fault_horizon={self.fault_horizon!r}, "
            f"detector_horizon={self.detector_horizon!r}, "
            f"max_chatter={self.max_chatter!r}"
        )
        if self.failure_model != "fail-stop":
            base += f", failure_model={self.failure_model!r}"
        return base + ")"

    def __getstate__(self) -> dict:
        # The rendered repr is a cache, not state: pickled jobs stay the
        # same bytes whether or not it was rendered first.
        state = dict(self.__dict__)
        state.pop("_repr", None)
        return state

    def __post_init__(self) -> None:
        get_failure_model(self.failure_model)  # raises on unknown names
        # min_n >= 2: a 1-process system can suspect no one, and it is
        # the only n where max_tolerable_t(n) < 1 would break the
        # Corollary 8 invariant (n > t^2) the model oracle relies on.
        if not 2 <= self.min_n <= self.max_n:
            raise SimulationError(
                f"need 2 <= min_n <= max_n, got {self.min_n}..{self.max_n}"
            )
        for name, pool in (
            ("protocols", PROTOCOLS),
            ("delays", DELAY_FAMILIES),
            ("detectors", DETECTORS),
        ):
            unknown = sorted(set(getattr(self, name)) - set(pool))
            if unknown:
                raise SimulationError(
                    f"unknown {name} in FuzzConfig: {', '.join(map(str, unknown))}"
                )
            if not getattr(self, name):
                raise SimulationError(
                    f"FuzzConfig.{name} is empty; name at least one of "
                    f"{', '.join(pool)}"
                )
        # Every check is written so that NaN fails it.
        for name in ("detector_rate", "adversary_rate", "partition_rate"):
            if not 0 <= getattr(self, name) <= 1:
                raise SimulationError(
                    f"FuzzConfig.{name} must lie in [0, 1], "
                    f"got {getattr(self, name)!r}"
                )
        if not (math.isfinite(self.fault_horizon) and self.fault_horizon >= 0):
            raise SimulationError(
                "FuzzConfig.fault_horizon must be a finite time >= 0, "
                f"got {self.fault_horizon!r}"
            )
        if not (
            math.isfinite(self.detector_horizon) and self.detector_horizon > 0
        ):
            raise SimulationError(
                "FuzzConfig.detector_horizon must be a finite time > 0, "
                f"got {self.detector_horizon!r}"
            )
        if not self.max_chatter >= 0:
            raise SimulationError(
                f"FuzzConfig.max_chatter must be >= 0, got {self.max_chatter!r}"
            )


@dataclass(frozen=True)
class Scenario:
    """One fully materialised fuzz scenario (every choice already made).

    All fields are plain values with content-stable ``repr``, so a
    scenario is its own reproducer and hashes identically across
    processes: paste the repr back in, or re-derive it from
    ``(seed, index, config)``.
    """

    index: int
    seed: int  # world RNG seed (derived, not the fuzz seed)
    n: int
    protocol: str
    t: int
    quorum_size: int | None
    delay: tuple[str, tuple[float, ...]]
    detector: tuple[str, tuple[float, ...]]
    faults: tuple[Fault, ...]
    holds: tuple[tuple[int, tuple[int, ...]], ...]
    partition: tuple[tuple[int, ...], tuple[int, ...]] | None
    heal_at: float | None
    chatter: tuple[tuple[float, int, int, int], ...]
    horizon: float | None
    failure_model: str = "fail-stop"

    def __repr__(self) -> str:
        # Scenario reprs feed FuzzReport.digest(); under the default
        # model this must match the pre-failure-model dataclass repr byte
        # for byte so historical fuzz digests keep reproducing.
        base = (
            f"Scenario(index={self.index!r}, seed={self.seed!r}, "
            f"n={self.n!r}, protocol={self.protocol!r}, t={self.t!r}, "
            f"quorum_size={self.quorum_size!r}, delay={self.delay!r}, "
            f"detector={self.detector!r}, faults={self.faults!r}, "
            f"holds={self.holds!r}, partition={self.partition!r}, "
            f"heal_at={self.heal_at!r}, chatter={self.chatter!r}, "
            f"horizon={self.horizon!r}"
        )
        if self.failure_model != "fail-stop":
            base += f", failure_model={self.failure_model!r}"
        return base + ")"


# ----------------------------------------------------------------------
# Generation
# ----------------------------------------------------------------------


def _round(value: float) -> float:
    """Clip generator floats to a short, repr-friendly precision."""
    return round(value, 4)


def _draw_protocol_bounds(
    protocol: str, n: int, rng: random.Random
) -> tuple[int, int | None]:
    """The ``(t, quorum_size)`` draw for one protocol choice."""
    if protocol in ("sfs", "transitive"):
        # Bounds-enforced Section 5 deployments: Theorem 5 applies, so
        # the oracle below may demand full sFS conformance. n >= 2
        # guarantees max_tolerable_t(n) >= 1, keeping n > t^2.
        return rng.randint(1, max_tolerable_t(n)), None
    if protocol == "generic":
        t = rng.randint(1, max(1, n // 2))
        return t, rng.randint(1, n)  # probe illegal sizes on purpose
    # unilateral
    return rng.randint(1, max(1, n // 2)), None


def _draw_delay_params(
    family: str, rng: random.Random
) -> tuple[float, ...]:
    """The parameter draw for one delay-family choice."""
    if family == "constant":
        return (_round(rng.uniform(0.1, 1.5)),)
    if family == "uniform":
        low = _round(rng.uniform(0.05, 1.0))
        return (low, _round(low + rng.uniform(0.1, 2.0)))
    if family == "exponential":
        return (_round(rng.uniform(0.3, 1.5)),)
    if family == "lognormal":
        return (
            _round(rng.uniform(0.4, 1.5)),
            _round(rng.uniform(0.2, 0.8)),
        )
    # pareto
    return (
        _round(rng.uniform(0.2, 0.8)),
        _round(rng.uniform(1.3, 2.5)),
    )


def _draw_detector_params(
    kind: str, rng: random.Random
) -> tuple[str, tuple[float, ...]]:
    """The parameter draw for one (non-``"none"``) detector choice."""
    interval = _round(rng.uniform(0.5, 2.0))
    if kind == "heartbeat":
        return (
            "heartbeat",
            (interval, _round(interval * rng.uniform(3.0, 10.0))),
        )
    return ("phi", (interval, _round(rng.uniform(2.0, 8.0))))


def _draw_faults(
    config: FuzzConfig, n: int, t: int, rng: random.Random
) -> tuple[Fault, ...]:
    """The model-specific fault-plan draw.

    Model-specific plans draw different amounts of randomness; only the
    default branch must preserve the historical draw order.
    """
    if config.failure_model == "crash-recovery":
        return tuple(
            random_recovery_plan(n, t, rng, horizon=config.fault_horizon)
        )
    if config.failure_model == "byzantine-crash":
        return tuple(
            random_byzantine_plan(n, t, rng, horizon=config.fault_horizon)
        )
    return tuple(random_fault_plan(n, t, rng, horizon=config.fault_horizon))


def _draw_holds(
    n: int, faults: tuple[Fault, ...], rng: random.Random
) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The adversary suspicion-hold draw (given holds were chosen)."""
    targets = sorted(
        {f.target if f.target is not None else f.proc for f in faults}
    ) or [rng.randrange(n)]
    picked = rng.sample(targets, k=min(len(targets), rng.randint(1, 2)))
    hold_list = []
    for target in picked:
        others = [p for p in range(n) if p != target]
        shield = {target} | set(
            rng.sample(others, k=rng.randint(0, max(0, (n - 1) // 3)))
        )
        hold_list.append((target, tuple(sorted(shield))))
    return tuple(hold_list)


def _draw_partition(
    n: int, rng: random.Random
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The network-partition draw (given a partition was chosen)."""
    cut = rng.randint(1, n - 1)
    members = list(range(n))
    rng.shuffle(members)
    return (
        tuple(sorted(members[:cut])),
        tuple(sorted(members[cut:])),
    )


def _draw_chatter(
    config: FuzzConfig, n: int, rng: random.Random
) -> tuple[tuple[float, int, int, int], ...]:
    """The application-chatter draw."""
    return tuple(
        sorted(
            (
                _round(rng.uniform(0.1, config.fault_horizon + 4.0)),
                rng.randrange(n),
                rng.randrange(n),
                tag,
            )
            for tag in range(rng.randint(0, config.max_chatter))
        )
    )


def _finish_scenario(
    rng: random.Random, index: int, config: FuzzConfig, **axes
) -> Scenario:
    """The draws both generators end with (heal time, chatter, world
    seed — in that order) and the scenario over every drawn axis."""
    heal_at = (
        _round(rng.uniform(10.0, 20.0))
        if axes["holds"] or axes["partition"]
        else None
    )
    chatter = _draw_chatter(config, axes["n"], rng)
    return Scenario(
        index=index,
        seed=rng.getrandbits(32),
        heal_at=heal_at,
        chatter=chatter,
        horizon=(
            config.detector_horizon
            if axes["detector"][0] != "none"
            else None
        ),
        failure_model=config.failure_model,
        **axes,
    )


def generate_scenario(seed: int, index: int, config: FuzzConfig) -> Scenario:
    """The ``index``-th scenario of fuzz run ``seed`` under ``config``.

    Derivation is via ``random.Random(f"{seed}:{index}")`` — string
    seeding hashes with SHA-512, so the stream is stable across processes
    and interpreter restarts (unlike ``hash()``-based derivations).

    The helper draws are shared with :func:`generate_weighted_scenario`;
    the call order here reproduces the historical uniform stream byte
    for byte (pinned by the legacy digest tests).
    """
    rng = random.Random(f"repro-fuzz:{seed}:{index}")
    n = rng.randint(config.min_n, config.max_n)
    protocol = rng.choice(config.protocols)
    t, quorum_size = _draw_protocol_bounds(protocol, n, rng)

    family = rng.choice(config.delays)
    delay_params = _draw_delay_params(family, rng)

    detector = ("none", ())
    choices = tuple(d for d in config.detectors if d != "none")
    if choices and rng.random() < config.detector_rate:
        detector = _draw_detector_params(rng.choice(choices), rng)

    faults = _draw_faults(config, n, t, rng)

    holds: tuple[tuple[int, tuple[int, ...]], ...] = ()
    if rng.random() < config.adversary_rate:
        holds = _draw_holds(n, faults, rng)

    partition = None
    if n >= 2 and rng.random() < config.partition_rate:
        partition = _draw_partition(n, rng)

    return _finish_scenario(
        rng, index, config, n=n, protocol=protocol, t=t,
        quorum_size=quorum_size, delay=(family, delay_params),
        detector=detector, faults=faults, holds=holds, partition=partition,
    )


def generate_weighted_scenario(
    seed: int, index: int, config: FuzzConfig, weights: AxisWeights
) -> Scenario:
    """The ``index``-th *adaptive* scenario under explicit axis weights.

    A pure function of ``(seed, index, config, weights)`` — the adaptive
    loop's coverage feedback is entirely inside ``weights``, so an
    adaptive job (which carries its weights in its params) is exactly as
    self-contained a reproducer as a uniform one. The RNG namespace is
    distinct from :func:`generate_scenario`'s on purpose: index *i* of an
    adaptive campaign is not index *i* of a uniform run, and the streams
    must never collide.

    Weighted axes (n, protocol, delay family, detector, adversary
    schedule shape) draw through
    :func:`~repro.analysis.coverage.weighted_choice`; everything inside
    an axis choice reuses the same ``_draw_*`` helpers as the uniform
    generator, so the adaptive fuzzer explores *where* the map steers it
    with the same local distributions the uniform fuzzer has always had.
    """
    rng = random.Random(f"repro-fuzz-adaptive:{seed}:{index}")
    n = weighted_choice(rng, weights.ns)
    protocol = weighted_choice(rng, weights.protocols)
    t, quorum_size = _draw_protocol_bounds(protocol, n, rng)

    family = weighted_choice(rng, weights.delays)
    delay_params = _draw_delay_params(family, rng)

    detector = ("none", ())
    kind = weighted_choice(rng, weights.detectors)
    if kind != "none":
        detector = _draw_detector_params(kind, rng)

    faults = _draw_faults(config, n, t, rng)

    shape = weighted_choice(rng, weights.shapes)
    holds: tuple[tuple[int, tuple[int, ...]], ...] = ()
    if shape in ("holds", "both"):
        holds = _draw_holds(n, faults, rng)
    partition = None
    if shape in ("partition", "both"):
        partition = _draw_partition(n, rng)

    return _finish_scenario(
        rng, index, config, n=n, protocol=protocol, t=t,
        quorum_size=quorum_size, delay=(family, delay_params),
        detector=detector, faults=faults, holds=holds, partition=partition,
    )


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------


def expected_clean(scenario: Scenario) -> tuple[str, ...]:
    """Halt-relevant monitors this configuration must never trip.

    * Every simulated run must record a **well-formed** history and never
      self-detect (``valid``, ``sFS2c``) — these are structural.
    * A bounds-enforced Section 5 deployment (``sfs``/``transitive``)
      satisfies all of sFS (Theorem 5) **provided the failure bound
      holds**: with injected faults the plan respects ``t`` by
      construction, but a live detector can manufacture arbitrarily many
      erroneous suspicions, so detector scenarios only keep the
      structural and FIFO-propagation guarantees.
    * The unilateral (Section 6) model keeps sFS2d (the broadcast
      precedes any later message on every FIFO channel) but not sFS2b.
    * The Section 4 skeleton (``generic``) promises neither: it exists to
      probe illegal quorum sizes, where cycles are the *point*.
    * Under **crash-recovery** the sFS guarantees are void (the paper's
      theorems assume crash-stop) but the run must still be well-formed
      under the model's rules, never self-detect, and respect the
      incarnation discipline (``recovery``).
    * Under **byzantine-crash** only the structural guarantees survive:
      the adversary forges nothing with a valid uid, so histories stay
      well-formed, but tampered suspicion traffic voids every sFS bound.
    """
    if scenario.failure_model == "crash-recovery":
        return ("valid", "sFS2c", "recovery")
    if scenario.failure_model == "byzantine-crash":
        return ("valid", "sFS2c")
    base = ("valid", "sFS2c")
    if scenario.protocol in ("sfs", "transitive"):
        if scenario.detector[0] == "none":
            return base + ("sFS2b", "sFS2d", "Conditions1-3")
        return base + ("sFS2d",)
    if scenario.protocol == "unilateral":
        return base + ("sFS2d",)
    return base


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FuzzOutcome:
    """One scenario's verdicts: what tripped, and what that means.

    ``coverage`` carries the monitor-transition labels the run produced
    (see :meth:`~repro.analysis.monitors.MonitorSet.transition_coverage`)
    for the adaptive loop's :class:`~repro.analysis.coverage.CoverageMap`.
    It is deliberately absent from the ``repr``: reprs feed
    :meth:`FuzzReport.digest`, which must keep reproducing historical
    digests byte for byte. The labels are themselves a pure function of
    the history the digest already covers, so hiding them loses nothing.
    """

    index: int
    scenario: Scenario
    events: int
    violations: tuple[tuple[int, str], ...]
    findings: tuple[str, ...]
    coverage: tuple[str, ...] = ()

    def __repr__(self) -> str:
        return (
            f"FuzzOutcome(index={self.index!r}, "
            f"scenario={self.scenario!r}, events={self.events!r}, "
            f"violations={self.violations!r}, findings={self.findings!r})"
        )

    @property
    def ok(self) -> bool:
        """Whether the scenario produced no finding (violations that the
        configuration legitimately allows do not count)."""
        return not self.findings


@dataclass(frozen=True)
class FuzzReport:
    """The full, digest-stable result of one fuzz run."""

    seed: int
    count: int
    outcomes: tuple[FuzzOutcome, ...]

    @property
    def findings(self) -> tuple[tuple[int, str], ...]:
        """Every finding across the run, as ``(scenario index, text)``."""
        return tuple(
            (outcome.index, finding)
            for outcome in self.outcomes
            for finding in outcome.findings
        )

    @property
    def events(self) -> int:
        """Total events recorded across all scenarios."""
        return sum(outcome.events for outcome in self.outcomes)

    def digest(self) -> str:
        """Content hash of the entire run; replays must reproduce it."""
        digest = hashlib.sha256()
        digest.update(repr((self.seed, self.count)).encode())
        for outcome in self.outcomes:
            digest.update(repr(outcome).encode())
        return digest.hexdigest()

    def summary(self) -> str:
        """A compact human-readable rendering for the CLI."""
        by_protocol: dict[str, int] = {}
        tripped: dict[str, int] = {}
        for outcome in self.outcomes:
            by_protocol[outcome.scenario.protocol] = (
                by_protocol.get(outcome.scenario.protocol, 0) + 1
            )
            for _, name in outcome.violations:
                tripped[name] = tripped.get(name, 0) + 1
        lines = [
            f"scenarios: {self.count}  events: {self.events}",
            "protocols: "
            + ", ".join(
                f"{name}={count}" for name, count in sorted(by_protocol.items())
            ),
            "violations observed (legitimate ones included): "
            + (
                ", ".join(
                    f"{name}={count}" for name, count in sorted(tripped.items())
                )
                or "none"
            ),
            f"findings: {len(self.findings)}",
        ]
        for index, finding in self.findings:
            lines.append(f"  ! scenario {index}: {finding}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Driving
# ----------------------------------------------------------------------

DEFAULT_CONFIG = FuzzConfig()
"""The scenario space ``python -m repro fuzz`` draws from by default."""

FUZZ_JOB_KIND = "repro.analysis.fuzz:run_fuzz_job"
"""Entrypoint string fuzz jobs carry (see :mod:`repro.exec.job`)."""

FUZZ_MAX_EVENTS = 500_000
"""Per-scenario livelock valve, identical on every backend."""


SCENARIO_JOB_KIND = "repro.analysis.fuzz:run_scenario_job"
"""Entrypoint string for jobs carrying a *literal* scenario (the
shrinker's candidates and the regression corpus's replays)."""


def scenario_job(
    seed: int,
    index: int,
    config: FuzzConfig,
    weights: AxisWeights | None = None,
) -> JobSpec:
    """The ``index``-th scenario of fuzz run ``seed``, as a frozen job.

    The config rides in ``params`` (a frozen dataclass with
    content-stable repr), so the job — like the scenario — is its own
    reproducer. With ``weights`` the job describes an *adaptive* draw:
    the weights ride in ``params`` too, so the job digest covers them and
    a journaled adaptive result self-validates against the exact
    distribution that produced it.
    """
    params: tuple[tuple[str, object], ...] = (
        ("index", index),
        ("config", config),
    )
    if weights is not None:
        params += (("weights", weights),)
    return JobSpec(
        kind=FUZZ_JOB_KIND,
        spec_id="fuzz",
        seed=seed,
        params=params,
    )


def job_scenario(job: JobSpec) -> Scenario:
    """Materialise the scenario a fuzz job describes."""
    weights = job.param("weights")
    if weights is not None:
        return generate_weighted_scenario(
            job.seed, job.param("index"), job.param("config"), weights
        )
    return generate_scenario(job.seed, job.param("index"), job.param("config"))


def scenario_spec_job(scenario: Scenario) -> JobSpec:
    """A job that runs one fully materialised scenario, verbatim.

    Unlike :func:`scenario_job` there is no generator in the loop: the
    scenario itself rides in ``params`` (its repr is content-stable by
    construction). This is the execution form of "paste the repr back
    in" — the shrinker re-runs mutated candidates through it, and the
    regression corpus replays its entries with it.
    """
    return JobSpec(
        kind=SCENARIO_JOB_KIND,
        spec_id="fuzz-scenario",
        seed=scenario.seed,
        params=(("scenario", scenario),),
    )


# The four runners below import repro.analysis.fuzz_world on their first
# job, so a plan that executes none never loads the simulator.


def run_fuzz_job(job: JobSpec) -> FuzzOutcome:
    """Execution-layer entrypoint: run and judge one scenario, whole.

    This is the serial/parallel/remote form (see
    :func:`repro.analysis.fuzz_world._run_whole`). Module-level so the
    parallel executor can resolve it by name in worker processes.
    """
    from repro.analysis.fuzz_world import _run_whole

    return _run_whole(job_scenario(job))


def _fuzz_job_shard(job: JobSpec):
    """Shard form: lets the ``inproc`` executor run scenarios through
    :class:`~repro.sim.multiworld.ShardedRunner` (see
    :func:`repro.exec.job.shard_form`)."""
    from repro.analysis.fuzz_world import _scenario_shard

    return _scenario_shard(job_scenario(job))


run_fuzz_job.to_shard = _fuzz_job_shard


def run_scenario_job(job: JobSpec) -> FuzzOutcome:
    """Execution-layer entrypoint for literal-scenario jobs."""
    from repro.analysis.fuzz_world import _run_whole

    return _run_whole(job.param("scenario"))


def _scenario_job_shard(job: JobSpec):
    """Shard form of :func:`run_scenario_job`."""
    from repro.analysis.fuzz_world import _scenario_shard

    return _scenario_shard(job.param("scenario"))


run_scenario_job.to_shard = _scenario_job_shard


def run_scenario(scenario: Scenario) -> FuzzOutcome:
    """Run and judge one materialised scenario in this process.

    The convenience form of :func:`run_scenario_job`, through
    :func:`~repro.exec.job.run_job` — so the collector is paused and the
    outcome is bit-identical to what any backend would produce for the
    same scenario.
    """
    return run_job(scenario_spec_job(scenario))

FUZZ_BACKENDS = EXEC_BACKENDS
"""Valid ``backend`` arguments for :func:`run_fuzz` — the execution
layer's registered executors, by reference (one registry, no copies)."""


def _fuzz_executor(
    backend: str | None,
    n_jobs: int,
    runner: ShardedRunner | None,
    jobs: int,
    remote_workers: int | str | Sequence[str] | None,
) -> Executor:
    """The executor both fuzz drivers run on (default ``"inproc"``) and
    close when done; ``n_jobs`` is the largest number of jobs submitted
    at once."""
    if backend is None:
        backend = "inproc"
    if jobs < 1:
        raise SimulationError(f"jobs must be >= 1, got {jobs}")
    if runner is not None and backend not in ("inproc", "parallel"):
        raise SimulationError(
            "a ShardedRunner only drives the 'inproc' backend (and counts "
            f"the 'parallel' pool's shards); drop runner= or "
            f"backend={backend!r}"
        )
    backend = effective_backend(backend, n_jobs, jobs)
    # make_executor rejects unknown backend names.
    return make_executor(
        backend, workers=jobs, runner=runner, remote_workers=remote_workers,
    )


def run_fuzz(
    seed: int,
    count: int,
    config: FuzzConfig = DEFAULT_CONFIG,
    runner: ShardedRunner | None = None,
    backend: str | None = None,
    jobs: int = 1,
    remote_workers: int | str | Sequence[str] | None = None,
    journal: str | Path | None = None,
    resume: bool = False,
    sink: ResultSink | None = None,
) -> FuzzReport:
    """Generate and judge ``count`` scenarios; pure in ``(seed, config)``.

    Scenarios are planned as frozen jobs and executed through
    :mod:`repro.exec`. The default backend is ``"inproc"``: scenarios run
    as shards of a :class:`~repro.sim.multiworld.ShardedRunner` (pass
    ``runner`` to read back :class:`~repro.sim.multiworld.RunnerStats`
    afterwards or to step them differently; the default is the engine's
    own, one world at a time). ``"serial"`` runs each scenario whole in
    this process, ``"parallel"`` fans them out to a pool of ``jobs``
    workers (a passed ``runner``'s stats then count the pool's
    scenarios and scheduler events; its stepping does not apply), and
    ``"remote"`` dispatches them to the worker fleet
    ``remote_workers`` configures (see
    :mod:`repro.exec.remote`) — the report is identical on every
    backend, stepping policy, quantum, and window, because scenarios
    share no state.

    ``journal``/``resume`` checkpoint the run per scenario (a killed fuzz
    run resumes to the same digest), and a ``sink`` streams outcomes in
    index order as the finished prefix grows.
    """
    if count < 0:
        raise SimulationError(f"count must be >= 0, got {count}")
    with _fuzz_executor(
        backend, count, runner, jobs, remote_workers
    ) as executor:
        outcomes = run_jobs(
            [scenario_job(seed, index, config) for index in range(count)],
            executor=executor,
            sink=sink,
            journal=journal,
            resume=resume,
        )
    return FuzzReport(seed=seed, count=count, outcomes=tuple(outcomes))


# ----------------------------------------------------------------------
# Adaptive campaigns
# ----------------------------------------------------------------------

ADAPTIVE_CAMPAIGN_VERSION = 1
"""Folded into every campaign digest; bump on any change to the adaptive
loop's semantics (weight derivation, batch protocol, RNG namespace)."""


def adaptive_campaign_digest(
    seed: int, count: int, batch: int, config: FuzzConfig
) -> str:
    """Content hash of an adaptive campaign's inputs.

    This is what an adaptive campaign's journal header binds to: the
    full job plan is unknown upfront (batch *k*'s jobs depend on batch
    *k-1*'s outcomes), but the campaign inputs determine the whole run,
    so binding to them is binding to the plan.
    """
    return hashlib.sha256(
        repr(
            ("adaptive-fuzz", ADAPTIVE_CAMPAIGN_VERSION, seed, count, batch, config)
        ).encode()
    ).hexdigest()


@dataclass(frozen=True)
class BatchRecord:
    """One adaptive batch's ledger entry: which scenarios it ran and what
    the coverage map looked like after folding them in."""

    batch: int
    start: int
    end: int
    new_features: int
    coverage_digest: str


@dataclass(frozen=True)
class AdaptiveReport:
    """The full, digest-stable result of one adaptive fuzz campaign.

    Wraps the plain :class:`FuzzReport` (same outcomes vocabulary, same
    findings accessors) and adds the coverage ledger: the final
    :class:`~repro.analysis.coverage.CoverageMap` and one
    :class:`BatchRecord` per batch. ``digest()`` covers all of it, so
    "same digest" means the replay reproduced not just the outcomes but
    the entire adaptive trajectory — weights, batches, coverage folds.
    """

    report: FuzzReport
    coverage: CoverageMap
    batches: tuple[BatchRecord, ...]
    batch_size: int

    @property
    def findings(self) -> tuple[tuple[int, str], ...]:
        """Every finding across the campaign (see FuzzReport.findings)."""
        return self.report.findings

    @property
    def outcomes(self) -> tuple[FuzzOutcome, ...]:
        """The per-scenario outcomes, in campaign index order."""
        return self.report.outcomes

    def digest(self) -> str:
        """Content hash of the campaign; replays must reproduce it."""
        digest = hashlib.sha256()
        digest.update(
            repr(("adaptive", ADAPTIVE_CAMPAIGN_VERSION, self.batch_size)).encode()
        )
        digest.update(self.report.digest().encode())
        digest.update(self.coverage.digest().encode())
        for record in self.batches:
            digest.update(repr(record).encode())
        return digest.hexdigest()

    def summary(self) -> str:
        """A compact human-readable rendering for the CLI."""
        lines = [self.report.summary(), self.coverage.summary()]
        lines.append(
            f"batches: {len(self.batches)} of {self.batch_size} scenarios"
        )
        for record in self.batches:
            lines.append(
                f"  batch {record.batch}: scenarios "
                f"{record.start}..{record.end - 1}, "
                f"+{record.new_features} new features"
            )
        return "\n".join(lines)


def run_adaptive_fuzz(
    seed: int,
    count: int,
    config: FuzzConfig = DEFAULT_CONFIG,
    batch: int = 50,
    runner: ShardedRunner | None = None,
    backend: str | None = None,
    jobs: int = 1,
    remote_workers: int | str | Sequence[str] | None = None,
    journal: str | Path | None = None,
    resume: bool = False,
    sink: ResultSink | None = None,
) -> AdaptiveReport:
    """A coverage-guided fuzz campaign; pure in ``(seed, count, batch,
    config)``.

    Scenarios run in fixed-size batches. Batch 0 draws under uniform
    weights (an empty coverage map); before each later batch the
    outcomes so far are folded into a
    :class:`~repro.analysis.coverage.CoverageMap` and
    :func:`~repro.analysis.coverage.derive_weights` turns it into the
    batch's :class:`~repro.analysis.coverage.AxisWeights` — unexplored
    and violation-dense regions of the scenario space get heavier
    sampling. The weights are a pure function of prior outcomes and ride
    inside each job's params, so the campaign replays byte-identically:
    same inputs (or a journal resume from any kill point) produce the
    same scenarios, outcomes, coverage digests, and
    :meth:`AdaptiveReport.digest`, on every backend and stepping policy.

    This function is only the fold; :func:`~repro.exec.core.run_jobs`
    drives it as an unfolding plan, so ``journal``/``resume``, ``sink``
    and ``runner`` behave exactly as in :func:`run_fuzz` (a passed
    ``runner``'s stats cover the whole campaign). The journal header
    binds to :func:`adaptive_campaign_digest`; restored results are
    validated against the recomputed batch jobs, and each batch's
    recorded coverage digest is cross-checked against the resumed fold.
    """
    if count < 0:
        raise SimulationError(f"count must be >= 0, got {count}")
    if batch < 1:
        raise SimulationError(f"batch must be >= 1, got {batch}")

    coverage = CoverageMap()
    batches: list[BatchRecord] = []

    def unfold(outcomes: Sequence[FuzzOutcome]):
        start = batches[-1].end if batches else 0
        end = len(outcomes)
        digest = None
        if end > start:
            before = len(coverage)
            for outcome in outcomes[start:]:
                coverage.add_outcome(outcome)
            digest = coverage.digest()
            batches.append(
                BatchRecord(
                    batch=len(batches),
                    start=start,
                    end=end,
                    new_features=len(coverage) - before,
                    coverage_digest=digest,
                )
            )
        if end == count:
            return digest, None
        weights = derive_weights(config, coverage)
        return digest, [
            scenario_job(seed, index, config, weights=weights)
            for index in range(end, min(count, end + batch))
        ]

    with _fuzz_executor(
        backend, min(batch, count), runner, jobs, remote_workers
    ) as executor:
        outcomes = run_jobs(
            executor=executor,
            sink=sink,
            journal=journal,
            resume=resume,
            unfold=unfold,
            binding=adaptive_campaign_digest(seed, count, batch, config),
            total=count,
        )
    return AdaptiveReport(
        report=FuzzReport(seed=seed, count=count, outcomes=tuple(outcomes)),
        coverage=coverage,
        batches=tuple(batches),
        batch_size=batch,
    )
