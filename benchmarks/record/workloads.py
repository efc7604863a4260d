"""The workloads of record: what each one runs.

A workload is one ``python -m repro ...`` command line generated from a
seed. The program under test sees only that command line; the in-process
pass (:mod:`layers`) regenerates the same plan from the fields below.
Sizes are fixed here (``BENCHMARK.json`` admits no extra keys) and are
part of the workload's identity: changing one changes every exact count
and every pinned digest. Why each workload is here is recorded in
``BENCHMARK.json`` and in the README.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    """One row of the benchmark.

    ``planner`` picks the in-process pipeline (``fuzz``, ``adaptive`` or
    ``sweep``); ``jobs`` is the number of planned jobs (scenarios or sweep
    cases); ``config`` are the ``FuzzConfig`` fields the command line
    changes and ``flags`` the matching command-line words. ``backend`` is
    the executor the command line selects (fuzz defaults to ``inproc``,
    sweep to ``serial``). ``journal`` is ``"write"`` for a run that
    records a journal and ``"resume"`` for one that restores every job
    from a journal written before timing starts.
    """

    name: str
    planner: str
    jobs: int
    backend: str
    flags: tuple[str, ...] = ()
    config: tuple[tuple[str, object], ...] = ()
    batch: int = 50
    sweep_n: int = 64
    journal: str | None = None
    tiny: dict = field(default_factory=dict, compare=False)

    def argv(self, seed: int, journal_path: str | None = None) -> list[str]:
        """The words after ``python -m repro`` for this seed."""
        if self.planner == "sweep":
            # The trailing comma keeps a one-seed list a list: a bare
            # integer means "that many seeds" to the sweep CLI.
            seeds = "".join(f"{seed + k}," for k in range(self.jobs))
            words = ["sweep", "e7", "--seeds", seeds,
                     "--param", f"n={self.sweep_n}"]
        else:
            words = ["fuzz", "--seed", str(seed), "--count", str(self.jobs)]
            if self.planner == "adaptive":
                words += ["--adaptive", "--batch", str(self.batch)]
        words += self.flags
        if self.journal is not None:
            words += ["--journal", str(journal_path)]
            if self.journal == "resume":
                words.append("--resume")
        return words

    def sized_tiny(self) -> "Workload":
        """The same workload at self-test size."""
        return dataclasses.replace(self, **self.tiny)


_NO_DETECTORS = (("detectors", ("none",)),)
_JOURNALED = ("--detectors", "none", "--backend", "serial")

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("fuzz_default", "fuzz", 1000, "inproc",
                 tiny={"jobs": 12}),
        Workload("fuzz_small_worlds", "fuzz", 2500, "inproc",
                 flags=("--detectors", "none"), config=_NO_DETECTORS,
                 tiny={"jobs": 30}),
        Workload("fuzz_recovery", "fuzz", 180, "inproc",
                 flags=("--failure-model", "crash-recovery"),
                 config=(("failure_model", "crash-recovery"),),
                 tiny={"jobs": 8}),
        Workload("sweep_large_n", "sweep", 22, "serial",
                 tiny={"jobs": 2, "sweep_n": 8}),
        Workload("fuzz_adaptive", "adaptive", 350, "inproc",
                 tiny={"jobs": 12, "batch": 5}),
        # Same plan as fuzz_default, so the difference is the backend.
        Workload("fuzz_remote", "fuzz", 1000, "remote",
                 flags=("--backend", "remote", "--workers", "2"),
                 tiny={"jobs": 12}),
        # The two sides of the journal codec share one plan: the write
        # side is fuzz_small_worlds work plus one line per job, the read
        # side restores all of it and simulates nothing.
        Workload("journal_roundtrip", "fuzz", 2500, "serial",
                 flags=_JOURNALED, config=_NO_DETECTORS, journal="write",
                 tiny={"jobs": 30}),
        Workload("journal_resume", "fuzz", 2500, "serial",
                 flags=_JOURNALED, config=_NO_DETECTORS, journal="resume",
                 tiny={"jobs": 30}),
    )
}
