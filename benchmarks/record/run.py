"""Benchmark of record: command-line invocation to final digest.

One client, closed loop: this process starts one ``python -m repro ...``
child at a time, waits for it with ``os.wait4`` (wall, CPU of the child's
whole tree, peak RSS), parses the digest it printed and checks it against
an independent in-process pass over the same plan (:mod:`layers`) and
against ``pins.json``. At most two simulating processes ever run at once
(the two workers of the ``remote`` backend).

The driver's form runs one workload once::

    python3 benchmarks/record/run.py --workload fuzz_default --seed 3 \\
        --seconds 6 --trace 0

and prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0`` (in-process tracing plays no part in
those timings), its per-layer metrics with ``--trace 1``. Without
``--workload`` it runs every workload both ways (each in a process of
its own), prints every metric by name and unit, writes
``out/result.json`` for ``compare.py`` and appends one line per workload
to ``trajectory.jsonl``.

Set-up stages a private copy of ``src/`` under ``out/`` and builds the
compiled core there, so each commit is measured with its own C and the
source tree is never written to; the built extension is cached under
``out/build/`` keyed by the hash of what it was built from.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from statistics import median

import layers
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
SPEC = ROOT / "BENCHMARK.json"

SETUP_REPEATS = 3
CHILD_TIMEOUT = 150.0
NOOP_JOBS = 2000
STARTUP_SAMPLES = 5


class BenchmarkError(Exception):
    """The benchmark itself cannot run here (no source, a broken build)."""


# ----------------------------------------------------------------------
# Environment: which copy of the package is measured, and how it is tagged
# ----------------------------------------------------------------------


@dataclass
class Env:
    src: Path
    scratch: Path
    environ: dict[str, str]
    tags: dict


def _machine() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.partition(":")[2].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model}


def _commit(src: Path) -> str:
    """``git rev-parse HEAD``, or a hash of the source tree where the
    checkout is not a repository (the driver's is not)."""
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                capture_output=True, text=True, timeout=10,
            )
            if done.returncode == 0:
                return done.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.suffix in (".py", ".c"):
            digest.update(path.relative_to(src).as_posix().encode())
            digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:12]


def make_env(src: Path, scratch: Path) -> Env:
    """An environment over the package at ``src``: children (and their
    workers) import it and this directory; tags come from the child that
    reports which core it loaded."""
    environ = dict(os.environ)
    environ["PYTHONPATH"] = os.pathsep.join([str(src), str(HERE)])
    scratch.mkdir(parents=True, exist_ok=True)
    env = Env(src=src, scratch=scratch, environ=environ, tags={})
    child = run_child(env, ["version"])
    found = re.search(r"^event core: (\w+)", child.out, re.M)
    if child.code != 0 or found is None:
        raise BenchmarkError(
            f"'python -m repro version' failed under {src}:\n{child.out}"
        )
    env.tags = {
        "core": found.group(1),
        "python": platform.python_version(),
        "machine": _machine(),
        "commit": _commit(src),
    }
    return env


def _build_key(stage: Path) -> str:
    digest = hashlib.sha256(sys.version.encode())
    digest.update(os.environ.get("REPRO_BUILD_ACCEL", "1").encode())
    for name in ("setup.py", "src/repro/_accel/_ccore.c"):
        digest.update((stage / name).read_bytes())
    return digest.hexdigest()[:16]


def set_up() -> Env:
    """Stage ``src/``, build (or fetch) the compiled core, check that it
    imports, warm it up once, and make the scratch directory."""
    if not (ROOT / "src" / "repro").is_dir() or not SPEC.is_file():
        raise BenchmarkError(
            f"{ROOT} holds no src/repro to measure (or no BENCHMARK.json)"
        )
    stage = OUT / "stage"
    shutil.rmtree(stage, ignore_errors=True)
    shutil.copytree(
        ROOT / "src", stage / "src",
        ignore=shutil.ignore_patterns("__pycache__", "*.so", "*.pyc"),
    )
    for name in ("setup.py", "pyproject.toml"):
        shutil.copy2(ROOT / name, stage / name)

    accel = stage / "src" / "repro" / "_accel"
    cache = OUT / "build" / _build_key(stage)
    if not cache.is_dir():
        # A build that fails leaves the pure core in charge (setup.py
        # warns and carries on); the empty cache entry remembers that.
        subprocess.run(
            [sys.executable, "setup.py", "build_ext", "--inplace"],
            cwd=stage, capture_output=True, timeout=800, check=False,
        )
        cache.mkdir(parents=True)
        for built in accel.glob("*.so"):
            shutil.copy2(built, cache / built.name)
    else:
        for built in cache.glob("*.so"):
            shutil.copy2(built, accel / built.name)

    env = make_env(stage / "src", stage / "scratch")
    warm = run_child(env, ["fuzz", "--seed", "0", "--count", "5"])
    if warm.code != 0 or parse_output(warm.out).digest is None:
        raise BenchmarkError(f"warm-up invocation failed:\n{warm.out}")
    return env


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------


@dataclass
class Child:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    out: str


def run_child(env: Env, words: list[str], module: bool = True) -> Child:
    """Run ``python -m repro <words>`` (or, with ``module=False``, the
    script ``words``) to completion in its own process group, and leave
    nothing of that group behind on any path."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *(["-m", "repro"] if module else []), *words],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env.environ, cwd=env.scratch, start_new_session=True,
    )
    watchdog = threading.Timer(CHILD_TIMEOUT, _kill_group, [proc.pid])
    watchdog.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
    finally:
        watchdog.cancel()
        proc.stdout.close()
        _kill_group(proc.pid)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        code=proc.returncode,
        out=out,
    )


def reference_run(env: Env, *size: str) -> float:
    """Seconds one run of the reference program takes right now."""
    child = run_child(env, [str(HERE / "calibrate.py"), *size], module=False)
    if child.code != 0:
        raise BenchmarkError(f"the reference program failed:\n{child.out}")
    return child.wall


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def surviving_children() -> list[int]:
    """Processes whose parent is this one (there must be none once a run
    is over: pools and remote fleets reap their own)."""
    me = str(os.getpid())
    alive = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rpartition(")")[2].split()
        except OSError:
            continue
        if fields[1] == me and fields[0] != "Z":
            alive.append(int(stat.parent.name))
    return alive


@dataclass
class Parsed:
    digest: str | None
    coverage: str | None
    findings: int
    engine_events: int | None


def parse_output(out: str) -> Parsed:
    def last(pattern: str) -> str | None:
        found = re.findall(pattern, out, re.M)
        return found[-1] if found else None

    engine = last(r"^engine: (\d+) scheduler events")
    return Parsed(
        digest=last(r"\bdigest=([0-9a-f]{64})$"),
        coverage=last(r"^coverage=([0-9a-f]+)$"),
        findings=int(last(r"^findings: (\d+)$") or 0),
        engine_events=int(engine) if engine is not None else None,
    )


# ----------------------------------------------------------------------
# One workload, one seed
# ----------------------------------------------------------------------


class Session:
    """Everything one benchmark process shares across its runs: the
    metric names of ``BENCHMARK.json``, the pins, and the probes that do
    not depend on the workload (measured once, on first use)."""

    def __init__(
        self,
        env: Env,
        out: Path = OUT,
        pins: dict | None = None,
        tiny: bool = False,
        noop_jobs: int = NOOP_JOBS,
        startup_samples: int = STARTUP_SAMPLES,
    ):
        self.env = env
        self.out = out
        self.spec = json.loads(SPEC.read_text())
        if pins is None:
            pins = json.loads((HERE / "pins.json").read_text())
        self.pins = pins
        self.tiny = tiny
        self.noop_jobs = noop_jobs
        self.startup_samples = startup_samples
        self.probe_tracer = layers.Tracer()
        # In-process passes import the measured package and spawn workers
        # that must import it (and noop_job) too.
        sys.path.insert(0, str(env.src))
        os.environ["PYTHONPATH"] = env.environ["PYTHONPATH"]

    def workload(self, name: str) -> Workload:
        workload = WORKLOADS[name]
        return workload.sized_tiny() if self.tiny else workload

    @cached_property
    def executor_costs(self) -> dict[str, float]:
        return layers.probe_executors(self.probe_tracer, self.noop_jobs)

    @cached_property
    def cli_startup(self) -> float:
        return median(
            run_child(self.env, ["version"]).wall
            for _ in range(self.startup_samples)
        )

    # -- the plan's journal ---------------------------------------------

    def journal_path(self, workload: Workload, seed: int) -> Path | None:
        if workload.journal is None:
            return None
        return self.env.scratch / f"{workload.name}-{seed}.jsonl"

    def prepare(self, workload: Workload, seed: int) -> list[str]:
        """Write the journal a resume workload reads (before timing)."""
        if workload.journal != "resume":
            return []
        path = self.journal_path(workload, seed)
        path.unlink(missing_ok=True)
        writer = dataclasses.replace(workload, journal="write")
        child = run_child(self.env, writer.argv(seed, path))
        if child.code != 0:
            return [f"journal write before resume failed:\n{child.out}"]
        return []

    # -- correctness ----------------------------------------------------

    def check(
        self, workload: Workload, seed: int, staged: layers.Pass,
        children: list[Child],
    ) -> dict:
        """``attempted``, ``failed`` and ``problems`` over the given
        invocations.

        A job fails when it has a finding, or when its invocation exits
        non-zero, prints no digest, or prints one that differs from the
        staged pass; a pin the staged pass misses fails every job.
        """
        jobs = workload.jobs
        engine = staged.counts["engine_events"]
        problems = []
        pin = self.pins.get(workload.name, {}).get(str(seed), {})
        mine = {"digest": staged.digest, "coverage": staged.coverage,
                "engine_events": engine}
        for key, want in pin.items():
            if mine[key] != want:
                problems.append(
                    f"in-process {key} {mine[key]} differs from the pin {want}"
                )
        if staged.findings:
            problems.append(f"{staged.findings} jobs with findings in-process")
        whole_run_wrong = bool(problems)
        failed = 0
        for child in children:
            parsed = parse_output(child.out)
            wrong = None
            if child.code != 0:
                wrong = f"exit code {child.code}"
            elif parsed.digest != staged.digest:
                wrong = (f"digest {parsed.digest} differs from the "
                         f"in-process {staged.digest}")
            elif parsed.coverage != staged.coverage:
                wrong = f"coverage digest {parsed.coverage} differs"
            elif parsed.engine_events not in (None, engine):
                wrong = (f"{parsed.engine_events} engine events, "
                         f"{engine} in-process")
            if wrong is not None:
                problems.append(f"invocation: {wrong}")
            if wrong is not None or whole_run_wrong:
                failed += jobs
            else:
                failed += min(jobs, parsed.findings)
        return {"attempted": jobs * len(children), "failed": failed,
                "problems": problems}

    # -- the two kinds of run -------------------------------------------

    def end_to_end(
        self, name: str, seed: int, seconds: float, setup_s: float
    ) -> dict:
        """Timed invocations for ``seconds`` (at least one), then the
        untimed in-process pass they are checked against."""
        workload = self.workload(name)
        unprepared = self.prepare(workload, seed)
        words = workload.argv(seed, self.journal_path(workload, seed))
        children = []
        size = ["3000"] if self.tiny else []
        references = [reference_run(self.env, *size)]
        started = time.perf_counter()
        while not children or time.perf_counter() - started < seconds:
            children.append(run_child(self.env, words))
            references.append(reference_run(self.env, *size))
        staged = layers.staged_pass(layers.Tracer(), workload, seed)
        verdict = self.check(workload, seed, staged, children)
        verdict["problems"] += unprepared
        wall = median(c.wall for c in children)
        cpu = median(c.cpu for c in children)
        engine = staged.counts["engine_events"]
        # Each invocation against the reference runs on either side of it.
        per_ref = median(
            engine * (before + after) / 2 / child.wall
            for child, before, after
            in zip(children, references, references[1:])
        )
        values = {
            "engine_events_per_ref": (per_ref, "events/ref"),
            "peak_rss_mb": (median(c.rss_mb for c in children), "MB"),
            "setup_s": (setup_s, "s"),
            # Not in BENCHMARK.json: raw times move with the machine's
            # mood and with how large the seed's plan happens to be, so
            # they are compared pair by pair (compare.py), not by their
            # median over seeds as the driver would.
            "reference_s": (median(references), "s"),
            "wall_s": (wall, "s"),
            "cpu_s": (cpu, "s"),
            "jobs_per_s": (workload.jobs / wall, "jobs/s"),
            "engine_events_per_s": (engine / wall, "events/s"),
            "cpu_us_per_engine_event": (1e6 * cpu / engine, "us"),
        }
        return self._result(
            name, seed, 0, verdict, values, staged,
            counts=dict(staged.counts), samples=len(children),
        )

    def traced(self, name: str, seed: int) -> dict:
        """One invocation, the staged pass with its spans, the one-call
        API on the workload's backend and on the serial one, and the
        standalone probes; writes ``trace.json`` under ``out``."""
        workload = self.workload(name)
        unprepared = self.prepare(workload, seed)
        journal = self.journal_path(workload, seed)
        child = run_child(self.env, workload.argv(seed, journal))
        tracer = layers.Tracer()
        staged = layers.staged_pass(tracer, workload, seed)
        verdict = self.check(workload, seed, staged, [child])
        verdict["problems"] += unprepared
        backend_run = layers.api_run(workload, seed, workload.backend, journal)
        serial_run = layers.api_run(workload, seed, "serial")
        for run in (backend_run, serial_run):
            if run.digest != staged.digest:
                verdict["problems"].append(f"API digest {run.digest} differs")
                verdict["failed"] = verdict["attempted"]
        journal_bytes = layers.probe_journal(
            tracer, self.env.scratch / "probe.jsonl", staged
        )
        values = layers.layer_metrics(
            tracer, workload, staged, journal_bytes, self.executor_costs,
            child.wall, self.cli_startup, backend_run, serial_run,
        )
        self.out.mkdir(exist_ok=True)
        (self.out / "trace.json").write_text(
            json.dumps({"workload": name, "seed": seed,
                        "tags": self.env.tags,
                        "spans": tracer.dump(),
                        "probes": self.probe_tracer.dump()})
        )
        counts = dict(staged.counts, journal_bytes=journal_bytes)
        return self._result(
            name, seed, 1, verdict, values, staged, counts=counts, samples=1,
        )

    def _result(
        self, name, seed, trace, verdict, values, staged, counts, samples
    ) -> dict:
        return {
            "workload": name,
            "seed": seed,
            "trace": trace,
            "tags": self.env.tags,
            "correct": not verdict["problems"] and verdict["failed"] == 0,
            **verdict,
            "samples": samples,
            "digest": staged.digest,
            "coverage": staged.coverage,
            "counts": counts,
            "metrics": {
                key: {"value": value, "unit": unit}
                for key, (value, unit) in values.items()
            },
        }

    def contract_line(self, result: dict) -> str:
        """The result as the driver reads it: exactly the metrics
        ``BENCHMARK.json`` names for this kind of run."""
        kind = "per_layer" if result["trace"] else "end_to_end"
        names = [metric["name"] for metric in self.spec[kind]]
        return json.dumps({
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: result["metrics"][name] for name in names},
        })


def print_result(result: dict) -> None:
    print(f"== {result['workload']} seed={result['seed']} "
          f"trace={result['trace']} samples={result['samples']} "
          f"failed={result['failed']}/{result['attempted']} ==")
    for name, metric in result["metrics"].items():
        print(f"  {name:<40} {metric['value']:>16.6g} {metric['unit']}")
    for problem in result["problems"]:
        print(f"  !! {problem}")


def timed_set_up(repeats: int) -> tuple[Env, float]:
    """Set up ``repeats`` times; the median is ``setup_s`` (the first
    set-up in a checkout also builds, which the median leaves out)."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        env = set_up()
        times.append(time.perf_counter() - started)
    return env, median(times)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="one workload, the driver's form (default: "
                             "every workload, both ways)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long to keep starting timed invocations "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1,
                        help="full run only: this many seeds from --seed")
    parser.add_argument("--out", type=Path, default=OUT / "result.json",
                        help="where the full results go (for compare.py)")
    args = parser.parse_args(argv)
    if args.workload is None:
        return full_run(args)

    try:
        env, setup_s = timed_set_up(1 if args.trace else SETUP_REPEATS)
    except BenchmarkError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    session = Session(env)
    if args.trace:
        result = session.traced(args.workload, args.seed)
    else:
        seconds = args.seconds
        if seconds is None:
            seconds = session.spec["run_seconds"]
        result = session.end_to_end(args.workload, args.seed, seconds, setup_s)
    print_result(result)
    code = report(session, [result], contract=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({"tags": env.tags, "runs": [result]}))
    return code


def full_run(args: argparse.Namespace) -> int:
    """Every workload, end to end and traced, each in a process of its
    own exactly as the driver runs it. (Not in this process: a child
    forked from a parent that has grown reports the parent's peak RSS as
    its own.)"""
    runs = []
    single = OUT / "single.json"
    with (HERE / "trajectory.jsonl").open("a") as trajectory:
        for seed in range(args.seed, args.seed + args.runs):
            for name in WORKLOADS:
                pair = []
                for trace in ("0", "1"):
                    words = [sys.executable, __file__, "--workload", name,
                             "--seed", str(seed), "--trace", trace,
                             "--out", str(single)]
                    if args.seconds is not None:
                        words += ["--seconds", str(args.seconds)]
                    if subprocess.run(words, check=False).returncode == 2:
                        return 2
                    pair += json.loads(single.read_text())["runs"]
                runs += pair
                trajectory.write(json.dumps(trajectory_line(*pair)) + "\n")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({"tags": runs[0]["tags"], "runs": runs}))
    return 0 if all(run["correct"] for run in runs) else 1


def trajectory_line(end_to_end: dict, traced: dict) -> dict:
    """One workload and seed of a full run: tags, the end-to-end metrics
    and the layer table, in one appended line."""
    keep = ("workload", "seed", "tags", "digest", "coverage")
    line = {key: end_to_end[key] for key in keep}
    line["correct"] = end_to_end["correct"] and traced["correct"]
    line["attempted"] = end_to_end["attempted"]
    line["failed"] = end_to_end["failed"]
    line["samples"] = end_to_end["samples"]
    line["counts"] = traced["counts"]
    line["end_to_end"] = end_to_end["metrics"]
    line["layers"] = traced["metrics"]
    return line


def report(session: Session, results: list[dict], contract: bool) -> int:
    """Close a run: nothing this process started may still be alive; with
    ``contract`` the last line printed is the driver's JSON object.
    Returns the exit code (1 when any result is not correct)."""
    leaked = surviving_children()
    if leaked:
        problem = f"child processes survived the run: {leaked}"
        print(f"  !! {problem}")
        results[-1]["problems"].append(problem)
        results[-1]["correct"] = False
    if contract:
        print(session.contract_line(results[-1]))
    return 0 if all(result["correct"] for result in results) else 1


if __name__ == "__main__":
    sys.exit(main())
