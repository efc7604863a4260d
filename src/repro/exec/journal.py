"""JSONL journals: checkpoint/resume for long deterministic runs.

A journal is an append-only JSONL file recording one result line per
completed job, plus a header line binding the file to its *plan* (the
ordered job list, hashed with :func:`repro.exec.job.plan_digest`). Because
every job is a pure function of its spec, a journaled result **is** the
result — resuming a killed run restores the recorded objects bit-for-bit
and re-executes only the jobs with no line, so the merged output (and any
digest over it) is identical to an uninterrupted run's.

File format (one JSON object per line)::

    {"kind": "header", "version": 1, "plan": "<sha256>", "total": N}
    {"kind": "result", "index": 3, "job": "<sha256>", "data": "<base64>"}

``data`` is the pickled result, base64-armoured so the line stays valid
JSON. Pickle is the right serialisation here: journal files are local
checkpoints written and read by the same codebase, the results are the
same frozen dataclasses the subprocess pool already pickles, and exact
object restoration is precisely what digest-identical resume requires.
Journals are not an interchange format; do not load journals from
untrusted sources.

Crash tolerance: every result line is flushed as written, and a load
tolerates a torn final line (the unflushed victim of a kill) by dropping
it. A resume first *rewrites* the file from its salvageable entries —
into a temp file that is fsynced and atomically renamed over the
original, so a kill during the rewrite itself leaves either the old
salvageable journal or the complete new one, never less — and the append
stream after a torn line can never corrupt the journal.

Multi-host readiness: :func:`partition_jobs` deterministically assigns a
case subset to ``(worker_id, n_workers)``, and :func:`merge_journals`
reassembles per-worker journals into one full result list, checking every
entry's job hash against the plan and refusing holes or conflicting
duplicates — so the ``remote`` backend (:mod:`repro.exec.remote`) only
has to ship jobs out and journal lines back.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
from pathlib import Path
from typing import IO, Any, Sequence

from repro import _core
from repro.errors import SimulationError
from repro.exec.job import JobSpec, job_digest, plan_digest

JOURNAL_VERSION = 1


def _encode(result: Any) -> str:
    return base64.b64encode(
        pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def _decode(data: str) -> Any:
    return pickle.loads(base64.b64decode(data.encode("ascii")))


class _RecordLog:
    """The file mechanics both journal kinds share: one line parser and
    validator, one fsync+rename rewrite, one flushed append.

    Subclasses differ only in what the header binds the file to
    (``_BINDING``: a plan digest or a campaign digest, with the words
    ``_REBIND``/``_SCOPE`` use for it in messages) and in whether
    ``coverage`` checkpoint lines are part of the format.
    """

    _BINDING: str
    _REBIND: str  # "written for a different ...; delete it or drop --resume"
    _SCOPE: str  # "... outside the {total}<_SCOPE>"
    _COVERAGE = False

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._fh: IO[str] | None = None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def _read(
        self,
        binding: str,
        total: int,
        jobs: Sequence[JobSpec] | None,
    ) -> tuple[dict[int, tuple[str, str, Any]], dict[int, dict]]:
        """Salvaged lines: ``({index: (job hash, raw data, result)},
        {batch: coverage entry})``; empty on a missing file.

        The header must bind the file to ``binding``; with ``jobs`` each
        entry's job hash is checked against the plan's job at that index
        (a campaign defers that check to its driver). Reads the file in
        one shot and holds no handle afterwards.
        """
        if not self.path.exists():
            return {}, {}
        try:
            lines = self.path.read_text().splitlines()
        except OSError as exc:
            raise SimulationError(
                f"cannot read journal {self.path}: {exc}"
            ) from exc
        cached: dict[int, tuple[str, str, Any]] = {}
        checkpoints: dict[int, dict] = {}
        for lineno, line in enumerate(lines):
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                if lineno == len(lines) - 1:
                    continue  # torn final line: the kill's half-write
                raise SimulationError(
                    f"journal {self.path}: corrupt line {lineno + 1} "
                    "(only the final line may be torn)"
                ) from None
            # Valid JSON is not yet a valid entry: a kill (or a foreign
            # writer) can leave a line that parses but is not an object,
            # lacks fields or carries an undecodable payload. Surface
            # every such case as the same friendly corrupt-line error the
            # parse path gets.
            if not isinstance(entry, dict):
                raise SimulationError(
                    f"journal {self.path}: corrupt line {lineno + 1} "
                    "(not a JSON object)"
                )
            kind = entry.get("kind")
            if lineno == 0:
                if kind != "header":
                    raise SimulationError(
                        f"journal {self.path}: missing header line"
                    )
                if entry.get("version") != JOURNAL_VERSION:
                    raise SimulationError(
                        f"journal {self.path}: unsupported version "
                        f"{entry.get('version')!r}"
                    )
                if entry.get(self._BINDING) != binding:
                    raise SimulationError(
                        f"journal {self.path} was written for a different "
                        f"{self._REBIND}; delete it or drop --resume"
                    )
                continue
            if kind == "coverage" and self._COVERAGE:
                try:
                    batch = entry["batch"]
                    entry["upto"], entry["digest"]
                except KeyError as exc:
                    raise SimulationError(
                        f"journal {self.path}: corrupt line {lineno + 1} "
                        f"(coverage entry missing field {exc.args[0]!r})"
                    ) from None
                if not isinstance(batch, int):
                    raise SimulationError(
                        f"journal {self.path}: corrupt line {lineno + 1} "
                        f"(coverage batch {batch!r} is not an integer)"
                    )
                checkpoints[batch] = entry
                continue
            if kind != "result":
                raise SimulationError(
                    f"journal {self.path}: unknown entry kind {kind!r} "
                    f"on line {lineno + 1}"
                )
            try:
                index = entry["index"]
                job_hash = entry["job"]
                data = entry["data"]
            except KeyError as exc:
                raise SimulationError(
                    f"journal {self.path}: corrupt line {lineno + 1} "
                    f"(result entry missing field {exc.args[0]!r})"
                ) from None
            if not isinstance(index, int) or not 0 <= index < total:
                raise SimulationError(
                    f"journal {self.path}: result index {index!r} outside "
                    f"the {total}{self._SCOPE}"
                )
            if jobs is not None and job_hash != job_digest(jobs[index]):
                raise SimulationError(
                    f"journal {self.path}: job hash mismatch at index "
                    f"{index}; the journal belongs to a different plan"
                )
            try:
                result = _decode(data)
            except Exception as exc:
                raise SimulationError(
                    f"journal {self.path}: corrupt line {lineno + 1} "
                    f"(undecodable payload at index {index}: {exc})"
                ) from None
            if index in cached and data != cached[index][1]:
                raise SimulationError(
                    f"journal {self.path}: conflicting duplicate entries "
                    f"for index {index}"
                )
            cached[index] = (job_hash, data, result)
        return cached, checkpoints

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def _begin(
        self,
        binding: str,
        total: int,
        jobs: Sequence[JobSpec] | None,
        resume: bool,
    ) -> tuple[dict[int, tuple[str, str, Any]], dict[int, dict]]:
        """Open the file for appending; return what :meth:`_read` salvaged.

        With ``resume`` the file is first loaded and validated, then
        rewritten cleanly from its salvageable lines — into a sibling
        temp file that is fsynced and atomically renamed into place, so a
        second kill at any point leaves either the old salvageable file
        or the complete rewrite, never less — and appends never follow a
        torn line. Entries are copied verbatim (no pickle round trip).
        Without ``resume`` any existing file is truncated and the run
        starts fresh.
        """
        cached, checkpoints = (
            self._read(binding, total, jobs) if resume else ({}, {})
        )
        header = {
            "kind": "header",
            "version": JOURNAL_VERSION,
            self._BINDING: binding,
            "total": total,
            # Informational: which event core wrote this file. Results
            # are bit-identical across cores, so resume does not (and
            # must not) validate it — a journal written under one core
            # resumes under the other.
            "core": _core.ACTIVE_IMPL,
        }
        tmp = self.path.with_name(self.path.name + ".rewrite")
        try:
            with tmp.open("w") as fh:
                fh.write(json.dumps(header) + "\n")
                for index in sorted(cached):
                    job_hash, data, _ = cached[index]
                    fh.write(_result_line(index, job_hash, data))
                for batch in sorted(checkpoints):
                    fh.write(json.dumps(checkpoints[batch]) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path)
            self._fh = self.path.open("a")
        except OSError as exc:
            raise SimulationError(
                f"cannot write journal {self.path}: {exc}"
            ) from exc
        return cached, checkpoints

    def _append(self, line: str) -> None:
        """Append one line, flushed so a kill loses at most that line."""
        if self._fh is None:
            raise SimulationError(
                f"journal {self.path} not open; call begin() first"
            )
        try:
            self._fh.write(line)
            self._fh.flush()
        except OSError as exc:
            raise SimulationError(
                f"cannot write journal {self.path}: {exc}"
            ) from exc

    def record(self, index: int, job: JobSpec, result: Any) -> None:
        """Append one completed result; flushed so a kill loses at most
        the line being written."""
        self._append(_result_line(index, job_digest(job), _encode(result)))

    def close(self) -> None:
        """Close the file handle (idempotent)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def _result_line(index: int, job_hash: str, data: str) -> str:
    entry = {"kind": "result", "index": index, "job": job_hash, "data": data}
    return json.dumps(entry) + "\n"


class Journal(_RecordLog):
    """One run's checkpoint file; see the module docstring for format.

    Typical use is through :func:`repro.exec.core.run_jobs`
    (``journal=...``, ``resume=...``); direct use::

        with Journal(path) as journal:
            cached = journal.begin(jobs, resume=True)  # {} on a fresh file
            ... run the jobs not in `cached`, calling journal.record(...)

    A journal is a context manager so the append handle ``begin`` opens
    is closed deterministically on any exit path; ``close()`` remains
    available (and idempotent) for callers managing the lifecycle by
    hand.
    """

    _BINDING = "plan"
    _REBIND = "plan (experiment, seeds, params, or config changed)"
    _SCOPE = "-job plan"

    def load(self, jobs: Sequence[JobSpec]) -> dict[int, Any]:
        """Salvage completed results for this plan; ``{}`` if no file.

        Raises :class:`~repro.errors.SimulationError` if the file exists
        but belongs to a different plan, or an entry's job hash does not
        match the plan's job at that index.
        """
        cached, _ = self._read(plan_digest(jobs), len(jobs), jobs)
        return {index: result for index, (_, _, result) in cached.items()}

    def entries(
        self, jobs: Sequence[JobSpec]
    ) -> dict[int, tuple[str, Any]]:
        """Salvaged entries as ``{index: (raw payload, decoded result)}``.

        The raw payload string is kept alongside the decoded object so
        duplicate detection (here and in :func:`merge_journals`) compares
        the journal's actual bytes. Validation is exactly :meth:`load`'s
        (plan binding, per-entry job hashes, tolerated torn final line).
        """
        cached, _ = self._read(plan_digest(jobs), len(jobs), jobs)
        return {
            index: (data, result)
            for index, (_, data, result) in cached.items()
        }

    def begin(
        self, jobs: Sequence[JobSpec], resume: bool = False
    ) -> dict[int, Any]:
        """Open the journal for appending; return salvaged results.

        ``resume`` validates the file against ``jobs`` first (see
        :meth:`_RecordLog._begin`).
        """
        cached, _ = self._begin(plan_digest(jobs), len(jobs), jobs, resume)
        return {index: result for index, (_, _, result) in cached.items()}


# ----------------------------------------------------------------------
# Campaign journals (adaptive runs, whose plans unfold batch by batch)
# ----------------------------------------------------------------------


class CampaignJournal(_RecordLog):
    """Checkpoint file for runs whose job plan is not known upfront.

    An adaptive fuzz campaign derives batch *k*'s jobs from the coverage
    of batches ``0..k-1`` — there is no full plan to digest at open time,
    so a :class:`Journal` header cannot bind the file. A campaign journal
    binds the header to a *campaign digest* instead (a content hash of
    the campaign inputs — seed, count, batch size, config) and defers
    per-entry job-hash validation to the driver, which recomputes each
    batch's jobs during resume and checks the salvaged entries against
    them (the entries themselves still carry the same
    :func:`~repro.exec.job.job_digest` result lines a plain journal
    uses).

    Extra line kind: after each batch the driver records a **coverage
    checkpoint**, so a resume can cross-check that its recomputed
    coverage fold reproduces the original run's byte for byte::

        {"kind": "coverage", "batch": 2, "upto": 150, "digest": "<sha256>"}

    Crash tolerance is the plain journal's: flushed result lines, a
    tolerated torn final line, and an atomic rewrite on resume.
    """

    _BINDING = "campaign"
    _REBIND = (
        "adaptive campaign (seed, count, batch size, or config changed)"
    )
    _SCOPE = "-scenario campaign"
    _COVERAGE = True

    def begin(
        self, campaign: str, total: int, resume: bool = False
    ) -> tuple[dict[int, tuple[str, Any]], dict[int, dict]]:
        """Open for appending; return salvaged results and checkpoints.

        ``resume`` validates the campaign binding only (see
        :meth:`_RecordLog._begin`): the returned results map is
        ``{index: (job hash, result)}`` and the caller validates each job
        hash when it reconstructs that index's job.
        """
        cached, checkpoints = self._begin(campaign, total, None, resume)
        return (
            {
                index: (job_hash, result)
                for index, (job_hash, _, result) in cached.items()
            },
            checkpoints,
        )

    def record_coverage(self, batch: int, upto: int, digest: str) -> None:
        """Append one batch's coverage checkpoint (flushed)."""
        entry = {
            "kind": "coverage",
            "batch": batch,
            "upto": upto,
            "digest": digest,
        }
        self._append(json.dumps(entry) + "\n")


# ----------------------------------------------------------------------
# Multi-host partition / merge (the remote-dispatch seam)
# ----------------------------------------------------------------------


def partition_jobs(
    jobs: Sequence[JobSpec], worker_id: int, n_workers: int
) -> list[tuple[int, JobSpec]]:
    """Worker ``worker_id``'s strided share of the plan, with indices.

    Strided (round-robin) assignment keeps every worker's finished
    results spread across the whole index range, so the in-order
    streaming prefix at the merge point grows steadily instead of
    stalling on one worker's contiguous block. Deterministic: the
    partition depends only on ``(len(jobs), worker_id, n_workers)``.
    """
    if n_workers < 1:
        raise SimulationError(f"n_workers must be >= 1, got {n_workers}")
    if not 0 <= worker_id < n_workers:
        raise SimulationError(
            f"worker_id must be in [0, {n_workers}), got {worker_id}"
        )
    return [
        (index, job)
        for index, job in enumerate(jobs)
        if index % n_workers == worker_id
    ]


def merge_journals(
    jobs: Sequence[JobSpec], paths: Sequence[str | Path]
) -> list[Any]:
    """Reassemble per-worker journals into the full, ordered result list.

    Every journal is validated against the plan (header digest and
    per-entry job hashes); overlapping entries must agree bit-for-bit;
    a missing index is an error naming it. The returned list is in
    planned order, so any digest over it matches a single-host run's.

    An empty plan with no journals merges to ``[]`` — the degenerate a
    zero-case sweep hands the remote backend.
    """
    if not jobs and not paths:
        return []
    merged: dict[int, tuple[str, Any]] = {}
    for path in paths:
        with Journal(path) as journal:
            if not journal.path.exists():
                raise SimulationError(f"journal {path} does not exist")
            for index, (data, result) in journal.entries(jobs).items():
                if index in merged and merged[index][0] != data:
                    raise SimulationError(
                        f"journals disagree on index {index}; "
                        "refusing to merge"
                    )
                merged[index] = (data, result)
    missing = [i for i in range(len(jobs)) if i not in merged]
    if missing:
        preview = ", ".join(map(str, missing[:5]))
        raise SimulationError(
            f"merge incomplete: {len(missing)} of {len(jobs)} jobs have "
            f"no journaled result (first missing: {preview})"
        )
    return [merged[i][1] for i in range(len(jobs))]
