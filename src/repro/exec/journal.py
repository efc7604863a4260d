"""JSONL journals: checkpoint/resume for long deterministic runs.

A journal is an append-only JSONL file recording one result line per
completed job, plus a header line binding the file to its *plan*: the
ordered job list hashed with :func:`repro.exec.job.plan_digest`, or — for
a plan that unfolds batch by batch (an adaptive fuzz campaign, whose batch
*k* is derived from the results of batch *k-1*) — a content hash of the
inputs that determine every batch. Because every job is a pure function
of its spec, a journaled result **is** the result — resuming a killed run
restores the recorded objects bit-for-bit and re-executes only the jobs
with no line, so the merged output (and any digest over it) is identical
to an uninterrupted run's.

File format (one JSON object per line)::

    {"kind": "header", "version": 1, "plan": "<sha256>", "total": N}
    {"kind": "result", "index": 3, "job": "<sha256>", "data": "<base64>"}
    {"kind": "coverage", "batch": 2, "upto": 150, "digest": "<sha256>"}

``coverage`` lines are the checkpoints an unfolding plan leaves after
each batch (see :meth:`Journal.checkpoint`); a fixed plan writes none.

``data`` is the pickled result, base64-armoured so the line stays valid
JSON. Pickle is the right serialisation here: journal files are local
checkpoints written and read by the same codebase, the results are the
same frozen dataclasses the subprocess pool already pickles, and exact
object restoration is precisely what digest-identical resume requires.
Journals are not an interchange format; do not load journals from
untrusted sources.

Crash tolerance: every result line is flushed as written, and a load
tolerates a torn final line (the unflushed victim of a kill) by dropping
it. A resume whose read dropped nothing — no torn final line, and the
file ends in ``\\n`` — appends to the file as it stands. Only when salvage
dropped something does a resume *rewrite* the file from its salvageable
entries — into a temp file that is fsynced and atomically renamed over
the original, so a kill during the rewrite itself leaves either the old
salvageable journal or the complete new one, never less — so the append
stream never follows a torn line and can never corrupt the journal. The
header's ``core`` field is informational and names the event core that
created the file: an appending resume keeps the header it found.

Multi-host runs go through the ``remote`` backend
(:mod:`repro.exec.remote`), whose workers stream journal-shaped lines
back to a coordinator that records them here as they land, in arrival
order — the same file a single-host run writes.
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


def _result_line(index: int, job_hash: str, data: str) -> str:
    entry = {"kind": "result", "index": index, "job": job_hash, "data": data}
    return json.dumps(entry) + "\n"


class Journal:
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

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._fh: IO[str] | None = None
        # What the last open() salvaged: {index: (job hash, raw data,
        # result)} and {batch: coverage entry}.
        self._salvaged: dict[int, tuple[str, str, Any]] = {}
        self._checkpoints: dict[int, dict] = {}

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def _read(
        self, binding: str, total: int
    ) -> tuple[dict[int, tuple[str, str, Any]], dict[int, dict], bool]:
        """Salvaged lines: ``({index: (job hash, raw data, result)},
        {batch: coverage entry}, clean)``; empty on a missing file.

        ``clean`` says the read dropped nothing: the file exists, ends in
        ``\\n`` and has no torn final line, so a line appended to it
        starts a line of its own. The header must bind the file to
        ``binding``; per-entry job hashes are checked by
        :meth:`_validated` once the jobs at those indices are known.
        Reads the file in one shot and holds no handle afterwards.
        """
        if not self.path.exists():
            return {}, {}, False
        try:
            # Lines keep their "\n" (JSON ignores it), so the file's text
            # is not held alongside them while the results decode.
            lines = self.path.read_text().splitlines(keepends=True)
        except OSError as exc:
            raise SimulationError(
                f"cannot read journal {self.path}: {exc}"
            ) from exc
        clean = bool(lines) and lines[-1].endswith("\n")
        cached: dict[int, tuple[str, str, Any]] = {}
        checkpoints: dict[int, dict] = {}

        def corrupt(detail: str) -> SimulationError:
            return SimulationError(
                f"journal {self.path}: corrupt line {lineno + 1} ({detail})"
            )

        for lineno, line in enumerate(lines):
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                if lineno == len(lines) - 1:
                    clean = False
                    continue  # torn final line: the kill's half-write
                raise corrupt("only the final line may be torn") from None
            # Valid JSON is not yet a valid entry: a kill (or a foreign
            # writer) can leave a line that parses but is not an object,
            # lacks fields or carries an undecodable payload. Surface
            # every such case as the same friendly corrupt-line error the
            # parse path gets.
            if not isinstance(entry, dict):
                raise corrupt("not a JSON object")
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
                if entry.get("plan") != binding:
                    raise SimulationError(
                        f"journal {self.path} was written for a different "
                        "plan (experiment, seeds, params, or config "
                        "changed); delete it or drop --resume"
                    )
                continue
            if kind == "coverage":
                try:
                    batch = entry["batch"]
                    entry["upto"], entry["digest"]
                except KeyError as exc:
                    raise corrupt(
                        f"coverage entry missing field {exc.args[0]!r}"
                    ) from None
                if not isinstance(batch, int):
                    raise corrupt(
                        f"coverage batch {batch!r} is not an integer"
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
                raise corrupt(
                    f"result entry missing field {exc.args[0]!r}"
                ) from None
            if not isinstance(index, int) or not 0 <= index < total:
                raise SimulationError(
                    f"journal {self.path}: result index {index!r} outside "
                    f"the {total}-job plan"
                )
            try:
                result = _decode(data)
            except Exception as exc:
                raise corrupt(
                    f"undecodable payload at index {index}: {exc}"
                ) from None
            if index in cached and data != cached[index][1]:
                raise SimulationError(
                    f"journal {self.path}: conflicting duplicate entries "
                    f"for index {index}"
                )
            cached[index] = (job_hash, data, result)
        return cached, checkpoints, clean

    def _validated(
        self,
        cached: dict[int, tuple[str, str, Any]],
        jobs: Sequence[JobSpec],
        start: int = 0,
    ) -> dict[int, tuple[str, Any]]:
        """The entries of ``cached`` at the indices ``jobs`` occupies
        (``start`` onwards), as ``{index: (raw data, result)}``, each
        job hash checked against the job planned at that index."""
        matched: dict[int, tuple[str, Any]] = {}
        for index, job in enumerate(jobs, start):
            if index not in cached:
                continue
            job_hash, data, result = cached[index]
            if job_hash != job_digest(job):
                raise SimulationError(
                    f"journal {self.path}: job hash mismatch at index "
                    f"{index}; the journal belongs to a different plan; "
                    "delete it or drop --resume"
                )
            matched[index] = (data, result)
        return matched

    def entries(
        self, jobs: Sequence[JobSpec]
    ) -> dict[int, tuple[str, Any]]:
        """Salvaged entries as ``{index: (raw payload, decoded result)}``;
        ``{}`` if there is no file.

        The raw payload string is kept alongside the decoded object so a
        caller comparing journals compares their actual bytes. Raises
        :class:`~repro.errors.SimulationError` if the file exists but
        belongs to a different plan, or an entry's job hash does not
        match the plan's job at that index; tolerates a torn final line.
        """
        cached, _, _ = self._read(plan_digest(jobs), len(jobs))
        return self._validated(cached, jobs)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def open(self, binding: str, total: int, resume: bool = False) -> None:
        """Open the file for appending, bound to ``binding``.

        With ``resume`` the file is first loaded and validated. If the
        read dropped nothing (see :meth:`_read`) the file is opened for
        appending as it stands: a complete journal resumes at the cost
        of reading it. Otherwise it is rewritten cleanly from its
        salvageable lines — into a sibling temp file that is fsynced and
        atomically renamed into place, so a second kill at any point
        leaves either the old salvageable file or the complete rewrite,
        never less — and appends never follow a torn line. Entries are
        copied verbatim (no pickle round trip). What was salvaged is
        handed out by :meth:`restored` as the jobs at those indices
        become known. Without ``resume`` any existing file is truncated
        and the run starts fresh.
        """
        self._salvaged, self._checkpoints, clean = (
            self._read(binding, total) if resume else ({}, {}, False)
        )
        if clean:
            try:
                self._fh = self.path.open("a")
            except OSError as exc:
                raise SimulationError(
                    f"cannot write journal {self.path}: {exc}"
                ) from exc
            return
        header = {
            "kind": "header",
            "version": JOURNAL_VERSION,
            "plan": binding,
            "total": total,
            # Informational: which event core created this file (a clean
            # resume appends under the header it found). Results are
            # bit-identical across cores, so resume does not (and must
            # not) validate it — a journal written under one core resumes
            # under the other.
            "core": _core.ACTIVE_IMPL,
        }
        tmp = self.path.with_name(self.path.name + ".rewrite")
        try:
            with tmp.open("w") as fh:
                fh.write(json.dumps(header) + "\n")
                for index in sorted(self._salvaged):
                    job_hash, data, _ = self._salvaged[index]
                    fh.write(_result_line(index, job_hash, data))
                for batch in sorted(self._checkpoints):
                    fh.write(json.dumps(self._checkpoints[batch]) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path)
            self._fh = self.path.open("a")
        except OSError as exc:
            raise SimulationError(
                f"cannot write journal {self.path}: {exc}"
            ) from exc

    def restored(
        self, jobs: Sequence[JobSpec], start: int = 0
    ) -> dict[int, Any]:
        """Results :meth:`open` salvaged for the contiguous ``jobs``
        planned at ``start`` onwards, job hashes checked."""
        matched = self._validated(self._salvaged, jobs, start)
        return {index: result for index, (_, result) in matched.items()}

    def begin(
        self, jobs: Sequence[JobSpec], resume: bool = False
    ) -> dict[int, Any]:
        """:meth:`open` for a plan known upfront; returns the salvaged
        results (``{}`` on a fresh file)."""
        self.open(plan_digest(jobs), len(jobs), resume)
        return self.restored(jobs)

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

    def checkpoint(self, batch: int, upto: int, digest: str) -> None:
        """One batch's checkpoint of an unfolding plan: ``digest`` is the
        driver's fold over results ``0..upto-1``.

        Recorded (flushed) on a fresh batch; on a batch the resumed file
        already checkpointed it must reproduce the recorded line, so a
        resume whose recomputed fold drifted is refused, not continued.
        """
        seen = self._checkpoints.get(batch)
        if seen is None:
            entry = {
                "kind": "coverage",
                "batch": batch,
                "upto": upto,
                "digest": digest,
            }
            self._append(json.dumps(entry) + "\n")
        elif seen["digest"] != digest or seen["upto"] != upto:
            raise SimulationError(
                f"journal {self.path}: coverage checkpoint mismatch at "
                f"batch {batch}; the resumed fold does not reproduce the "
                "original run (code or config drift); delete the journal "
                "or drop --resume"
            )

    def close(self) -> None:
        """Close the file handle (idempotent)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None
