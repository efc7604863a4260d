"""Tests for the JSONL journal and the remote backend's share function."""

import json

import pytest

from repro.errors import SimulationError
from repro.exec import Journal, JobSpec, plan_digest, run_jobs

SQUARE = "toykinds:square"


def _plan(n=5):
    return [JobSpec(kind=SQUARE, spec_id="sq", seed=s) for s in range(n)]


def _load(path, jobs):
    """The results a journal file holds for ``jobs``, by index."""
    return {
        index: result
        for index, (_, result) in Journal(path).entries(jobs).items()
    }


class TestJournalRoundTrip:
    def test_missing_file_loads_empty(self, tmp_path):
        assert _load(tmp_path / "none.jsonl", _plan()) == {}

    def test_begin_record_load(self, tmp_path):
        jobs = _plan()
        journal = Journal(tmp_path / "j.jsonl")
        assert journal.begin(jobs) == {}
        journal.record(0, jobs[0], 0)
        journal.record(3, jobs[3], 9)
        journal.close()
        assert _load(journal.path, jobs) == {0: 0, 3: 9}

    def test_file_is_jsonl_with_header(self, tmp_path):
        jobs = _plan(2)
        journal = Journal(tmp_path / "j.jsonl")
        journal.begin(jobs)
        journal.record(1, jobs[1], "payload")
        journal.close()
        lines = [json.loads(l) for l in journal.path.read_text().splitlines()]
        assert lines[0]["kind"] == "header"
        assert lines[0]["total"] == 2
        assert lines[1]["kind"] == "result"
        assert lines[1]["index"] == 1

    def test_torn_final_line_is_dropped(self, tmp_path):
        jobs = _plan()
        journal = Journal(tmp_path / "j.jsonl")
        journal.begin(jobs)
        for i in (0, 1, 2):
            journal.record(i, jobs[i], i * i)
        journal.close()
        text = journal.path.read_text()
        journal.path.write_text(text[: len(text) - 20])  # tear the tail
        assert _load(journal.path, jobs) == {0: 0, 1: 1}

    def test_corrupt_middle_line_rejected(self, tmp_path):
        jobs = _plan()
        journal = Journal(tmp_path / "j.jsonl")
        journal.begin(jobs)
        journal.record(0, jobs[0], 0)
        journal.record(1, jobs[1], 1)
        journal.close()
        lines = journal.path.read_text().splitlines()
        lines[1] = lines[1][:10]  # corrupt a non-final line
        journal.path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SimulationError, match="corrupt line"):
            _load(journal.path, jobs)

    def test_valid_json_invalid_entry_rejected_cleanly(self, tmp_path):
        # A line can parse as JSON yet not be a valid entry (a kill that
        # left valid JSON, or a foreign writer); that must surface as
        # the friendly corrupt-line error, not a raw KeyError.
        jobs = _plan()
        journal = Journal(tmp_path / "j.jsonl")
        journal.begin(jobs)
        journal.record(0, jobs[0], 0)
        journal.close()
        good = journal.path.read_text()
        # ... nor, for JSON that is not even an object, an AttributeError.
        for bad in ('{"kind": "result"}', "3", "[]", "null", '"x"'):
            # "{}" keeps the malformed entry off the (tolerated) last line
            journal.path.write_text(good + bad + "\n{}\n")
            with pytest.raises(SimulationError, match="corrupt line 3"):
                _load(journal.path, jobs)
            with pytest.raises(SimulationError, match="corrupt line 3"):
                Journal(journal.path).begin(jobs, resume=True)

    def test_campaign_journal_corrupt_lines_rejected_cleanly(self, tmp_path):
        # A journal opened by (binding, total) — an unfolding plan's —
        # goes through the same parser: the same non-object lines, plus a
        # coverage line whose batch cannot key the checkpoint map or that
        # lacks a field, are the same one-line error.
        jobs = _plan()
        path = tmp_path / "c.jsonl"
        journal = Journal(path)
        journal.open("digest", len(jobs))
        journal.record(0, jobs[0], 0)
        journal.checkpoint(0, 1, "cov")
        journal.close()
        good = path.read_text()
        unhashable = '{"kind": "coverage", "batch": [1], "upto": 1, "digest": ""}'
        for bad in ("3", "[]", "null", '"x"', unhashable):
            path.write_text(good + bad + "\n{}\n")
            with pytest.raises(SimulationError, match="corrupt line 4"):
                Journal(path).open("digest", len(jobs), resume=True)
        path.write_text(good + '{"kind": "coverage", "batch": 1}\n{}\n')
        with pytest.raises(
            SimulationError,
            match=r"corrupt line 4 \(coverage entry missing field 'upto'\)",
        ):
            Journal(path).open("digest", len(jobs), resume=True)
        path.write_text(good)
        journal.open("digest", len(jobs), resume=True)
        assert journal.restored(jobs) == {0: 0}
        journal.checkpoint(0, 1, "cov")  # reproduces the recorded line
        with pytest.raises(SimulationError, match="checkpoint mismatch"):
            journal.checkpoint(0, 1, "drifted")
        journal.close()
        assert path.read_text() == good  # verified, not appended again

    def test_undecodable_payload_rejected_cleanly(self, tmp_path):
        jobs = _plan()
        journal = Journal(tmp_path / "j.jsonl")
        journal.begin(jobs)
        journal.record(1, jobs[1], 1)
        journal.close()
        text = journal.path.read_text().replace(
            '"data": "', '"data": "!!notbase64', 1
        )
        journal.path.write_text(text + "{}\n")
        with pytest.raises(SimulationError, match="undecodable payload"):
            _load(journal.path, jobs)

    def test_non_integer_index_rejected_cleanly(self, tmp_path):
        jobs = _plan()
        journal = Journal(tmp_path / "j.jsonl")
        journal.begin(jobs)
        journal.close()
        with journal.path.open("a") as fh:
            fh.write('{"kind": "result", "index": "0", "job": "x", '
                     '"data": ""}\n{}\n')
        with pytest.raises(SimulationError, match="outside"):
            _load(journal.path, jobs)

    def test_wrong_plan_rejected(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        journal.begin(_plan(5))
        journal.close()
        with pytest.raises(SimulationError, match="different.*plan"):
            _load(journal.path, _plan(4))

    def test_conflicting_duplicate_entries_refused(self, tmp_path):
        jobs = _plan()
        journal = Journal(tmp_path / "j.jsonl")
        journal.begin(jobs)
        journal.record(0, jobs[0], 0)
        journal.record(0, jobs[0], 0)  # an agreeing duplicate is fine
        journal.close()
        assert _load(journal.path, jobs) == {0: 0}
        with Journal(journal.path) as liar:
            liar.begin(jobs, resume=True)
            liar.record(0, jobs[0], 999)  # valid entry, other result
        with pytest.raises(SimulationError, match="conflicting duplicate"):
            _load(journal.path, jobs)

    def test_begin_resume_rewrites_cleanly(self, tmp_path):
        jobs = _plan()
        journal = Journal(tmp_path / "j.jsonl")
        journal.begin(jobs)
        journal.record(2, jobs[2], 4)
        journal.close()
        # Tear the file, then resume: begin() must salvage and rewrite
        # so subsequent appends never follow a torn line.
        with journal.path.open("a") as fh:
            fh.write('{"kind": "result", "ind')
        fresh = Journal(journal.path)
        assert fresh.begin(jobs, resume=True) == {2: 4}
        fresh.record(4, jobs[4], 16)
        fresh.close()
        assert _load(journal.path, jobs) == {2: 4, 4: 16}

    def test_begin_without_resume_truncates(self, tmp_path):
        jobs = _plan()
        journal = Journal(tmp_path / "j.jsonl")
        journal.begin(jobs)
        journal.record(0, jobs[0], 0)
        journal.close()
        fresh = Journal(journal.path)
        assert fresh.begin(jobs, resume=False) == {}
        fresh.close()
        assert _load(journal.path, jobs) == {}

    def test_record_requires_begin(self, tmp_path):
        jobs = _plan(1)
        with pytest.raises(SimulationError, match="not open"):
            Journal(tmp_path / "j.jsonl").record(0, jobs[0], 1)

    def test_resume_rewrite_is_crash_safe(self, tmp_path):
        # The rewrite lands via an fsynced temp file + atomic rename, so
        # immediately after begin(resume=True) — before any append or
        # close — the on-disk file already holds every salvaged entry. A
        # kill at any point during resume loses no checkpoints.
        jobs = _plan()
        journal = Journal(tmp_path / "j.jsonl")
        journal.begin(jobs)
        journal.record(0, jobs[0], 0)
        journal.record(2, jobs[2], 4)
        journal.close()
        resumed = Journal(journal.path)
        assert resumed.begin(jobs, resume=True) == {0: 0, 2: 4}
        # Simulate the kill: no record(), no close(); reread from disk.
        assert _load(journal.path, jobs) == {0: 0, 2: 4}
        assert not journal.path.with_name("j.jsonl.rewrite").exists()

    def test_resume_rewrite_copies_entries_verbatim(self, tmp_path):
        jobs = _plan()
        journal = Journal(tmp_path / "j.jsonl")
        journal.begin(jobs)
        journal.record(1, jobs[1], 1)
        journal.close()
        entry_line = journal.path.read_text().splitlines()[1]
        fresh = Journal(journal.path)
        fresh.begin(jobs, resume=True)
        fresh.close()
        assert entry_line in journal.path.read_text().splitlines()

    def test_journal_path_errors_are_friendly(self, tmp_path):
        jobs = _plan(1)
        # A directory as the journal path.
        with pytest.raises(SimulationError, match="cannot write journal"):
            Journal(tmp_path).begin(jobs)
        # A missing parent directory is an error, not a silent mkdir -p.
        missing = tmp_path / "no" / "such" / "dir" / "j.jsonl"
        with pytest.raises(SimulationError, match="cannot write journal"):
            Journal(missing).begin(jobs)
        assert not (tmp_path / "no").exists()


class TestPublicEntriesApi:
    def test_entries_exposes_raw_and_decoded(self, tmp_path):
        jobs = _plan(3)
        journal = Journal(tmp_path / "j.jsonl")
        journal.begin(jobs)
        journal.record(1, jobs[1], 1)
        journal.close()
        entries = Journal(journal.path).entries(jobs)
        assert set(entries) == {1}
        raw, decoded = entries[1]
        assert decoded == 1
        # The raw payload is the journal line's own data field.
        lines = journal.path.read_text().splitlines()
        assert json.loads(lines[1])["data"] == raw

    def test_context_manager_closes_on_exit(self, tmp_path):
        jobs = _plan(2)
        with Journal(tmp_path / "j.jsonl") as journal:
            journal.begin(jobs)
            journal.record(0, jobs[0], 0)
            assert journal._fh is not None
        assert journal._fh is None

    def test_context_manager_closes_on_error(self, tmp_path):
        jobs = _plan(2)
        with pytest.raises(RuntimeError, match="mid-run"):
            with Journal(tmp_path / "j.jsonl") as journal:
                journal.begin(jobs)
                raise RuntimeError("mid-run")
        assert journal._fh is None
        # The flushed prefix is still a loadable checkpoint.
        assert _load(journal.path, jobs) == {}


class _RecordingSink:
    """A sink that records its lifecycle and can fail on demand."""

    def __init__(self, fail_open=False, fail_emit_at=None):
        self.fail_open = fail_open
        self.fail_emit_at = fail_emit_at
        self.opened = 0
        self.closed = 0
        self.emitted = []

    def open(self, total):
        if self.fail_open:
            raise RuntimeError("sink open failed")
        self.opened += 1

    def emit(self, index, job, result):
        if index == self.fail_emit_at:
            raise RuntimeError(f"sink emit failed at {index}")
        self.emitted.append(index)

    def close(self):
        self.closed += 1


class TestRunJobsLifecycle:
    """Error paths must still close an owned journal (and the sink) —
    for a fixed plan here, for an unfolding one in the subclass below."""

    @staticmethod
    def run(jobs, **kwargs):
        return run_jobs(jobs, **kwargs)

    @pytest.fixture
    def closes(self, monkeypatch):
        record = []
        original = Journal.close

        def spying_close(self):
            record.append(self.path)
            original(self)

        monkeypatch.setattr(Journal, "close", spying_close)
        return record

    def test_job_error_closes_owned_journal(self, tmp_path, closes):
        jobs = _plan(3) + [JobSpec(kind="toykinds:boom", spec_id="sq",
                                   seed=9)]
        path = tmp_path / "j.jsonl"
        with pytest.raises(RuntimeError, match="boom"):
            self.run(jobs, journal=path)
        assert closes == [path]
        # The flushed prefix survives as a resumable checkpoint.
        assert _load(path, jobs) == {0: 0, 1: 1, 2: 4}

    def test_sink_open_error_closes_owned_journal(self, tmp_path, closes):
        sink = _RecordingSink(fail_open=True)
        path = tmp_path / "j.jsonl"
        with pytest.raises(RuntimeError, match="sink open"):
            self.run(_plan(2), sink=sink, journal=path)
        assert closes == [path]
        # close() pairs with a successful open, which never happened.
        assert sink.closed == 0

    def test_sink_emit_error_closes_journal_and_sink(
        self, tmp_path, closes
    ):
        sink = _RecordingSink(fail_emit_at=1)
        path = tmp_path / "j.jsonl"
        with pytest.raises(RuntimeError, match="emit failed"):
            self.run(_plan(3), sink=sink, journal=path)
        assert closes == [path]
        assert sink.closed == 1

    def test_caller_owned_journal_left_open_on_error(self, tmp_path):
        # A Journal object passed in belongs to the caller; run_jobs
        # must not close it even when the run fails.
        jobs = [JobSpec(kind="toykinds:boom", spec_id="b", seed=1)]
        journal = Journal(tmp_path / "j.jsonl")
        with pytest.raises(RuntimeError, match="boom"):
            self.run(jobs, journal=journal)
        assert journal._fh is not None
        journal.close()


class TestRunJobsLifecycleUnfolding(TestRunJobsLifecycle):
    """The same error paths when the plan unfolds two jobs at a time
    (bound to the plan digest so ``_load`` can read the file back)."""

    @staticmethod
    def run(jobs, **kwargs):
        def unfold(results):
            done = len(results)
            checkpoint = f"fold-{done}" if done else None
            return checkpoint, jobs[done:done + 2] or None

        return run_jobs(
            unfold=unfold, binding=plan_digest(jobs), total=len(jobs),
            **kwargs,
        )
