"""Tests for the remote executor: dispatch, failure detection, recovery.

The in-thread deployment shapes (``accept``/``hosts`` with
:func:`run_worker` on a thread) execute jobs in this process, and the
``spawn=N`` workers are processes started from it (forked on Linux), so
in both the toykind entrypoints resolve via pytest's own path. The
entrypoint tests run the real ``python -m repro worker`` command as a
subprocess in both directions (``--listen`` with ``hosts=``,
``--connect`` with ``accept=``) and use the ``worker_path`` fixture to
make ``repro`` and toykinds importable there; so do the fork-hygiene
tests that run the ``fuzz`` command itself.
"""

import multiprocessing
import os
import re
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from pathlib import Path

import pytest

from repro.detectors import HeartbeatMonitor
from repro.errors import SimulationError
from repro.exec import JobSpec, run_jobs
from repro.exec.job import job_digest
from repro.exec.journal import _encode
from repro.exec.remote import (
    RemoteExecutor,
    _dial,
    _parse_hostport,
    _window,
    _WorkerSession,
    parse_worker_spec,
    run_worker,
)

SQUARE = "toykinds:square"
SLOW = "toykinds:slow_square"
BOOM = "toykinds:boom"

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = str(Path(TESTS_DIR).parents[1] / "src")


def _plan(n=6, kind=SQUARE):
    return [JobSpec(kind=kind, spec_id="rm", seed=s) for s in range(n)]


def _free_port() -> int:
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


@pytest.fixture
def worker_path(monkeypatch):
    """Make ``repro`` and the toykind entrypoints importable in
    ``python -m repro ...`` subprocesses."""
    existing = os.environ.get("PYTHONPATH", "")
    pieces = [SRC_DIR, TESTS_DIR] + ([existing] if existing else [])
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(pieces))


def _repro(*argv: str, **kwargs) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, **kwargs,
    )


def _thread_worker(**kwargs) -> threading.Thread:
    thread = threading.Thread(
        target=run_worker, kwargs=kwargs, daemon=True
    )
    thread.start()
    return thread


class TestWorkerSpec:
    def test_none_spawns_default_fleet(self):
        assert parse_worker_spec(None) == {"spawn": 2}

    def test_integer_and_digit_string_spawn(self):
        assert parse_worker_spec(3) == {"spawn": 3}
        assert parse_worker_spec("3") == {"spawn": 3}

    def test_host_list_dials_out(self):
        assert parse_worker_spec("a:1,b:2") == {"hosts": ("a:1", "b:2")}
        assert parse_worker_spec(["h:7700"]) == {"hosts": ("h:7700",)}

    def test_bad_addresses_rejected(self):
        with pytest.raises(SimulationError, match="host:port"):
            parse_worker_spec("nocolon")
        with pytest.raises(SimulationError, match="port"):
            parse_worker_spec("host:xyz")
        with pytest.raises(SimulationError, match="empty"):
            parse_worker_spec([])

    def test_parse_hostport(self):
        assert _parse_hostport("127.0.0.1:7700") == ("127.0.0.1", 7700)
        with pytest.raises(SimulationError, match="host:port"):
            _parse_hostport(":7700")


class TestConstruction:
    def test_exactly_one_mode_required(self):
        with pytest.raises(SimulationError, match="exactly one"):
            RemoteExecutor()
        with pytest.raises(SimulationError, match="exactly one"):
            RemoteExecutor(spawn=2, hosts=("a:1",))

    def test_unknown_detector_rejected(self):
        with pytest.raises(SimulationError, match="detector"):
            RemoteExecutor(spawn=2, detector="oracle")

    def test_bad_interval_rejected(self):
        with pytest.raises(SimulationError, match="heartbeat_interval"):
            RemoteExecutor(spawn=2, heartbeat_interval=0)

    def test_detection_defaults_derive_from_interval(self):
        executor = RemoteExecutor(spawn=2, heartbeat_interval=0.2)
        assert executor.timeout == pytest.approx(2.0)
        assert executor.check_every == pytest.approx(0.1)


class TestInThreadWorkers:
    """accept= and hosts= shapes, with run_worker on threads."""

    def test_accept_mode_round_trip(self):
        port = _free_port()
        thread = _thread_worker(connect=f"127.0.0.1:{port}", name="th0")
        executor = RemoteExecutor(
            accept=1, listen=f"127.0.0.1:{port}", heartbeat_interval=0.1
        )
        assert run_jobs(_plan(5), executor=executor) == [0, 1, 4, 9, 16]
        thread.join(timeout=5)
        assert not thread.is_alive()  # shutdown frame ended the worker
        assert executor.stats.workers == 1
        assert executor.stats.results == 5
        assert executor.stats.failed == []

    def test_hosts_mode_dials_listening_workers(self):
        ports = [_free_port(), _free_port()]
        threads = [
            _thread_worker(listen=f"127.0.0.1:{port}") for port in ports
        ]
        time.sleep(0.2)  # let both workers reach accept()
        executor = RemoteExecutor(
            hosts=tuple(f"127.0.0.1:{port}" for port in ports),
            heartbeat_interval=0.1,
        )
        assert run_jobs(_plan(7), executor=executor) == [
            s * s for s in range(7)
        ]
        for thread in threads:
            thread.join(timeout=5)
            assert not thread.is_alive()
        assert executor.stats.workers == 2

    def test_worker_job_error_propagates_with_names(self):
        port = _free_port()
        _thread_worker(connect=f"127.0.0.1:{port}", name="bomber")
        executor = RemoteExecutor(
            accept=1, listen=f"127.0.0.1:{port}", heartbeat_interval=0.1
        )
        jobs = [JobSpec(kind=BOOM, spec_id="b", seed=1)]
        with pytest.raises(
            SimulationError, match="bomber.*failed job 0"
        ) as info:
            run_jobs(jobs, executor=executor)
        # Not a ReproError: a bug in a runner keeps its traceback.
        assert "Traceback" in str(info.value)
        assert "RuntimeError: boom on seed 1" in str(info.value)

    def test_unreachable_host_is_a_friendly_error(self):
        port = _free_port()  # nothing listens here
        executor = RemoteExecutor(
            hosts=(f"127.0.0.1:{port}",), connect_timeout=0.5
        )
        with pytest.raises(SimulationError, match="cannot reach worker"):
            run_jobs(_plan(2), executor=executor)

    def test_run_worker_validates_its_modes(self):
        with pytest.raises(SimulationError, match="exactly one"):
            run_worker()
        with pytest.raises(SimulationError, match="exactly one"):
            run_worker(connect="a:1", listen="b:2")

    def test_dial_clears_connect_timeout(self):
        # Regression: the 10s dial timeout must not persist into the
        # serve loop, or a worker idle between assign and shutdown dies
        # in _recv_frame and gets falsely suspected.
        server = socket.create_server(("127.0.0.1", 0))
        port = server.getsockname()[1]
        try:
            sock = _dial(f"127.0.0.1:{port}", retry_for=2.0)
            try:
                assert sock.gettimeout() is None
            finally:
                sock.close()
        finally:
            server.close()


class TestSpawnedWorkers:
    def test_spawn_mode_matches_serial(self):
        jobs = _plan(10)
        executor = RemoteExecutor(spawn=2, heartbeat_interval=0.1)
        assert run_jobs(jobs, executor=executor) == run_jobs(jobs)
        assert executor.stats.spawned == 2
        for proc in executor.processes:
            assert proc.exitcode == 0

    def test_killed_worker_detected_and_share_reassigned(self):
        jobs = _plan(9, kind=SLOW)
        killed = []

        def chaos(executor, n_done):
            if n_done == 2 and not killed:
                executor.processes[0].kill()
                killed.append(executor.processes[0].pid)

        executor = RemoteExecutor(
            spawn=3,
            heartbeat_interval=0.05,
            timeout=0.5,
            chaos=chaos,
        )
        assert run_jobs(jobs, executor=executor) == [
            s * s for s in range(9)
        ]
        assert killed
        # The repo's own detector declared the failure and the orphaned
        # share moved to survivors — the run completed regardless.
        assert len(executor.stats.failed) == 1
        assert executor.stats.reassigned > 0
        # The suspicion went through the detector's own log, attributed
        # to the coordinator observer — not an ad-hoc timeout.
        ((_, observer, _target),) = executor.monitor.suspicions
        assert observer == HeartbeatMonitor.COORDINATOR

    def test_killed_worker_detected_by_phi_accrual(self):
        jobs = _plan(9, kind=SLOW)
        killed = []

        def chaos(executor, n_done):
            if n_done == 2 and not killed:
                executor.processes[0].kill()
                killed.append(executor.processes[0].pid)

        executor = RemoteExecutor(
            spawn=3,
            detector="phi",
            heartbeat_interval=0.05,
            threshold=4.0,
            chaos=chaos,
        )
        assert run_jobs(jobs, executor=executor) == [
            s * s for s in range(9)
        ]
        assert len(executor.stats.failed) == 1
        assert executor.stats.reassigned > 0

    def test_connect_failure_reaps_spawned_workers(self, monkeypatch):
        # Regression: a handshake failure must still kill and reap the
        # spawned subprocesses instead of leaking them past submit().
        def bad_handshake(self, sock, deadline):
            raise SimulationError("injected handshake failure")

        monkeypatch.setattr(
            RemoteExecutor, "_handshake", bad_handshake
        )
        executor = RemoteExecutor(spawn=2, heartbeat_interval=0.1)
        with pytest.raises(SimulationError, match="injected handshake"):
            run_jobs(_plan(3), executor=executor)
        assert executor.stats.spawned == 2
        for proc in executor.processes:
            assert proc.exitcode is not None  # terminated and reaped

    def test_all_workers_failing_is_an_error(self):
        jobs = _plan(6, kind=SLOW)

        def chaos(executor, n_done):
            for proc in executor.processes:
                proc.kill()

        executor = RemoteExecutor(
            spawn=2,
            heartbeat_interval=0.05,
            timeout=0.4,
            chaos=chaos,
        )
        with pytest.raises(SimulationError, match="all 2 remote workers"):
            run_jobs(jobs, executor=executor)

    def test_many_top_ups_across_more_workers_than_cores(self):
        # 4 workers and a 5-job window over 300 jobs: each worker is
        # refilled dozens of times, on a machine with fewer cores than
        # workers; every job lands exactly once, none twice.
        jobs = _plan(300)
        executor = RemoteExecutor(spawn=4, heartbeat_interval=0.1)
        assert run_jobs(jobs, executor=executor) == [
            s * s for s in range(300)
        ]
        assert executor.stats.results == 300
        assert executor.stats.duplicates == 0
        assert executor.stats.failed == []

    def test_each_submit_reports_its_own_fleet(self):
        # Regression: processes grew across submits while stats was
        # reset, so a chaos hook's processes[0] named a worker of an
        # earlier batch, long dead.
        executor = RemoteExecutor(spawn=2, heartbeat_interval=0.1)
        first = run_jobs(_plan(4), executor=executor)
        earlier = list(executor.processes)
        second = run_jobs(_plan(4), executor=executor)
        assert first == second == [0, 1, 4, 9]
        assert executor.stats.spawned == len(executor.processes) == 2
        assert not set(executor.processes) & set(earlier)
        assert all(proc.exitcode == 0 for proc in executor.processes)


class _StubChannel:
    """Records the frames a session sends instead of writing a socket."""

    open = True

    def __init__(self):
        self.sent = []

    def send(self, obj):
        self.sent.append(obj)
        return True

    def assigned(self):
        """Indices of every job assigned so far, frame by frame."""
        return [[index for index, _ in f["jobs"]] for f in self.sent]


def _finish(session, index, done):
    """What a landed result does to the dispatch state."""
    session.outstanding.pop(index)
    done[index] = "digest"


class TestTopUp:
    """The dispatch queue: windows, refills and requeues, without wires."""

    def _fleet(self, jobs=10, workers=2):
        executor = RemoteExecutor(spawn=workers)
        sessions = [
            _WorkerSession(peer, f"w{peer}", _StubChannel())
            for peer in range(workers)
        ]
        return executor, sessions, deque(enumerate(_plan(jobs)))

    def test_window_follows_plan_and_fleet_size(self):
        assert _window(1000, 2) == 16
        assert _window(200, 2) == 7
        assert _window(6, 3) == 2
        assert _window(10**6, 64) == 16

    def test_first_windows_are_taken_in_plan_order(self):
        executor, sessions, queue = self._fleet()
        executor._top_up(sessions, queue, {}, window=4)
        assert sessions[0].channel.assigned() == [[0, 1, 2, 3]]
        assert sessions[1].channel.assigned() == [[4, 5, 6, 7]]
        assert [index for index, _ in queue] == [8, 9]

    def test_a_worker_is_refilled_once_half_its_window_drained(self):
        executor, sessions, queue = self._fleet(jobs=12)
        done = {}
        executor._top_up(sessions, queue, done, window=4)
        _finish(sessions[0], 0, done)
        executor._top_up(sessions, queue, done, window=4)
        assert len(sessions[0].channel.sent) == 1  # 3 left: not yet
        _finish(sessions[0], 1, done)
        executor._top_up(sessions, queue, done, window=4)
        assert sessions[0].channel.assigned()[-1] == [8, 9]
        assert sorted(sessions[0].outstanding) == [2, 3, 8, 9]
        assert len(sessions[1].channel.sent) == 1

    def test_a_failed_workers_jobs_go_back_to_the_front(self):
        executor, sessions, queue = self._fleet(jobs=12)
        done = {}
        executor._top_up(sessions, queue, done, window=4)
        _finish(sessions[0], 0, done)
        executor._declare_failed(sessions[0], sessions, queue, done, 4)
        assert executor.stats.failed == ["w0"]
        assert executor.stats.reassigned == 3
        # The survivor's window is full: the orphans wait at the front.
        assert [index for index, _ in queue] == [1, 2, 3, 8, 9, 10, 11]
        for index in (4, 5):
            _finish(sessions[1], index, done)
        # A falsely-suspected worker finishes job 2 after all; it is
        # not dealt again.
        done[2] = "digest"
        executor._top_up(sessions, queue, done, window=4)
        assert sessions[1].channel.assigned()[-1] == [1, 3]
        assert sessions[0].channel.assigned() == [[0, 1, 2, 3]]

    def test_a_failure_with_no_survivor_requeues_nothing(self):
        executor, sessions, queue = self._fleet(workers=1)
        executor._top_up(sessions, queue, {}, window=4)
        executor._declare_failed(sessions[0], sessions, queue, {}, 4)
        assert executor.stats.reassigned == 0
        assert [index for index, _ in queue] == [4, 5, 6, 7, 8, 9]


class TestWorkerCommand:
    """The real ``python -m repro worker`` entrypoint, as a subprocess:
    what ``hosts=`` and ``accept=`` fleets run on other machines."""

    def test_listen_worker_serves_a_hosts_fleet(self, worker_path):
        port = _free_port()
        worker = _repro("worker", "--listen", f"127.0.0.1:{port}")
        jobs = _plan(7)
        try:
            # Nothing announces that the worker has bound its port, and
            # a probe connection would be taken for the coordinator:
            # retry the dial until it is there.
            deadline = time.monotonic() + 20
            while True:
                executor = RemoteExecutor(
                    hosts=(f"127.0.0.1:{port}",), heartbeat_interval=0.1
                )
                try:
                    results = run_jobs(jobs, executor=executor)
                    break
                except SimulationError as exc:
                    if "cannot reach worker" not in str(exc):
                        raise
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.05)
            assert results == run_jobs(jobs)
            assert worker.wait(timeout=10) == 0, worker.stderr.read()
        finally:
            worker.kill()
            worker.communicate()
        assert executor.stats.workers == 1
        assert executor.stats.spawned == 0

    def test_connect_worker_dials_an_accepting_coordinator(
        self, worker_path
    ):
        port = _free_port()
        worker = _repro("worker", "--connect", f"127.0.0.1:{port}")
        jobs = _plan(7)
        try:
            executor = RemoteExecutor(
                accept=1, listen=f"127.0.0.1:{port}", heartbeat_interval=0.1
            )
            assert run_jobs(jobs, executor=executor) == run_jobs(jobs)
            assert worker.wait(timeout=10) == 0, worker.stderr.read()
        finally:
            worker.kill()
            worker.communicate()
        assert executor.stats.workers == 1
        assert executor.stats.failed == []


class TestForkHygiene:
    """A forked worker starts with a copy of everything the coordinator
    holds — buffered output, open files, the listening socket — and must
    leave all of it alone."""

    FUZZ = ("fuzz", "--seed", "0", "--count", "24")
    FLEET = ("--backend", "remote", "--workers", "2")

    def _run(self, *argv, cwd):
        proc = _repro(*argv, cwd=cwd)
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        return out

    @staticmethod
    def _digest(out):
        return re.search(r"^digest=(\S+)$", out, re.M)[1]

    def test_stream_prints_each_scenario_once(self, worker_path, tmp_path):
        out = self._run(*self.FUZZ, *self.FLEET, "--stream", cwd=tmp_path)
        lines = re.findall(r"^\[scenario (\d+)/24\]", out, re.M)
        assert lines == [str(i) for i in range(1, 25)]
        assert out.count("== fuzz seed=0") == 1
        serial = self._run(*self.FUZZ, "--backend", "serial", cwd=tmp_path)
        assert self._digest(out) == self._digest(serial)

    def test_journal_lines_written_once_and_resumed(
        self, worker_path, tmp_path
    ):
        journal = tmp_path / "j.jsonl"
        journaled = (*self.FUZZ, *self.FLEET, "--journal", str(journal))
        out = self._run(*journaled, cwd=tmp_path)
        lines = journal.read_text().splitlines()
        indices = [
            int(m[1]) for m in map(re.compile(r'"index": (\d+)').search,
                                   lines) if m
        ]
        assert sorted(indices) == list(range(24))
        assert len(lines) == 1 + 24  # the header and one line per job
        resumed = self._run(*journaled, "--resume", cwd=tmp_path)
        assert self._digest(resumed) == self._digest(out)
        assert journal.read_text().splitlines() == lines

    def test_no_child_survives_and_the_port_is_released(self):
        port = _free_port()
        rebound = []

        def chaos(executor, n_done):
            # Mid-run, workers alive: the coordinator has closed its
            # listener, and so has every forked copy of it.
            if n_done == 1:
                with socket.create_server(("127.0.0.1", port)):
                    rebound.append(True)

        executor = RemoteExecutor(
            spawn=2, listen=f"127.0.0.1:{port}", heartbeat_interval=0.1,
            chaos=chaos,
        )
        assert run_jobs(_plan(6), executor=executor) == [
            s * s for s in range(6)
        ]
        assert rebound == [True]
        assert multiprocessing.active_children() == []
        assert [proc.exitcode for proc in executor.processes] == [0, 0]
        socket.create_server(("127.0.0.1", port)).close()


class TestFrameHandling:
    """Direct checks of the coordinator's result reconciliation."""

    def _fixture(self):
        jobs = _plan(1)
        executor = RemoteExecutor(spawn=1)
        executor.stats.workers = 1
        session = _WorkerSession(0, "w0", channel=None)
        monitor = HeartbeatMonitor(timeout=1.0)
        monitor.watch(0)
        expected = {0: job_digest(jobs[0])}
        return executor, session, monitor, expected

    def test_agreeing_duplicate_dropped_and_counted(self):
        executor, session, monitor, expected = self._fixture()
        done, got = {}, []
        frame = {
            "kind": "result",
            "index": 0,
            "job": expected[0],
            "data": _encode(0),
        }
        on_result = lambda index, result: got.append((index, result))
        executor._handle_frame(
            session, frame, monitor, done, expected, on_result
        )
        executor._handle_frame(
            session, dict(frame), monitor, done, expected, on_result
        )
        assert got == [(0, 0)]  # the late copy was accepted, not re-emitted
        assert executor.stats.duplicates == 1

    def test_conflicting_duplicate_refused(self):
        executor, session, monitor, expected = self._fixture()
        done, got = {}, []
        frame = {
            "kind": "result",
            "index": 0,
            "job": expected[0],
            "data": _encode(0),
        }
        on_result = lambda index, result: got.append((index, result))
        executor._handle_frame(
            session, frame, monitor, done, expected, on_result
        )
        conflicting = dict(frame, data=_encode(99))
        with pytest.raises(SimulationError, match="disagree"):
            executor._handle_frame(
                session, conflicting, monitor, done, expected, on_result
            )

    def test_job_hash_mismatch_refused(self):
        executor, session, monitor, expected = self._fixture()
        frame = {
            "kind": "result",
            "index": 0,
            "job": "0" * 64,
            "data": _encode(0),
        }
        with pytest.raises(SimulationError, match="hash mismatch"):
            executor._handle_frame(
                session, frame, monitor, {}, expected, lambda i, r: None
            )

    def test_unplanned_index_refused(self):
        executor, session, monitor, expected = self._fixture()
        frame = {
            "kind": "result",
            "index": 7,
            "job": expected[0],
            "data": _encode(0),
        }
        with pytest.raises(SimulationError, match="unplanned index"):
            executor._handle_frame(
                session, frame, monitor, {}, expected, lambda i, r: None
            )

    def test_malformed_data_refused_with_diagnostic(self):
        # Regression: non-string data raised AttributeError from
        # data.encode instead of a SimulationError naming the worker.
        executor, session, monitor, expected = self._fixture()
        for bad in (None, 7, ["x"]):
            frame = {
                "kind": "result",
                "index": 0,
                "job": expected[0],
                "data": bad,
            }
            with pytest.raises(SimulationError, match="w0.*malformed"):
                executor._handle_frame(
                    session, frame, monitor, {}, expected,
                    lambda i, r: None,
                )

    def test_result_frames_count_as_liveness(self):
        executor, session, monitor, expected = self._fixture()
        frame = {
            "kind": "result",
            "index": 0,
            "job": expected[0],
            "data": _encode(0),
        }
        heard_before = monitor._last_heard[0]
        time.sleep(0.01)
        executor._handle_frame(
            session, frame, monitor, {}, expected, lambda i, r: None
        )
        assert monitor._last_heard[0] > heard_before
