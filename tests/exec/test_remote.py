"""Tests for the remote executor: dispatch, failure detection, recovery.

The in-thread deployment shapes (``accept``/``hosts`` with
:func:`run_worker` on a thread) execute jobs in this process, so the
toykind entrypoints resolve via pytest's path; the spawn-mode tests run
real ``python -m repro worker`` subprocesses and use the ``worker_path``
fixture to make toykinds importable there.
"""

import os
import socket
import threading
import time

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
    _WorkerSession,
    parse_worker_spec,
    run_worker,
)

SQUARE = "toykinds:square"
SLOW = "toykinds:slow_square"
BOOM = "toykinds:boom"

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))


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
    """Make the toykind entrypoints importable in spawned workers."""
    existing = os.environ.get("PYTHONPATH", "")
    pieces = [TESTS_DIR] + ([existing] if existing else [])
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(pieces))


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
    def test_spawn_mode_matches_serial(self, worker_path):
        jobs = _plan(10)
        executor = RemoteExecutor(spawn=2, heartbeat_interval=0.1)
        assert run_jobs(jobs, executor=executor) == run_jobs(jobs)
        assert executor.stats.spawned == 2
        for proc in executor.processes:
            assert proc.returncode == 0

    def test_killed_worker_detected_and_share_reassigned(
        self, worker_path
    ):
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

    def test_killed_worker_detected_by_phi_accrual(self, worker_path):
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

    def test_connect_failure_reaps_spawned_workers(
        self, worker_path, monkeypatch
    ):
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
            assert proc.returncode is not None  # terminated and reaped

    def test_all_workers_failing_is_an_error(self, worker_path):
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
