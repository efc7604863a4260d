"""Multi-host dispatch: the ``remote`` executor and its worker loop.

This backend is the repository dogfooding its own subject matter. The
paper asks how a system can *simulate* fail-stop — reliable failure
detection — over an asynchronous network where perfect detection is
impossible; a fleet coordinator shipping jobs to worker processes faces
exactly that problem. So the coordinator here watches its workers with
the repo's own detectors (:class:`~repro.detectors.HeartbeatMonitor` /
:class:`~repro.detectors.PhiAccrualMonitor`, the wall-clock face of the
DES drivers, via the :class:`~repro.detectors.base.ClockSource` seam),
and treats suspicion the way the paper says it must be treated: as a
possibly-erroneous verdict. A worker declared failed has its unfinished
jobs reassigned to survivors; if the suspicion was false and the worker's
late results still arrive, they are *accepted* — jobs are pure functions
of their specs, so duplicates are bit-identical and safe to reconcile
(the same property that lets a journal hold agreeing duplicate lines).

Topology and protocol::

    coordinator (RemoteExecutor.submit)          worker (run_worker)
        bind + accept / dial out  ◀── TCP ──▶  connect= / listen=
        ── welcome {version, heartbeat_interval} ──▶
        ◀── hello {version, name, pid} ──           (worker speaks first)
        ── assign {jobs: [[index, pickled spec], ...]} ──▶   (per top-up)
        ◀── result {index, job: sha256, data: b64} ──   (streamed per job)
        ◀── heartbeat {n} ──                (background thread, interval)
        ── shutdown ──▶

Every frame is one JSON object behind a 4-byte big-endian length prefix.
Job specs and results travel pickled and base64-armoured — the exact
encoding of a journal line, because a result frame *is* a journal line
in flight: the coordinator's :func:`~repro.exec.core.run_jobs` loop
records each one to its journal as it lands, so a multi-host run's
checkpoint file is indistinguishable from a single-host run's, and the
merged result list (and any digest over it) is bit-identical to a serial
run by construction. The same trust model applies too: frames carry
pickles, so only run workers you control — this is a dispatch protocol
for your own fleet, not an interchange format. The fleet must also be
*homogeneous*: duplicate results (from falsely-suspected workers whose
jobs were reassigned) are reconciled by comparing the armoured pickle
bytes, so every worker must run the same Python and pickle protocol as
the coordinator, or semantically identical results can differ byte-wise
and be refused as disagreement.

Top-up dispatch: the pending plan is one queue in plan order. Each
worker holds a bounded window of outstanding jobs (:func:`_window`,
derived from the plan and fleet sizes), taken from the head of the
queue, and a worker whose window has drained to half is refilled from
there as its results land. So the work a worker gets follows how fast
it actually is, the in-order streaming prefix never waits on more than
a window, and when the queue runs dry no worker is left holding more
than a window while the rest of the fleet idles. A worker declared failed has its
unfinished jobs put back at the front of the queue, from where the
survivors' next top-ups take them.

Deployment shapes (``spawn`` / ``accept`` / ``hosts``):

* ``spawn=N`` — the coordinator listens on loopback and starts N local
  worker processes with the context the parallel pool uses
  (:func:`~repro.exec.executors.process_context`: fork on Linux), each
  running :func:`run_worker` with ``connect=`` its address. A forked
  worker inherits the coordinator's imported modules and ``sys.path``
  instead of booting an interpreter of its own, and closes its copy of
  the listening socket first. The CLI's ``--backend remote --workers
  3`` quickstart, and the CI smoke's shape.
* ``accept=N`` — the coordinator listens on ``listen`` and waits for N
  workers started elsewhere with ``python -m repro worker --connect``
  to dial in (the firewall-friendly direction for a real fleet).
* ``hosts=("h1:7700", ...)`` — workers started with ``python -m repro
  worker --listen`` on each host; the coordinator dials out.
"""

from __future__ import annotations

import hashlib
import json
import os
import selectors
import socket
import sys
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.detectors.base import ClockSource, MonotonicClock, PeerMonitor
from repro.detectors.heartbeat import HeartbeatMonitor
from repro.detectors.phi_accrual import PhiAccrualMonitor
from repro.errors import ReproError, SimulationError
from repro.exec.executors import Executor, OnResult, Pending, process_context
from repro.exec.job import JobSpec, job_digest, run_job

# The journal's pickle+base64 armour, reused on the wire on purpose: a
# result frame carries exactly the payload a journal line records.
from repro.exec.journal import _decode, _encode

PROTOCOL_VERSION = 1
"""Wire protocol version; hello/welcome frames must agree on it."""

MAX_FRAME = 64 * 1024 * 1024
"""Upper bound on one frame's payload, against corrupt length prefixes."""

REMOTE_DETECTORS = ("heartbeat", "phi")
"""Failure detectors the coordinator can watch its workers with."""

_SEND_TIMEOUT = 10.0
_RECV_CHUNK = 65536


def _parse_hostport(text: str) -> tuple[str, int]:
    """``"host:port"`` → ``(host, port)``; friendly errors otherwise."""
    host, sep, port = str(text).rpartition(":")
    if not sep or not host:
        raise SimulationError(
            f"worker address {text!r} is not of the form host:port"
        )
    try:
        return host, int(port)
    except ValueError:
        raise SimulationError(
            f"worker address {text!r} has a non-numeric port"
        ) from None


def parse_worker_spec(spec: int | str | Sequence[str] | None) -> dict:
    """A ``--workers`` value as :class:`RemoteExecutor` keyword arguments.

    ``None`` → spawn 2 local workers (the documented default); an integer
    (or digit string) ``N`` → spawn N; a ``"host:port,host:port"`` string
    or sequence → dial out to workers already listening there.
    """
    if spec is None:
        return {"spawn": 2}
    if isinstance(spec, int):
        return {"spawn": spec}
    if isinstance(spec, str):
        text = spec.strip()
        if text.isdigit():
            return {"spawn": int(text)}
        spec = [part.strip() for part in text.split(",") if part.strip()]
    hosts = tuple(spec)
    if not hosts:
        raise SimulationError("empty remote worker spec")
    for addr in hosts:
        _parse_hostport(addr)
    return {"hosts": hosts}


# ----------------------------------------------------------------------
# Framing: one JSON object per 4-byte length-prefixed frame
# ----------------------------------------------------------------------


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise ConnectionError("connection closed by peer")
        buf += chunk
    return bytes(buf)


def _recv_frame(sock: socket.socket) -> dict:
    """Blocking read of one complete frame."""
    length = int.from_bytes(_recv_exact(sock, 4), "big")
    if length > MAX_FRAME:
        raise SimulationError(
            f"oversized frame ({length} bytes); corrupt stream?"
        )
    return json.loads(_recv_exact(sock, length).decode("utf-8"))


def _send_frame(
    sock: socket.socket, obj: dict, lock: threading.Lock | None = None
) -> None:
    """Blocking write of one complete frame (lock serialises writers)."""
    data = json.dumps(obj).encode("utf-8")
    payload = len(data).to_bytes(4, "big") + data
    if lock is not None:
        with lock:
            sock.sendall(payload)
    else:
        sock.sendall(payload)


def _no_delay(sock: socket.socket) -> None:
    """Send each frame the moment it is written. Results and top-ups are
    small frames each way every few jobs; under Nagle's algorithm each
    would wait for the peer's delayed acknowledgement (tens of
    milliseconds on Linux) before leaving."""
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


class _Channel:
    """Coordinator-side framed connection: non-blocking reads + buffering.

    ``drain()`` pulls every byte currently available and returns the
    complete frames it holds, keeping any partial frame buffered — so a
    worker that dies (or hangs) mid-write can never block the
    coordinator's event loop, which must keep ticking for the failure
    detector to run.
    """

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.open = True
        self._buf = bytearray()
        sock.setblocking(False)
        _no_delay(sock)

    def drain(self) -> list[dict]:
        while self.open:
            try:
                chunk = self.sock.recv(_RECV_CHUNK)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self.open = False
                break
            if not chunk:
                self.open = False
                break
            self._buf += chunk
        frames = []
        while True:
            frame = self._next_frame()
            if frame is None:
                break
            frames.append(frame)
        return frames

    def _next_frame(self) -> dict | None:
        if len(self._buf) < 4:
            return None
        length = int.from_bytes(self._buf[:4], "big")
        if length > MAX_FRAME:
            raise SimulationError(
                f"oversized frame ({length} bytes); corrupt stream?"
            )
        if len(self._buf) < 4 + length:
            return None
        payload = bytes(self._buf[4 : 4 + length])
        del self._buf[: 4 + length]
        return json.loads(payload.decode("utf-8"))

    def send(self, obj: dict) -> bool:
        """Send one frame; ``False`` (and closed) if the peer is gone."""
        if not self.open:
            return False
        data = json.dumps(obj).encode("utf-8")
        payload = len(data).to_bytes(4, "big") + data
        self.sock.settimeout(_SEND_TIMEOUT)
        try:
            self.sock.sendall(payload)
            return True
        except OSError:
            self.open = False
            return False
        finally:
            try:
                self.sock.setblocking(False)
            except OSError:
                self.open = False

    def close(self) -> None:
        self.open = False
        try:
            self.sock.close()
        except OSError:
            pass


# ----------------------------------------------------------------------
# Worker: python -m repro worker --connect host:port (or --listen)
# ----------------------------------------------------------------------


def _heartbeat_loop(
    sock: socket.socket,
    lock: threading.Lock,
    interval: float,
    stop: threading.Event,
) -> None:
    """Background liveness beacon; the worker's FS1 obligation.

    Runs in its own thread so a long job never silences the worker — the
    heartbeat attests to the *process*, not to job completion.
    """
    n = 0
    while not stop.wait(interval):
        try:
            _send_frame(sock, {"kind": "heartbeat", "n": n}, lock)
        except OSError:
            return
        n += 1


def _dial(address: str, retry_for: float) -> socket.socket:
    """Connect to the coordinator, retrying briefly (start order freedom)."""
    host, port = _parse_hostport(address)
    deadline = time.monotonic() + retry_for
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=10.0)
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.2)
        else:
            # The dial timeout must not leak into _serve: the coordinator
            # sends nothing between assign and shutdown, so an idle worker
            # would hit TimeoutError in _recv_frame, die, and be falsely
            # suspected. Liveness is the detector's job (EOF/errors only).
            sock.settimeout(None)
            return sock


def _readable(sock: socket.socket) -> bool:
    import select

    ready, _, _ = select.select([sock], [], [], 0)
    return bool(ready)


def _serve(sock: socket.socket, name: str) -> int:
    _no_delay(sock)
    _send_frame(
        sock,
        {
            "kind": "hello",
            "version": PROTOCOL_VERSION,
            "name": name,
            "pid": os.getpid(),
        },
    )
    welcome = _recv_frame(sock)
    if welcome.get("kind") != "welcome":
        raise SimulationError(
            f"coordinator opened with {welcome.get('kind')!r}, not welcome"
        )
    if welcome.get("version") != PROTOCOL_VERSION:
        raise SimulationError(
            f"coordinator speaks protocol {welcome.get('version')!r}, "
            f"this worker speaks {PROTOCOL_VERSION}"
        )
    interval = float(welcome.get("heartbeat_interval", 1.0))
    lock = threading.Lock()
    stop = threading.Event()
    beat = threading.Thread(
        target=_heartbeat_loop,
        args=(sock, lock, interval, stop),
        daemon=True,
        name="repro-worker-heartbeat",
    )
    beat.start()
    queue: deque[tuple[int, JobSpec]] = deque()
    try:
        while True:
            # Drain waiting frames (reassignments land while jobs run);
            # block only when there is no queued work to do.
            block = not queue
            while block or _readable(sock):
                frame = _recv_frame(sock)
                kind = frame.get("kind")
                if kind == "assign":
                    for index, blob in frame["jobs"]:
                        queue.append((index, _decode(blob)))
                elif kind == "shutdown":
                    return 0
                else:
                    raise SimulationError(
                        f"coordinator sent unknown frame kind {kind!r}"
                    )
                block = False
            index, job = queue.popleft()
            try:
                result = run_job(job)
            except Exception as exc:
                # A job the library itself refused (a parameter out of
                # range, a violated bound) is the one line every other
                # backend reports; anything else is a bug in a runner
                # and keeps its traceback.
                if isinstance(exc, ReproError):
                    message = str(exc)
                else:
                    message = traceback.format_exc(limit=20)
                _send_frame(
                    sock,
                    {"kind": "error", "index": index, "message": message},
                    lock,
                )
                continue
            _send_frame(
                sock,
                {
                    "kind": "result",
                    "index": index,
                    "job": job_digest(job),
                    "data": _encode(result),
                },
                lock,
            )
    finally:
        stop.set()


def run_worker(
    connect: str | None = None,
    listen: str | None = None,
    name: str | None = None,
    retry_for: float = 10.0,
) -> int:
    """Serve jobs for a remote coordinator until it says shutdown.

    Exactly one of ``connect`` (dial the coordinator at ``host:port``,
    retrying for ``retry_for`` seconds so start order does not matter)
    or ``listen`` (bind ``host:port`` and await the coordinator's dial)
    must be given. The worker runs each assigned job with
    :func:`~repro.exec.job.run_job` and streams the result back; a
    background thread heartbeats at the interval the coordinator's
    welcome frame dictates. Returns the process exit code.
    """
    if (connect is None) == (listen is None):
        raise SimulationError(
            "exactly one of connect= or listen= is required"
        )
    if connect is not None:
        sock = _dial(connect, retry_for)
    else:
        host, port = _parse_hostport(listen)
        server = socket.create_server((host, port))
        try:
            server.settimeout(max(retry_for, 60.0))
            sock, _ = server.accept()
            sock.settimeout(None)
        finally:
            server.close()
    label = name if name else f"{socket.gethostname()}-{os.getpid()}"
    try:
        return _serve(sock, label)
    finally:
        try:
            sock.close()
        except OSError:
            pass


def _spawned_worker(address: str, listener: socket.socket | None) -> None:
    """Body of a ``spawn=N`` worker process: :func:`run_worker` dialling
    the coordinator that started it.

    ``listener`` is the forked child's copy of the coordinator's
    listening socket (``None`` where the child did not inherit one);
    closing it first means the port is released when the coordinator
    closes its own, whatever the child is doing.
    """
    if listener is not None:
        listener.close()
    try:
        code = run_worker(connect=address)
    except OSError as exc:
        # The coordinator closed the connection mid-job, as it does when
        # the run ends on an error: the message ``python -m repro
        # worker`` prints, not a traceback.
        print(f"worker: lost the coordinator: {exc}", file=sys.stderr)
        code = 1
    sys.exit(code)


def _window(jobs: int, workers: int) -> int:
    """How many outstanding jobs a worker holds: a sixteenth of its fair
    share of the plan, between 2 and 16.

    At least 2 so a worker has its next job in hand while the refill for
    the one it just finished is in flight; a worker is refilled once
    half its window has drained, so refills go out a few jobs per frame.
    At most 16, and small against the share, so that when the queue runs
    dry no worker is left holding more than a sliver of the plan while
    the rest of the fleet idles.
    """
    return max(2, min(16, -(-jobs // (16 * workers))))


# ----------------------------------------------------------------------
# Coordinator: the "remote" executor
# ----------------------------------------------------------------------


@dataclass
class RemoteStats:
    """What one ``submit`` did, for smokes and post-run reporting."""

    workers: int = 0
    spawned: int = 0
    results: int = 0
    duplicates: int = 0
    reassigned: int = 0
    failed: list[str] = field(default_factory=list)


class _WorkerSession:
    """Coordinator-side state for one connected worker."""

    def __init__(self, peer: int, name: str, channel: _Channel, proc=None):
        self.peer = peer
        self.name = name
        self.channel = channel
        self.proc = proc
        self.outstanding: dict[int, JobSpec] = {}
        self.failed = False

    def send_assign(self, assigned: Sequence[tuple[int, JobSpec]]) -> None:
        # A failed send just closes the channel: the worker's silence
        # will trip the detector and its jobs will be reassigned.
        self.channel.send(
            {
                "kind": "assign",
                "jobs": [[index, _encode(job)] for index, job in assigned],
            }
        )


class RemoteExecutor(Executor):
    """Ships jobs to worker processes over TCP; fault tolerant.

    Workers are topped up from one queue in plan order, each holding a
    bounded window of outstanding jobs; results stream back as they
    complete and reach ``on_result`` in arrival order (the execution core
    launders them into planned order, exactly as for every other
    executor). Workers are watched with the repo's own failure detectors
    on wall-clock time; a worker declared failed has its unfinished
    indices put back at the front of the queue for the survivors, and
    late results from falsely-suspected workers are accepted as agreeing
    duplicates. See the module docstring for the wire protocol and
    deployment shapes.

    Args:
        spawn: start this many local worker processes (loopback).
        hosts: dial out to workers listening at these ``host:port``s.
        accept: await this many workers dialling in to ``listen``.
        listen: coordinator bind address for spawn/accept modes.
        detector: ``"heartbeat"`` (fixed timeout) or ``"phi"`` (accrual).
        heartbeat_interval: interval workers are told to beat at.
        timeout: heartbeat detector's silence threshold
            (default ``10 * heartbeat_interval``).
        threshold: phi detector's suspicion threshold.
        check_every: detector poll period (default ``interval / 2``).
        connect_timeout: deadline for the whole fleet to connect.
        clock: detector time source (tests inject; default wall clock).
        chaos: fault-injection hook for tests and the CI kill-a-worker
            smoke — called as ``chaos(executor, results_done)`` after
            each newly completed result.
    """

    name = "remote"

    def __init__(
        self,
        spawn: int = 0,
        hosts: Sequence[str] = (),
        accept: int = 0,
        listen: str = "127.0.0.1:0",
        detector: str = "heartbeat",
        heartbeat_interval: float = 0.25,
        timeout: float | None = None,
        threshold: float = 8.0,
        check_every: float | None = None,
        connect_timeout: float = 30.0,
        clock: ClockSource | None = None,
        chaos: Callable[["RemoteExecutor", int], None] | None = None,
    ):
        modes = sum((spawn > 0, len(hosts) > 0, accept > 0))
        if modes != 1:
            raise SimulationError(
                "exactly one of spawn=N, hosts=(...), or accept=N must "
                "be given"
            )
        if detector not in REMOTE_DETECTORS:
            raise SimulationError(
                f"unknown remote detector {detector!r}; choose from "
                f"{', '.join(REMOTE_DETECTORS)}"
            )
        if heartbeat_interval <= 0:
            raise SimulationError(
                f"heartbeat_interval must be > 0, got {heartbeat_interval}"
            )
        self.spawn = spawn
        self.hosts = tuple(hosts)
        self.accept = accept
        self.listen = listen
        self.detector = detector
        self.heartbeat_interval = heartbeat_interval
        self.timeout = (
            timeout if timeout is not None else 10 * heartbeat_interval
        )
        self.threshold = threshold
        self.check_every = (
            check_every if check_every is not None else heartbeat_interval / 2
        )
        self.connect_timeout = connect_timeout
        self.clock = clock
        self.chaos = chaos
        self.stats = RemoteStats()
        self.processes: list = []
        """The ``multiprocessing`` processes ``spawn=N`` started for the
        most recent ``submit``, in start order."""
        self.monitor: PeerMonitor | None = None
        """The failure detector of the most recent ``submit``; its
        inherited :class:`~repro.detectors.SuspicionLog` records every
        worker suspicion for post-run accounting."""

    # -- connection setup ----------------------------------------------

    def _handshake(self, sock: socket.socket, deadline: float) -> dict:
        sock.settimeout(max(deadline - time.monotonic(), 0.1))
        hello = _recv_frame(sock)
        if hello.get("kind") != "hello":
            raise SimulationError(
                f"worker opened with {hello.get('kind')!r}, not hello"
            )
        if hello.get("version") != PROTOCOL_VERSION:
            raise SimulationError(
                f"worker speaks protocol {hello.get('version')!r}, "
                f"this coordinator speaks {PROTOCOL_VERSION}"
            )
        _send_frame(
            sock,
            {
                "kind": "welcome",
                "version": PROTOCOL_VERSION,
                "heartbeat_interval": self.heartbeat_interval,
            },
        )
        return hello

    def _connect_workers(self) -> list[_WorkerSession]:
        deadline = time.monotonic() + self.connect_timeout
        socks: list[socket.socket] = []
        if self.hosts:
            for addr in self.hosts:
                host, port = _parse_hostport(addr)
                try:
                    sock = socket.create_connection(
                        (host, port), timeout=self.connect_timeout
                    )
                except OSError as exc:
                    for open_sock in socks:
                        open_sock.close()
                    raise SimulationError(
                        f"cannot reach worker at {addr}: {exc} (start it "
                        "with: python -m repro worker --listen "
                        f"{addr})"
                    ) from exc
                socks.append(sock)
        else:
            count = self.spawn or self.accept
            host, port = _parse_hostport(self.listen)
            server = socket.create_server((host, port))
            bound_port = server.getsockname()[1]
            try:
                if self.spawn:
                    # Forking is safe: the coordinator runs no thread of
                    # its own (heartbeat threads start in the workers).
                    ctx = process_context()
                    forked = ctx.get_start_method() == "fork"
                    for _ in range(self.spawn):
                        proc = ctx.Process(
                            target=_spawned_worker,
                            args=(
                                f"{host}:{bound_port}",
                                server if forked else None,
                            ),
                            daemon=True,
                        )
                        proc.start()
                        self.processes.append(proc)
                        self.stats.spawned += 1
                for _ in range(count):
                    server.settimeout(
                        max(deadline - time.monotonic(), 0.1)
                    )
                    try:
                        sock, _ = server.accept()
                    except TimeoutError as exc:
                        for open_sock in socks:
                            open_sock.close()
                        raise SimulationError(
                            f"only {len(socks)} of {count} workers "
                            f"connected within {self.connect_timeout}s"
                        ) from exc
                    socks.append(sock)
            finally:
                server.close()
        sessions = []
        by_pid = {proc.pid: proc for proc in self.processes}
        try:
            for peer, sock in enumerate(socks):
                hello = self._handshake(sock, deadline)
                name = str(hello.get("name", f"worker-{peer}"))
                proc = by_pid.get(hello.get("pid"))
                sessions.append(
                    _WorkerSession(peer, name, _Channel(sock), proc=proc)
                )
        except BaseException:
            # A mid-loop handshake failure (version mismatch, timeout)
            # must not strand the fleet: close every socket, handshaken
            # or not; submit's finally reaps any spawned processes.
            for sock in socks:
                try:
                    sock.close()
                except OSError:
                    pass
            raise
        self.stats.workers = len(sessions)
        return sessions

    # -- detection -----------------------------------------------------

    def _make_monitor(self) -> PeerMonitor:
        clock = self.clock if self.clock is not None else MonotonicClock()
        if self.detector == "phi":
            return PhiAccrualMonitor(
                threshold=self.threshold,
                expected_interval=self.heartbeat_interval,
                clock=clock,
            )
        return HeartbeatMonitor(timeout=self.timeout, clock=clock)

    def _declare_failed(
        self,
        session: _WorkerSession,
        sessions: list[_WorkerSession],
        queue: deque[tuple[int, JobSpec]],
        done: dict[int, str],
        window: int,
    ) -> None:
        """The detector's verdict: requeue the worker's unfinished jobs
        at the front of the queue and top up the survivors."""
        if session.failed:
            return
        session.failed = True
        self.stats.failed.append(session.name)
        orphans = [
            (index, job)
            for index, job in sorted(session.outstanding.items())
            if index not in done
        ]
        session.outstanding.clear()
        if not orphans or all(s.failed for s in sessions):
            return
        self.stats.reassigned += len(orphans)
        queue.extendleft(reversed(orphans))
        self._top_up(sessions, queue, done, window)

    def _top_up(
        self,
        sessions: list[_WorkerSession],
        queue: deque[tuple[int, JobSpec]],
        done: dict[int, str],
        window: int,
    ) -> None:
        """Refill, from the head of the queue, every live worker whose
        window has drained to half, until it holds a full window again
        or the queue is empty."""
        for session in sessions:
            if (
                session.failed
                or not session.channel.open
                or len(session.outstanding) > window // 2
            ):
                continue
            batch = []
            while queue and len(session.outstanding) < window:
                index, job = queue.popleft()
                # A requeued job that a falsely-suspected worker has
                # finished after all is not dealt again.
                if index not in done:
                    session.outstanding[index] = job
                    batch.append((index, job))
            if batch:
                session.send_assign(batch)

    # -- the dispatch loop ---------------------------------------------

    def _handle_frame(
        self,
        session: _WorkerSession,
        frame: dict,
        monitor: PeerMonitor,
        done: dict[int, str],
        expected: dict[int, str],
        on_result: OnResult,
    ) -> None:
        kind = frame.get("kind")
        if kind == "heartbeat":
            monitor.heartbeat(session.peer)
            return
        if kind == "error":
            raise SimulationError(
                f"remote worker {session.name} failed job "
                f"{frame.get('index')}: {frame.get('message')}"
            )
        if kind != "result":
            raise SimulationError(
                f"remote worker {session.name} sent unknown frame kind "
                f"{kind!r}"
            )
        monitor.heartbeat(session.peer)  # a result is proof of life too
        index = frame.get("index")
        data = frame.get("data")
        if not isinstance(index, int) or index not in expected:
            raise SimulationError(
                f"remote worker {session.name} reported a result for "
                f"unplanned index {index!r}"
            )
        if frame.get("job") != expected[index]:
            raise SimulationError(
                f"remote worker {session.name}: job hash mismatch at "
                f"index {index}; worker and coordinator disagree on the "
                "plan"
            )
        if not isinstance(data, str):
            raise SimulationError(
                f"remote worker {session.name} sent a malformed result "
                f"for index {index}: data is "
                f"{type(data).__name__}, not a base64 string"
            )
        payload_digest = hashlib.sha256(data.encode("ascii")).hexdigest()
        session.outstanding.pop(index, None)
        if index in done:
            # A falsely-suspected worker finishing a job that was also
            # reassigned: pure jobs make the copies bit-identical, so
            # agreement is checked and the duplicate dropped.
            if done[index] != payload_digest:
                raise SimulationError(
                    f"remote workers disagree on job {index}; refusing "
                    "to merge (byte-wise pickle comparison — a mixed "
                    "fleet with differing Python/pickle versions can "
                    "trip this on identical results; run a homogeneous "
                    "fleet)"
                )
            self.stats.duplicates += 1
            return
        try:
            result = _decode(data)
        except Exception as exc:
            raise SimulationError(
                f"remote worker {session.name} sent an undecodable "
                f"result for index {index}: {exc}"
            ) from None
        done[index] = payload_digest
        self.stats.results += 1
        on_result(index, result)
        if self.chaos is not None:
            self.chaos(self, len(done))

    def _dispatch(
        self,
        sessions: list[_WorkerSession],
        pending: list[tuple[int, JobSpec]],
        on_result: OnResult,
    ) -> None:
        queue = deque(pending)
        window = _window(len(pending), len(sessions))
        done: dict[int, str] = {}
        self._top_up(sessions, queue, done, window)

        monitor = self._make_monitor()
        self.monitor = monitor
        for session in sessions:
            monitor.watch(session.peer)
        by_peer = {session.peer: session for session in sessions}
        expected = {index: job_digest(job) for index, job in pending}
        selector = selectors.DefaultSelector()
        for session in sessions:
            selector.register(
                session.channel.sock, selectors.EVENT_READ, session
            )
        try:
            while len(done) < len(pending):
                events = selector.select(timeout=self.check_every)
                for key, _ in events:
                    session = key.data
                    for frame in session.channel.drain():
                        self._handle_frame(
                            session, frame, monitor, done, expected,
                            on_result,
                        )
                    if not session.channel.open:
                        selector.unregister(session.channel.sock)
                if queue:
                    self._top_up(sessions, queue, done, window)
                for peer in monitor.check():
                    self._declare_failed(
                        by_peer[peer], sessions, queue, done, window
                    )
                if len(done) < len(pending) and all(
                    s.failed for s in sessions
                ):
                    raise SimulationError(
                        f"all {len(sessions)} remote workers failed with "
                        f"{len(pending) - len(done)} job(s) unfinished "
                        f"(failed: {', '.join(self.stats.failed)})"
                    )
        finally:
            selector.close()

    def _cleanup(self, sessions: list[_WorkerSession]) -> None:
        told = set()
        for session in sessions:
            if session.channel.open:
                if session.channel.send({"kind": "shutdown"}):
                    told.add(id(session.proc))
            session.channel.close()
        for proc in self.processes:
            # A worker that never got (or could not receive) a shutdown
            # frame is blocked reading the wire; don't grant it the
            # graceful-exit grace period, terminate it outright.
            if id(proc) not in told:
                proc.terminate()
            proc.join(timeout=5)
            if proc.exitcode is None:
                proc.kill()
                proc.join()

    def submit(self, pending: Pending, on_result: OnResult) -> None:
        if not pending:
            return
        self.stats = RemoteStats()
        self.processes = []
        sessions: list[_WorkerSession] = []
        try:
            sessions = self._connect_workers()
            self._dispatch(sessions, list(pending), on_result)
        finally:
            # Runs even when _connect_workers raises: sessions is then
            # empty but spawned processes still need killing/reaping.
            self._cleanup(sessions)
