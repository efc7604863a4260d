"""Cross-core digest equality: compiled event core vs pure reference.

The pure-Python modules are the authoritative reference; the compiled
core (``repro._accel``) must be *bit-identical* to them — same callback
order, same rng stream consumption, same counters, same error text, same
digests. These tests pin that contract at both levels:

* component level, in process, via the ``Pure*`` aliases the canonical
  modules keep exporting next to the (possibly accelerated) names;
* end to end, in subprocesses with ``REPRO_CORE`` forced, comparing the
  sweep-row and fuzz-report digests the whole toolchain prints.

Everything here skips when the extension is not built — the pure-only
configuration is covered by the rest of the suite.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

pytest.importorskip("repro._accel._ccore")

from repro._accel._ccore import Scheduler as AccelScheduler
from repro.core.messages import Message, MessageMint
from repro.errors import SimulationError
from repro.sim.delays import (
    ConstantDelay,
    ExponentialDelay,
    LogNormalDelay,
    ParetoDelay,
    PerChannelDelay,
    UniformDelay,
)
from repro.sim.network import Network as AccelNetwork
from repro.sim.network import PureNetwork
from repro.sim.scheduler import PureScheduler
from tests.conftest import SRC, run_python, stage_src

REPO_ROOT = Path(__file__).resolve().parents[2]

# The compiled Network is defined where the core is selected
# (repro.sim.network's ``if USE_ACCEL:`` block), so a process forced to
# REPRO_CORE=pure has no such class to hold against the pure one.
needs_accel_network = pytest.mark.skipif(
    AccelNetwork is PureNetwork,
    reason="REPRO_CORE=pure: this process never defines the compiled Network",
)


def _run_cli(core: str, *argv: str) -> str:
    env = dict(os.environ, REPRO_CORE=core)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env=env,
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _digest_line(output: str) -> str:
    for line in output.splitlines():
        if "digest=" in line:
            return line.split("digest=", 1)[1].strip()
    raise AssertionError(f"no digest line in: {output!r}")


# ---------------------------------------------------------------------------
# Component level: scheduler
# ---------------------------------------------------------------------------

op_lists = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        st.booleans(),  # cancel this one before running?
    ),
    min_size=1,
    max_size=30,
)


@given(op_lists)
@settings(max_examples=60, deadline=None)
def test_scheduler_fires_in_identical_order(ops):
    """Same schedule/cancel program → same firing order and counters."""
    logs: dict[str, list[int]] = {}
    schedulers = {"pure": PureScheduler(), "accel": AccelScheduler()}
    for name, scheduler in schedulers.items():
        log: list[int] = []
        handles = []
        for index, (due, _) in enumerate(ops):
            handles.append(
                scheduler.schedule_at(due, lambda i=index: log.append(i))
            )
        for handle, (_, cancel) in zip(handles, ops):
            if cancel:
                handle.cancel()
        scheduler.run()
        logs[name] = log
    assert logs["pure"] == logs["accel"]
    pure, accel = schedulers["pure"], schedulers["accel"]
    assert pure.now == accel.now
    assert pure.processed == accel.processed
    assert pure.pending == accel.pending


@given(op_lists)
@settings(max_examples=30, deadline=None)
def test_scheduler_step_now_trace_matches(ops):
    """Stepping one event at a time shows the same ``now`` trajectory."""
    traces = {}
    for name, scheduler in (
        ("pure", PureScheduler()),
        ("accel", AccelScheduler()),
    ):
        for due, _ in ops:
            scheduler.schedule_at(due, lambda: None)
        trace = []
        while scheduler.step():
            trace.append(scheduler.now)
        traces[name] = trace
    assert traces["pure"] == traces["accel"]


def test_scheduler_past_error_text_matches():
    """Error messages are part of the bit-identical contract."""
    messages = {}
    for name, scheduler in (
        ("pure", PureScheduler()),
        ("accel", AccelScheduler()),
    ):
        scheduler.schedule_at(1.0, lambda: None)
        scheduler.run()
        with pytest.raises(Exception) as excinfo:
            scheduler.schedule_at(0.5, lambda: None)
        messages[name] = (type(excinfo.value).__name__, str(excinfo.value))
    assert messages["pure"] == messages["accel"]


# ---------------------------------------------------------------------------
# Component level: network delivery order
# ---------------------------------------------------------------------------

send_plans = st.lists(
    st.tuples(
        st.integers(0, 2),  # src
        st.integers(0, 2),  # dst
        st.sampled_from(["app", "protocol", "system"]),
    ),
    min_size=1,
    max_size=40,
)


@needs_accel_network
@given(send_plans, st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_network_delivery_order_matches(plan, seed):
    """Same sends + same rng → identical delivery order and counters."""
    deliveries: dict[str, list] = {}
    stats: dict[str, tuple] = {}
    for name, (sched_cls, net_cls) in (
        ("pure", (PureScheduler, PureNetwork)),
        ("accel", (AccelScheduler, AccelNetwork)),
    ):
        scheduler = sched_cls()
        log: list = []
        network = net_cls(
            scheduler,
            3,
            delay_model=ExponentialDelay(mean=0.7),
            rng=random.Random(seed),
            deliver=lambda s, d, m, k: log.append(
                (s, d, m.uid, k, scheduler.now)
            ),
        )
        mints = [MessageMint(i) for i in range(3)]
        for src, dst, kind in plan:
            network.send(src, dst, mints[src].mint("x"), kind=kind)
        scheduler.run()
        deliveries[name] = log
        stats[name] = (
            network.messages_delivered,
            network.delivery_entries,
            network.sent_by_kind,
            network.channel_stats(),
        )
    assert deliveries["pure"] == deliveries["accel"]
    assert stats["pure"] == stats["accel"]


CORES = ((PureScheduler, PureNetwork), (AccelScheduler, AccelNetwork))


def _release_held_plan(sched_cls, net_cls, model, rng, plan):
    """Block C_{0,1}, send ``plan``, release the channel, run to the end;
    returns the release count and the ``(src, dst, uid, kind, time)`` log."""
    scheduler = sched_cls()
    log: list = []
    network = net_cls(
        scheduler,
        3,
        delay_model=model,
        rng=rng,
        deliver=lambda s, d, m, k: log.append((s, d, m.uid, k, scheduler.now)),
    )
    network.block_channel(0, 1)
    mints = [MessageMint(i) for i in range(3)]
    for src, dst, kind in plan:
        network.send(src, dst, mints[src].mint("x"), kind=kind)
    released = network.release_channel(0, 1)
    scheduler.run()
    return released, log


@needs_accel_network
@given(send_plans, st.integers(0, 2**16))
@settings(max_examples=30, deadline=None)
def test_network_release_channel_matches(plan, seed):
    """Held traffic released in a batch drains identically on both cores."""
    model = UniformDelay(low=0.1, high=1.4)
    runs = [
        _release_held_plan(sched_cls, net_cls, model, random.Random(seed), plan)
        for sched_cls, net_cls in CORES
    ]
    assert runs[0] == runs[1]


# Every delay draw is ``delay_model.sample(rng, src, dst)`` on both cores;
# a ``random.Random`` subclass rng and ``PerChannelDelay`` are the inputs
# that once took a different path under the compiled core.


class CountingRandom(random.Random):
    """A ``Random`` subclass whose ``random()`` the samplers must call."""

    draws = 0

    def random(self):
        self.draws += 1
        return super().random()


DELAY_MODELS = [
    UniformDelay(low=0.25, high=2.0),
    ExponentialDelay(mean=1.3),
    LogNormalDelay(median=0.8, sigma=0.6),
    ParetoDelay(scale=0.4, alpha=1.7),
    PerChannelDelay(
        base=ExponentialDelay(mean=0.7),
        slow_channels=(((0, 1), 3.0), ((2, 0), 0.0)),
    ),
]


@needs_accel_network
@pytest.mark.parametrize(
    "model", DELAY_MODELS, ids=lambda m: type(m).__name__
)
@given(plan=send_plans, seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_network_delay_draws_match_across_cores(model, plan, seed):
    """Sends, a hold and its release consume the rng identically — same
    delivery times, same final rng state, same number of draws — for a
    plain ``Random`` and for a subclass."""
    for rng_cls in (random.Random, CountingRandom):
        runs = []
        for sched_cls, net_cls in CORES:
            rng = rng_cls(seed)
            run = _release_held_plan(sched_cls, net_cls, model, rng, plan)
            runs.append((run, rng.getstate(), getattr(rng, "draws", None)))
        assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# Component level: a fan-out is n sends, on each core and across them
# ---------------------------------------------------------------------------

# The pure pair always; the compiled pair when this process defines it.
AVAILABLE_CORES = CORES[: 1 if AccelNetwork is PureNetwork else 2]

FANOUT_N = 5
PIDS = st.integers(0, FANOUT_N - 1)

fanout_plans = st.lists(
    st.one_of(
        st.tuples(
            st.just("fanout"),
            PIDS,
            # Repeats allowed: two copies on one channel are what joins a
            # burst under a constant delay.
            st.lists(PIDS, max_size=FANOUT_N + 2),
            st.sampled_from(["protocol", "system"]),
        ),
        st.tuples(
            st.just("send"),
            PIDS,
            PIDS,
            st.sampled_from(["app", "protocol", "system"]),
        ),
        st.tuples(st.just("step"), st.integers(1, 4)),
    ),
    min_size=1,
    max_size=14,
)


def _run_fanout_plan(
    sched_cls, net_cls, use_fanout, plan, seed, model, batch, held_dst, cut
):
    """Run ``plan`` with its fan-outs done by ``fanout`` or by a loop of
    ``send``, under a blocked channel, a hold rule on ``held_dst`` and a
    partition installed before op ``cut``; returns everything observable."""
    scheduler = sched_cls()
    rng = random.Random(seed)
    log: list = []
    network = net_cls(
        scheduler,
        FANOUT_N,
        delay_model=model,
        rng=rng,
        deliver=lambda s, d, m, k: log.append((s, d, m.uid, k, scheduler.now)),
        batch=batch,
    )
    network.block_channel(0, 1)
    network.add_hold_predicate(
        lambda src, dst, msg: dst == held_dst and msg.payload == "wide"
    )
    mints = [MessageMint(i) for i in range(FANOUT_N)]
    minted: list = []
    for index, op in enumerate(plan):
        if index == cut:  # {0, 1} | {2, ...}, both directions
            for a in (0, 1):
                for b in range(2, FANOUT_N):
                    network.block_channel(a, b)
                    network.block_channel(b, a)
        if op[0] == "step":
            for _ in range(op[1]):
                scheduler.step()
        elif op[0] == "send":
            _, src, dst, kind = op
            network.send(src, dst, mints[src].mint("narrow"), kind=kind)
        elif use_fanout:
            _, src, dsts, kind = op
            sent = network.fanout(src, dsts, mints[src], "wide", kind)
            minted.append([msg.uid for msg in sent])
        else:
            _, src, dsts, kind = op
            sent = [mints[src].mint("wide") for _ in dsts]
            for dst, msg in zip(dsts, sent):
                network.send(src, dst, msg, kind=kind)
            minted.append([msg.uid for msg in sent])
    bursts = sorted(
        (channel, state.burst.due, state.burst.seq,
         1 + len(state.burst.queue or ()))
        for channel, state in network._channels.items()
        if state.burst is not None
    )
    held = network.held_messages()
    scheduler.run()
    return (
        minted,
        [mint.minted for mint in mints],
        rng.getstate(),
        bursts,
        held,
        log,
        network.sent_by_kind,
        network.channel_stats(),
        network.delivery_entries,
        scheduler.last_scheduled_seq,
    )


@given(
    plan=fanout_plans,
    seed=st.integers(0, 2**32 - 1),
    model=st.sampled_from([ConstantDelay(1.0)] + DELAY_MODELS),
    batch=st.booleans(),
    held_dst=PIDS,
    cut=st.integers(0, 14),
)
@settings(max_examples=120, deadline=None)
def test_fanout_is_n_sends_on_every_core(
    plan, seed, model, batch, held_dst, cut
):
    """Same uids, same delay draws, same firing order and times, same
    bursts, counters and held queues — ``fanout`` against a loop of
    ``send`` over a fresh equal world, and pure against compiled."""
    runs = [
        _run_fanout_plan(
            sched_cls, net_cls, use_fanout, plan, seed, model, batch,
            held_dst, cut,
        )
        for sched_cls, net_cls in AVAILABLE_CORES
        for use_fanout in (True, False)
    ]
    for run in runs[1:]:
        assert run == runs[0]


@pytest.mark.parametrize(
    "sched_cls, net_cls", AVAILABLE_CORES, ids=["pure", "accel"][: len(AVAILABLE_CORES)]
)
def test_fanout_refuses_mid_list_like_send(sched_cls, net_cls):
    """A destination outside the universe stops the fan-out there: the
    error ``send`` raises, the earlier messages accepted, and the mint
    advanced past exactly those."""
    scheduler = sched_cls()
    log: list = []
    network = net_cls(
        scheduler,
        3,
        delay_model=ConstantDelay(1.0),
        deliver=lambda s, d, m, k: log.append((d, m.uid)),
    )
    mint = MessageMint(0)
    with pytest.raises(SimulationError) as fanout_error:
        network.fanout(0, [1, 2, 7, 1], mint, "x", "protocol")
    with pytest.raises(SimulationError) as send_error:
        network.send(0, 7, Message(0, 99, "x"), kind="protocol")
    assert str(fanout_error.value) == str(send_error.value)
    assert str(fanout_error.value) == "send outside process universe: 0->7"
    assert mint.minted == 2
    with pytest.raises(SimulationError, match="unknown message kind 'bogus'"):
        network.fanout(0, [1], mint, "x", "bogus")
    assert mint.minted == 2
    assert network.sent_by_kind == {"app": 0, "protocol": 2, "system": 0}
    scheduler.run()
    assert log == [(1, (0, 0)), (2, (0, 1))]
    assert network.fanout(0, [], mint, "x", "system") == []


@needs_accel_network
def test_compiled_fanout_mints_ordinary_messages():
    """The compiled fan-out fills ``Message``'s slots itself; what comes
    out is indistinguishable from ``Message(sender, seq, payload)``."""
    network = AccelNetwork(AccelScheduler(), 3, deliver=lambda *args: None)
    mint = MessageMint(2)
    mint.mint()
    payload = ("susp", 1)
    minted = network.fanout(2, [0, 1, 2], mint, payload, "protocol")
    built = [Message(2, seq, payload) for seq in (1, 2, 3)]
    assert [type(msg) for msg in minted] == [Message] * 3
    assert minted == built
    assert [hash(msg) for msg in minted] == [hash(msg) for msg in built]
    assert [repr(msg) for msg in minted] == [repr(msg) for msg in built]
    assert [msg.uid for msg in minted] == [(2, 1), (2, 2), (2, 3)]
    assert all(msg.payload is payload for msg in minted)
    assert pickle.loads(pickle.dumps(minted)) == built
    assert pickle.dumps(minted) == pickle.dumps(built)
    for name in ("sender", "seq", "payload"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(minted[0], name, 0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        del minted[0].seq
    assert mint.minted == 4


# ---------------------------------------------------------------------------
# The history recorder exists once: same class, same behaviour, under
# either core
# ---------------------------------------------------------------------------

_BUILDER_PARITY = """
import copy, pickle
import repro
from repro.core.events import crash, failed
from repro.core.history import HistoryBuilder

assert repro.core_info()["core"] == "{core}"
assert HistoryBuilder.__module__ == "repro.core.history"
original = HistoryBuilder(2).append(crash(0))
clone = copy.deepcopy(original)
clone.append_one(failed(1, 0))
assert len(original) == 1 and len(clone) == 2
assert original.snapshot().vectors == [(1, 0)]
assert clone.snapshot().vectors == [(1, 0), (0, 1)]
assert pickle.loads(pickle.dumps(original)).events == original.events
print("ok")
"""


@pytest.mark.parametrize("core", ["pure", "accel"])
def test_history_builder_is_one_class_under_both_cores(core):
    proc = run_python(SRC, core, "-c", _BUILDER_PARITY.format(core=core))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


# ---------------------------------------------------------------------------
# The delay models exist once too: the compiled core installs nothing on
# them, and their module never consults the core selection
# ---------------------------------------------------------------------------

_DELAYS_UNTOUCHED = """
import importlib.util, sys
from pathlib import Path

import repro
path = Path(repro.__file__).parent / "sim" / "delays.py"
spec = importlib.util.spec_from_file_location("standalone_delays", path)
standalone = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(standalone)
assert "repro._core" not in sys.modules, "delays.py imported the shim"
assert not [name for name in sys.modules if name.startswith("repro._accel")]

import repro.sim  # every core-selection block has run after this
import repro.sim.delays as delays
from repro._accel import _ccore

assert repro.core_info()["core"] == "accel"
assert "repro._accel.delays" not in sys.modules
assert not hasattr(delays, "USE_ACCEL")
for name, cls in vars(standalone).items():
    if isinstance(cls, type) and issubclass(cls, standalone.DelayModel):
        assert vars(getattr(delays, name)).keys() == vars(cls).keys(), name
        assert "sample_batch" not in vars(getattr(delays, name)), name
for name in ("_batch_sample", "_register_delay_fastpath", "_set_random_type"):
    assert not hasattr(_ccore, name), name
print("ok")
"""


def test_accel_installs_nothing_on_the_delay_models():
    proc = run_python(SRC, "accel", "-c", _DELAYS_UNTOUCHED)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


# ---------------------------------------------------------------------------
# Component level: attribute surface
# ---------------------------------------------------------------------------


def _surface(obj) -> set[str]:
    return {name for name in dir(obj) if not name.startswith("__")}


@needs_accel_network
def test_scheduler_network_and_entry_surfaces_match():
    """Both cores expose the same attribute names, private ones included,
    so state kept on one side only (a cache, a free list) shows up here."""
    pure_sched, accel_sched = PureScheduler(), AccelScheduler()
    assert _surface(pure_sched) == _surface(accel_sched)
    pure_sched.schedule(1.0, int)
    accel_sched.schedule(1.0, int)
    pure_entry = pure_sched._queue[0][2]  # pure heap holds triples
    accel_entry = accel_sched._queue[0]
    assert _surface(pure_entry) == _surface(accel_entry)
    pure_net = PureNetwork(pure_sched, 3)
    accel_net = AccelNetwork(accel_sched, 3)
    # The one sanctioned difference: the compiled core opens batched
    # deliveries in C and calls up to Python only for the unbatched path.
    assert _surface(pure_net) - _surface(accel_net) == {"_open_delivery"}
    assert _surface(accel_net) - _surface(pure_net) == {"_open_unbatched"}
    assert {"send", "fanout"} <= _surface(pure_net) & _surface(accel_net)


@needs_accel_network
@pytest.mark.parametrize(
    "name",
    [
        "_matches_hold",
        "add_hold_predicate",
        "remove_hold_predicate",
        "block_channel",
        "release_channel",
        "clear_holds",
        "release_all",
        "held_messages",
        "channel_stats",
    ],
)
def test_cold_network_methods_are_defined_once(name):
    """Off the hot path both classes run the same function object, so a
    body copied back into either of them fails here."""
    assert getattr(AccelNetwork, name) is getattr(PureNetwork, name)


# ---------------------------------------------------------------------------
# End to end: full-toolchain digests under REPRO_CORE subprocesses
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "flags",
    [
        pytest.param(("--failure-model", "fail-stop"), id="fail-stop"),
        pytest.param(
            ("--failure-model", "crash-recovery"), id="crash-recovery"
        ),
        pytest.param(
            ("--failure-model", "byzantine-crash"), id="byzantine-crash"
        ),
        # No detector traffic: the plan with the highest share of engine
        # events that reach the history recorder.
        pytest.param(("--detectors", "none"), id="detectors-none"),
    ],
)
def test_fuzz_digest_identical_across_cores(flags):
    argv = ("fuzz", "--seed", "2", "--count", "12", *flags)
    pure = _run_cli("pure", *argv)
    accel = _run_cli("accel", *argv)
    assert _digest_line(pure) == _digest_line(accel)


def test_sweep_digest_identical_across_cores():
    argv = ("sweep", "e7", "--seeds", "6", "--backend", "inproc")
    pure = _run_cli("pure", *argv)
    accel = _run_cli("accel", *argv)
    assert _digest_line(pure) == _digest_line(accel)
    # The table rows themselves, not just the hash, are identical.
    assert pure == accel


def test_repro_core_pure_forces_pure_implementation():
    """The REPRO_CORE=pure escape hatch really selects the pure core."""
    code = (
        "import repro, repro.sim.scheduler as s;"
        "info = repro.core_info();"
        "assert info['core'] == 'pure', info;"
        "assert info['selection'] == 'env', info;"
        "assert s.Scheduler is s.PureScheduler;"
        "print('ok')"
    )
    env = dict(os.environ, REPRO_CORE="pure")
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_journal_header_stamps_core(tmp_path):
    journal = tmp_path / "fuzz.jsonl"
    _run_cli("accel", "fuzz", "--seed", "1", "--count", "4",
             "--journal", str(journal))
    header = json.loads(journal.read_text().splitlines()[0])
    assert header["core"] == "accel"
    # A journal written under one core resumes under the other (results
    # are bit-identical, so the stamp is informational, not validated).
    resumed = _run_cli("pure", "fuzz", "--seed", "1", "--count", "4",
                       "--journal", str(journal), "--resume")
    fresh = _run_cli("pure", "fuzz", "--seed", "1", "--count", "4")
    assert _digest_line(resumed) == _digest_line(fresh)


# ---------------------------------------------------------------------------
# A build left over from a different _ccore.c is refused, not run
# ---------------------------------------------------------------------------


def test_stale_build_is_refused(tmp_path):
    staged = stage_src(tmp_path, extension=True)
    fresh = run_python(staged, None, "-m", "repro", "version")
    assert fresh.returncode == 0, fresh.stderr
    assert "event core: accel (auto-detected)" in fresh.stdout

    with open(staged / "repro" / "_accel" / "_ccore.c", "ab") as source:
        source.write(b"\n")
    reason = "built from a different _ccore.c; rerun python setup.py"
    auto = run_python(staged, None, "-m", "repro", "version")
    assert auto.returncode == 0, auto.stderr
    assert "event core: pure (auto-detected)" in auto.stdout
    assert reason in auto.stdout  # core_info()["accel_import_error"]
    forced = run_python(staged, "accel", "-m", "repro", "version")
    assert forced.returncode == 2
    assert forced.stderr.startswith("repro: REPRO_CORE=accel but")
    assert reason in forced.stderr
    assert forced.stderr.count("\n") == 1
