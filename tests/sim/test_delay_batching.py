"""Releasing a held channel: *k* messages, *k* ``sample`` calls.

``release_channel`` re-subjects every held message to the delay model —
one :meth:`~repro.sim.delays.DelayModel.sample` per message, in queue
order, with the channel's own ``(src, dst)`` — and the channel clock then
collapses the released queue into delivery bursts. The rng stream and the
delivery times must be exactly those of the per-message loop, whichever
event core is active: that is what keeps the batched network bit-identical
to the unbatched reference (``batch=False``). Property-tested for every
concrete model, :class:`PerChannelDelay` and a ``sample``-only subclass.
"""

import random
from itertools import accumulate

from hypothesis import given
from hypothesis import strategies as st

from repro.core.messages import MessageMint
from repro.sim.delays import (
    ConstantDelay,
    DelayModel,
    ExponentialDelay,
    LogNormalDelay,
    ParetoDelay,
    PerChannelDelay,
    UniformDelay,
)
from repro.sim.network import Network
from repro.sim.scheduler import Scheduler


class Tagged(DelayModel):
    """A model outside the shipped families: defines ``sample`` only."""

    def sample(self, rng, src, dst):
        return rng.random() + 10 * src + dst


MODELS = [
    ConstantDelay(delay=0.7),
    UniformDelay(low=0.2, high=2.0),
    ExponentialDelay(mean=1.3),
    LogNormalDelay(median=0.9, sigma=0.6),
    ParetoDelay(scale=0.4, alpha=1.7),
    PerChannelDelay(
        base=UniformDelay(low=0.1, high=1.0),
        slow_channels=(((0, 1), 3.0), ((2, 0), 10.0), ((0, 1), 99.0)),
    ),
    PerChannelDelay(base=ParetoDelay()),  # no slow channels at all
    Tagged(),
]

seeds = st.integers(0, 2**32 - 1)
pairs_strategy = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=50
)


def release_held(model, seed, pairs, batch=True):
    """Hold one message per entry of ``pairs``, release everything, run.

    Returns the rng state right after the release and the delivery log
    ``(src, dst, uid, time)``.
    """
    scheduler = Scheduler()
    rng = random.Random(seed)
    log = []
    network = Network(
        scheduler, 3, model, rng,
        deliver=lambda s, d, m, kind: log.append((s, d, m.uid, scheduler.now)),
        batch=batch,
    )
    mints = [MessageMint(i) for i in range(3)]
    for src, dst in pairs:
        network.block_channel(src, dst)
        network.send(src, dst, mints[src].mint("held"))
    assert network.release_all() == len(pairs)
    state = rng.getstate()
    scheduler.run()
    return state, log


def expected_release(sample, seed, pairs):
    """The per-message reference: channels in first-send order, each queue
    in FIFO order, one ``sample`` per message, dues clamped to the channel
    clock. Returns the rng state and ``{channel: [delivery times]}``."""
    rng = random.Random(seed)
    times = {}
    for channel in dict.fromkeys(pairs):
        delays = [sample(rng, *channel) for _ in range(pairs.count(channel))]
        times[channel] = list(accumulate(delays, max))
    return rng.getstate(), times


def times_by_channel(log):
    times = {}
    for src, dst, _, now in log:
        times.setdefault((src, dst), []).append(now)
    return times


@given(model=st.sampled_from(MODELS), seed=seeds, pairs=pairs_strategy)
def test_batch_equals_repeated_sample(model, seed, pairs):
    """Identical delivery times AND identical rng-stream consumption."""
    state, log = release_held(model, seed, pairs)
    want_state, want_times = expected_release(model.sample, seed, pairs)
    assert state == want_state
    assert times_by_channel(log) == want_times
    # Per channel the uids come out in send order (FIFO) ...
    for channel in want_times:
        uids = [uid for s, d, uid, _ in log if (s, d) == channel]
        assert uids == sorted(uids)
    # ... and the whole trace is the unbatched network's.
    assert (state, log) == release_held(model, seed, pairs, batch=False)


@given(seed=seeds, pairs=pairs_strategy)
def test_per_channel_factors_apply_to_right_positions(seed, pairs):
    """A release hands ``sample`` the released channel's own (src, dst):
    PerChannelDelay scales exactly the slow channel's messages."""
    base = UniformDelay(low=0.5, high=1.5)
    model = PerChannelDelay(base=base, slow_channels=(((1, 2), 4.0),))

    def scaled(rng, src, dst):
        raw = base.sample(rng, src, dst)
        return raw * 4.0 if (src, dst) == (1, 2) else raw

    _, log = release_held(model, seed, pairs)
    assert times_by_channel(log) == expected_release(scaled, seed, pairs)[1]


def test_first_slow_channel_occurrence_wins():
    """Duplicate slow-channel keys keep the first factor (documented)."""
    model = PerChannelDelay(
        base=ConstantDelay(delay=1.0),
        slow_channels=(((0, 1), 2.0), ((0, 1), 5.0)),
    )
    _, log = release_held(model, 0, [(0, 1), (1, 0)])
    assert times_by_channel(log) == {(0, 1): [2.0], (1, 0): [1.0]}
