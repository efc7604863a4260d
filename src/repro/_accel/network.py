"""Accelerated network surface (see ``repro.sim.network``).

The hot path — ``send``, burst formation, and burst draining — lives in
the C ``NetworkCore``; this subclass supplies the constructor defaults
and the unbatched delivery entry, and inherits the cold
adversary/introspection methods from the pure module.
"""

from __future__ import annotations

import random
from typing import Callable

from repro._accel._ccore import (  # noqa: F401  (re-exported surface)
    NetworkCore,
    _Burst,
    _ChannelState,
)
from repro.core.messages import Message

DeliverFn = Callable[[int, int, Message, str], None]


class Network(NetworkCore):
    """All n^2 channels (including self-channels, used by Section 5)."""

    def __init__(
        self,
        scheduler,
        n: int,
        delay_model=None,
        rng: random.Random | None = None,
        deliver: DeliverFn | None = None,
        batch: bool = True,
    ):
        super().__init__(
            scheduler,
            n,
            delay_model or UniformDelay(),
            rng or random.Random(0),
            deliver,
            batch,
        )

    # ------------------------------------------------------------------
    # Unbatched delivery (per-message closure; reference/debug path)
    # ------------------------------------------------------------------

    def _open_unbatched(
        self, state, src, dst, msg, kind, due, periodic
    ) -> None:
        """Per-message delivery entry for ``batch=False`` (cold path)."""

        def deliver() -> None:
            state.delivered += 1
            self.messages_delivered += 1
            deliver_fn = self._deliver_fn
            assert deliver_fn is not None
            deliver_fn(src, dst, msg, kind)

        self.delivery_entries += 1
        self._scheduler.schedule_callback_at(due, deliver, periodic=periodic)


# The cold adversary/introspection methods are inherited from the one
# definition in repro.sim.network. repro.sim is imported down here, once
# ``Network`` exists, because under the accel core repro.sim.network's
# rebind block imports ``Network`` from this module — so either module
# may be imported first.
from repro.sim.delays import UniformDelay  # noqa: E402
from repro.sim.network import _NetworkColdPaths  # noqa: E402

Network.__bases__ += (_NetworkColdPaths,)
