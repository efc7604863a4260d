"""An asyncio host for the simulator's process objects.

A :class:`~repro.sim.process.SimProcess` reaches its world through a few
names only, and :class:`AsyncioWorld` supplies each of them on the wall
clock, so :class:`~repro.protocols.sfs.SfsProcess`, its variants, the
:func:`~repro.protocols.recovery.make_recovering` wrapper and the
heartbeat / phi-accrual drivers run here unchanged — the same objects the
theorem checks, monitors and fuzz digests exercise.

The host interface — everything a :class:`~repro.sim.process.SimProcess`,
a :class:`~repro.protocols.base.DetectionProcess` or a suspicion driver
(:mod:`repro.detectors`) touches of its world:

* ``world.n`` — the number of processes;
* ``world.scheduler._now`` — the current time (the simulator's virtual
  float, here seconds since the clock was built);
* ``world.scheduler.schedule(delay, callback, periodic=False)`` — a local
  timer (``SimProcess.set_timer``); the handle it returns has ``cancel()``
  and ``active``;
* ``world.scheduler.schedule_callback_at(time, callback, periodic)`` — the
  same without a handle (the drivers' ``PeriodicLoop``);
* ``world.network.send(src, dst, msg, kind)`` and
  ``world.network.fanout(src, dsts, mint, payload, kind)`` — carry
  already-minted messages (``fanout`` mints one per destination from the
  sender's ``MessageMint``) on per-channel FIFO links;
* ``world.transmit(src, dst, msg, kind)`` — app sends, which it records;
* ``world.trace.record_recv`` / ``record_crash`` / ``record_recover`` /
  ``record_failed`` / ``record_quorum`` / ``record_internal`` — the
  history the checkers judge;
* ``world.storage.slot(pid)`` — stable storage (crash-recovery only).

The :class:`~repro.sim.world.World` itself adds ``scheduler.now`` and
``scheduler.schedule_at`` (its ``inject_*`` methods) and
``scheduler.request_stop`` (``attach_monitor(stop_on_violation=True)``).
:class:`AsyncioWorld` is a ``World`` whose ``scheduler`` and ``network``
are the :class:`AsyncioClock` and the
:class:`~repro.runtime.transport.LocalTransport` below, so everything else
— ``transmit``, the injectors, streaming monitors, ``history()`` — is the
simulator's own code.

An exception raised by any callback the host runs (a delivery, a timer, a
detector tick, an injected fault) ends the run: :meth:`AsyncioWorld.run_for`
re-raises it.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Sequence

from repro.core.failure_models import FailureModel
from repro.runtime.transport import LocalTransport
from repro.sim.delays import DelayModel, UniformDelay
from repro.sim.process import SimProcess
from repro.sim.world import World


class _Timer:
    """Handle of one :meth:`AsyncioClock.schedule_at` callback."""

    __slots__ = ("active", "_callback", "_handle")

    def __init__(
        self, clock: "AsyncioClock", time: float, callback: Callable[[], None]
    ):
        self.active = True
        self._callback = callback
        self._handle = clock._call_at(time, self._fire)

    def _fire(self) -> None:
        self.active = False
        self._callback()

    def cancel(self) -> None:
        """Prevent the callback from running (idempotent)."""
        self.active = False
        self._handle.cancel()


class AsyncioClock:
    """The simulator ``Scheduler``'s calls, served by the running event loop.

    Time is seconds since construction; ``periodic`` is accepted and
    ignored (it only feeds the simulator's quiescence accounting). Every
    callback runs through one guard: once :attr:`done` is resolved — the
    run ended, was stopped, or a callback raised — nothing else runs, and
    a raising callback resolves it with its exception.
    """

    def __init__(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._epoch = self._loop.time()
        self.done: asyncio.Future = self._loop.create_future()

    @property
    def _now(self) -> float:
        return self._loop.time() - self._epoch

    now = _now

    def schedule(
        self, delay: float, callback: Callable[[], None], periodic: bool = False
    ) -> _Timer:
        """Run ``callback`` after ``delay`` seconds."""
        return self.schedule_at(self._now + delay, callback)

    def schedule_at(
        self, time: float, callback: Callable[[], None], periodic: bool = False
    ) -> _Timer:
        """Run ``callback`` at ``time`` seconds (at once if that has passed)."""
        return _Timer(self, time, callback)

    def schedule_callback_at(
        self, time: float, callback: Callable[[], None], periodic: bool = False
    ) -> None:
        """:meth:`schedule_at` without a handle."""
        self._call_at(time, callback)

    def request_stop(self) -> None:
        """End the run after the current callback."""
        if not self.done.done():
            self.done.set_result(None)

    def _call_at(
        self, time: float, callback: Callable[[], None]
    ) -> asyncio.TimerHandle:
        return self._loop.call_at(self._epoch + time, self._run, callback)

    def _run(self, callback: Callable[[], None]) -> None:
        done = self.done
        if done.done():
            return
        try:
            callback()
        except Exception as exc:
            if not done.done():
                done.set_exception(exc)


class AsyncioWorld(World):
    """A :class:`~repro.sim.world.World` on the wall clock.

    Must be built inside a running event loop; drive it with
    :meth:`run_for`. Bad wiring fails at construction exactly as in the
    simulator (``bind`` checks protocol bounds, ``inject_*`` check pids).

    Args:
        processes: the process objects, index = pid.
        delay_model: per-message delay (default ``UniformDelay(0.5, 1.5)``),
            in units scaled by ``time_scale`` into seconds.
        seed: seeds the delay draws.
        time_scale: seconds per delay-model unit.
        failure_model: as for :class:`~repro.sim.world.World`.
    """

    def __init__(
        self,
        processes: Sequence[SimProcess],
        delay_model: DelayModel | None = None,
        seed: int = 0,
        time_scale: float = 0.01,
        failure_model: str | FailureModel = "fail-stop",
    ):
        super().__init__(processes, seed=seed, failure_model=failure_model)
        # The simulator's scheduler and network built above are replaced
        # before anything is scheduled or sent; processes look both up
        # through the world on every use.
        self.scheduler = AsyncioClock()
        self.network = LocalTransport(
            self.scheduler,
            self.n,
            self._on_deliver,
            delay_model or UniformDelay(0.5, 1.5),
            self.rng,
            time_scale,
        )

    async def run_for(self, duration: float) -> None:
        """Start the processes and run for ``duration`` seconds.

        Returns early if the run is stopped, and re-raises the first
        exception any callback raised. Nothing runs afterwards.
        """
        done = self.scheduler.done
        try:
            self.start()
            await asyncio.wait((done,), timeout=duration)
        finally:
            self.scheduler.request_stop()
        done.result()
