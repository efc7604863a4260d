"""Deterministic discrete-event simulation of the paper's system model.

The substrate everything runs on: a seeded event loop
(:class:`~repro.sim.scheduler.Scheduler`), reliable FIFO channels with
unbounded adversary-controllable delay (:class:`~repro.sim.network.Network`,
:class:`~repro.sim.adversary.Adversary`), process automata
(:class:`~repro.sim.process.SimProcess`), and a trace recorder that turns
executions into :mod:`repro.core` histories.

Built for scale: scheduler accounting is O(1) per event (incremental
pending counters plus eager compaction of cancelled heap entries), the
network delivery path short-circuits hold-rule scans when no adversary
rules are installed, and large multi-seed workloads can be fanned out
with :mod:`repro.analysis.sweep` (``python -m repro sweep``).

Quick example::

    from repro.sim import World, build_world
    from repro.protocols import SfsProcess

    world = build_world(9, lambda: SfsProcess(t=2), seed=7)
    world.inject_suspicion(0, 4, at=1.0)
    world.run_to_quiescence()
    history = world.history()
"""

from repro._lazy import lazy_namespace

__getattr__, __dir__ = lazy_namespace(globals(), {
    "Adversary": "adversary",
    "ConstantDelay": "delays",
    "DelayModel": "delays",
    "ExponentialDelay": "delays",
    "LogNormalDelay": "delays",
    "ParetoDelay": "delays",
    "PerChannelDelay": "delays",
    "UniformDelay": "delays",
    "FAULT_KINDS": "failures",
    "Fault": "failures",
    "FaultKindSpec": "failures",
    "apply_faults": "failures",
    "mutual_suspicion_plan": "failures",
    "random_byzantine_plan": "failures",
    "random_fault_plan": "failures",
    "random_recovery_plan": "failures",
    "RunnerStats": "multiworld",
    "ShardSpec": "multiworld",
    "ShardedRunner": "multiworld",
    "Network": "network",
    "SimProcess": "process",
    "Scheduler": "scheduler",
    "TimerHandle": "scheduler",
    "StableStore": "storage",
    "StorageHub": "storage",
    "TimedEvent": "trace",
    "TraceRecorder": "trace",
    "World": "world",
    "build_world": "world",
})

__all__ = [
    "Scheduler",
    "TimerHandle",
    "ShardSpec",
    "ShardedRunner",
    "RunnerStats",
    "Network",
    "Adversary",
    "SimProcess",
    "World",
    "build_world",
    "TraceRecorder",
    "TimedEvent",
    "DelayModel",
    "ConstantDelay",
    "UniformDelay",
    "ExponentialDelay",
    "LogNormalDelay",
    "ParetoDelay",
    "PerChannelDelay",
    "StableStore",
    "StorageHub",
    "Fault",
    "FaultKindSpec",
    "FAULT_KINDS",
    "apply_faults",
    "random_fault_plan",
    "random_recovery_plan",
    "random_byzantine_plan",
    "mutual_suspicion_plan",
]
