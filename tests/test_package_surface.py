"""The package surface is a contract, and import order is not.

The seven package ``__init__``s are lazy namespaces (``repro._lazy``): a
``name -> submodule`` table resolved on first access. These tests pin
what that must not change — every exported name, which object it is,
``dir()`` and ``import *`` — against a snapshot of the eager
``__init__``s they replaced, and check in child interpreters that any
module may be the first one a process imports.
"""

import pkgutil
import re
from importlib import import_module

import pytest

from tests.conftest import SRC, run_python

# ``__all__`` of each package at the last commit with eager imports, less
# the names deleted since, in order, each name prefixed with the submodule
# that defines it.
SURFACE = {
    "repro.analysis": """
        checker:ConformanceReport checker:analyze checker:report_from_monitors
        monitors:MonitorSet monitors:ConditionsMonitor monitors:BadPairCounter
        monitors:DEFAULT_HALT_ON metrics:RunMetrics metrics:DetectionLatency
        metrics:collect_metrics metrics:detection_latency
        metrics:detections_by_detector report:format_table
        report:dataclass_table report:print_table experiments:E1Row
        experiments:E2Row experiments:E3Row experiments:E4Row
        experiments:E5Row experiments:E6Row experiments:E7Row
        experiments:E8Row experiments:E9Row experiments:E10Row
        experiments:run_e1 experiments:run_e2 experiments:run_e3
        experiments:run_e3_single experiments:run_e4 experiments:run_e5
        experiments:run_e6 experiments:run_e7 experiments:run_e8
        experiments:run_e9 experiments:run_e10 extensions:E11Row
        extensions:A1Row extensions:E14Row extensions:run_e11
        extensions:run_a1 extensions:run_e14 extensions:build_monitor_world
        extensions:MonitorRunResult extensions:run_monitor_case
        extensions:run_monitor_job experiments:SEEDED_DRIVERS
        experiments:seeded_driver sweep:SweepCase sweep:SweepRow
        sweep:SWEEP_BACKENDS sweep:available_experiments sweep:case_to_job
        sweep:job_to_case sweep:plan_cases sweep:run_case sweep:run_sweep
        sweep:run_sweep_job sweep:rows_digest sweep:sweep_table
        fuzz:FuzzConfig fuzz:FuzzOutcome fuzz:FuzzReport fuzz:FUZZ_BACKENDS
        fuzz:Scenario fuzz:DEFAULT_CONFIG fuzz:build_scenario_world
        fuzz:expected_clean fuzz:generate_scenario fuzz:job_scenario
        fuzz:run_fuzz fuzz:run_fuzz_job fuzz:scenario_job
    """,
    "repro.core": """
        events:Event events:SendEvent events:RecvEvent events:CrashEvent
        events:RecoverEvent events:FailedEvent events:InternalEvent
        events:send events:recv events:crash events:recover events:failed
        events:internal events:is_send events:is_recv events:is_crash
        events:is_recover events:is_failed events:is_internal
        events:channel_of events:message_of messages:Message
        messages:MessageMint messages:make_messages history:History
        history:HistoryBuilder history:isomorphic history:find_message_chains
        history:messages_in_flight runs:Run runs:GlobalState runs:run_of
        validate:validate_history validate:is_valid validate:check_valid
        semantics:MachineState semantics:can_occur semantics:apply_event
        semantics:replay semantics:is_executable failure_models:FailureModel
        failure_models:FAILURE_MODELS failure_models:FAILURE_MODEL_NAMES
        failure_models:get_failure_model failure_models:CheckResult
        failure_models:check_recovery failure_models:check_fs1
        failure_models:check_fs2 failure_models:check_fs
        failure_models:check_sfs2a failure_models:check_sfs2b
        failure_models:check_sfs2c failure_models:check_sfs2d
        failure_models:check_sfs failure_models:check_condition1
        failure_models:check_condition2 failure_models:check_condition3
        failure_models:check_necessary_conditions
        failed_before:failed_before_pairs failed_before:failed_before_graph
        failed_before:is_acyclic failed_before:find_cycle
        failed_before:is_transitive failed_before:last_failed_candidates
        indistinguishability:ensure_crashes indistinguishability:bad_pairs
        indistinguishability:fail_stop_witness
        indistinguishability:fail_stop_witness_by_commutation
        indistinguishability:distinguishability_certificate
        indistinguishability:is_internally_fail_stop
        indistinguishability:verify_witness quorum:QuorumRecord
        quorum:witness_property quorum:common_witnesses
        quorum:pairwise_intersecting quorum:t_wise_intersecting
        quorum:counterexample_family bounds:min_quorum_size
        bounds:max_tolerable_t bounds:feasible_fixed_quorum
        bounds:feasible_wait_for_all bounds:acks_to_wait_for
        bounds:check_protocol_parameters bounds:bounds_table bounds:BoundsRow
    """,
    "repro.sim": """
        scheduler:Scheduler scheduler:TimerHandle multiworld:ShardSpec
        multiworld:ShardedRunner multiworld:RunnerStats network:Network
        adversary:Adversary process:SimProcess world:World world:build_world
        trace:TraceRecorder trace:TimedEvent delays:DelayModel
        delays:ConstantDelay delays:UniformDelay delays:ExponentialDelay
        delays:LogNormalDelay delays:ParetoDelay delays:PerChannelDelay
        storage:StableStore storage:StorageHub failures:Fault failures:FaultKindSpec
        failures:FAULT_KINDS failures:apply_faults failures:random_fault_plan
        failures:random_recovery_plan failures:random_byzantine_plan
        failures:mutual_suspicion_plan
    """,
    "repro.exec": """
        job:JobSpec job:job_digest job:plan_digest job:resolve_kind
        job:run_job job:shard_form executors:Executor executors:SerialExecutor
        executors:ParallelExecutor executors:InprocExecutor
        remote:RemoteExecutor remote:RemoteStats remote:parse_worker_spec
        remote:run_worker executors:EXEC_BACKENDS executors:default_backend
        executors:effective_backend
        executors:make_executor sink:ResultSink sink:CollectSink
        journal:Journal core:run_jobs
    """,
    "repro.apps": """
        ben_or:BenOrProcess ben_or:DECIDE ben_or:decided_values
        ben_or:decision_events ben_or:check_consensus election:ElectionProcess
        election:LeadershipProfile election:leadership_profile
        election:leaders_at_every_state election:max_concurrent_leaders
        election:BECOME_LEADER last_to_fail:FailureLog
        last_to_fail:RecoveryVerdict last_to_fail:collect_logs
        last_to_fail:recover_last_to_fail last_to_fail:simulated_crash_order
        last_to_fail:verdict_is_correct
        last_to_fail:two_process_counterexample_shape
        membership:MembershipProcess membership:MembershipReport
        membership:check_membership membership:check_exclusion_propagation
        membership:VIEW_CHANGE snapshot:SnapshotProcess snapshot:LocalSnapshot
        snapshot:Marker snapshot:verify_consistent_cut snapshot:cut_indices
        snapshot:assemble_global_snapshot
    """,
    "repro.protocols": """
        base:DetectionProcess sfs:SfsProcess transitive:TransitiveSfsProcess
        generic:GenericOneRoundProcess unilateral:UnilateralProcess
        payloads:Susp payloads:Ack transitive:KSusp
        payloads:is_protocol_payload transitive:transitivity_gaps
        transitive:transitivity_ratio quorum_policy:QuorumPolicy
        quorum_policy:FixedQuorum quorum_policy:WaitForAll
        recovery:make_recovering recovery:is_recovering
    """,
    "repro.detectors": """
        base:HEARTBEAT base:ClockSource base:ManualClock base:MonotonicClock
        base:PeerMonitor base:SuspicionDriver base:SuspicionLog
        heartbeat:HeartbeatDriver heartbeat:HeartbeatMonitor
        phi_accrual:PhiAccrualDriver phi_accrual:PhiAccrualEstimator
        phi_accrual:PhiAccrualMonitor
    """,
}


def surface(package):
    return [entry.split(":") for entry in SURFACE[package].split()]


@pytest.mark.parametrize("package", SURFACE)
class TestSurface:
    def test_all_is_unchanged(self, package):
        names = [name for _, name in surface(package)]
        assert import_module(package).__all__ == names

    def test_each_name_is_its_submodules_object_and_is_cached(self, package):
        pkg = import_module(package)
        for submodule, name in surface(package):
            vars(pkg).pop(name, None)  # as in a process that never read it
            value = getattr(pkg, name)
            assert value is getattr(
                import_module(f"{package}.{submodule}"), name
            )
            # The second read is a plain attribute read, not __getattr__.
            assert vars(pkg)[name] is value
        assert set(dir(pkg)) >= set(pkg.__all__)

    def test_star_import_binds_exactly_all(self, package):
        bound = {}
        exec(f"from {package} import *", bound)
        del bound["__builtins__"]
        assert sorted(bound) == sorted(import_module(package).__all__)

    def test_unknown_name_is_an_attribute_error_naming_the_package(
        self, package
    ):
        pkg = import_module(package)
        with pytest.raises(AttributeError, match=re.escape(repr(package))):
            pkg.no_such_name
        with pytest.raises(ImportError, match="no_such_name"):
            exec(f"from {package} import no_such_name")


# Lazy __init__s change who imports repro.sim.network first. The compiled
# Network is a class statement in that module's own core-selection block
# (repro._accel._ccore imports nothing from repro, so there is no order
# to get right), and there is no repro._accel.network to import instead.
_IMPORTED_FIRST = """
import importlib.util, sys
core, first = sys.argv[1:]
module = importlib.import_module(first)
for name in getattr(module, "__all__", ()):  # a package: in table order
    getattr(module, name)
import repro
from repro.sim import network, scheduler
assert repro.core_info()["core"] == core
if core == "accel":
    from repro._accel import _ccore
    assert network.Network.__mro__ == (
        network.Network, _ccore.NetworkCore, network._NetworkColdPaths, object
    )
    assert network.Network.__module__ == "repro.sim.network"
    assert scheduler.Scheduler is _ccore.Scheduler
    assert importlib.util.find_spec("repro._accel.network") is None
else:
    assert network.Network is network.PureNetwork
    assert scheduler.Scheduler is scheduler.PureScheduler
    assert "repro._accel" not in sys.modules
cold = [
    name for name, value in vars(network._NetworkColdPaths).items()
    if callable(value)
]
assert len(cold) == 9, cold
for name in cold:
    assert getattr(network.Network, name) is getattr(network.PureNetwork, name)
assert not hasattr(scheduler.Scheduler, "_peek")
assert not hasattr(scheduler.PureScheduler, "_peek")
assert repro.sim.Network is network.Network
assert repro.sim.Scheduler is scheduler.Scheduler
"""

_ENTRY_POINTS = [
    *SURFACE,
    *(
        info.name
        for package in ("sim", "exec", "_accel")
        for info in pkgutil.iter_modules(
            [str(SRC / "repro" / package)], f"repro.{package}."
        )
    ),
]


@pytest.mark.parametrize("first", _ENTRY_POINTS)
@pytest.mark.parametrize("core", ["pure", "accel"])
def test_any_module_may_be_imported_first(core, first):
    if core == "accel":
        pytest.importorskip("repro._accel._ccore")
    elif first.startswith("repro._accel"):
        pytest.skip("the pure core never imports the compiled one")
    proc = run_python(SRC, core, "-c", _IMPORTED_FIRST, core, first)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("core", ["pure", "accel"])
def test_sweep_registry_is_complete_without_the_package_init(core):
    """Driver registration is repro.analysis.sweep's own import of
    experiments and extensions, not a side effect of the (now lazy)
    repro.analysis ``__init__``."""
    if core == "accel":
        pytest.importorskip("repro._accel._ccore")
    proc = run_python(
        SRC, core, "-c",
        "from repro.analysis.sweep import available_experiments\n"
        "print(*available_experiments())",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "a1", "e1", "e10", "e11", "e14", "e17", "e2", "e5", "e7", "e8", "e9",
    ]
