"""Applications built on the simulated-fail-stop failure model.

* :mod:`repro.apps.election` — the Section 1 list-based leader election.
* :mod:`repro.apps.last_to_fail` — Skeen's determining-the-last-process-
  to-fail, Section 6's sensitivity case for sFS2b.
* :mod:`repro.apps.membership` — a view-based membership service whose
  core invariant is sFS2d lifted to views.
* :mod:`repro.apps.snapshot` — Chandy-Lamport consistent snapshots
  ([CL85], the paper's stability citation) over the same substrate.
* :mod:`repro.apps.ben_or` — Ben-Or randomized binary consensus,
  crash-recovery-aware via stable storage; the workout for the
  pluggable failure-model layer (experiment E17).
"""

from repro._lazy import lazy_namespace

__getattr__, __dir__ = lazy_namespace(globals(), {
    "DECIDE": "ben_or",
    "BenOrProcess": "ben_or",
    "check_consensus": "ben_or",
    "decided_values": "ben_or",
    "decision_events": "ben_or",
    "BECOME_LEADER": "election",
    "ElectionProcess": "election",
    "LeadershipProfile": "election",
    "leaders_at_every_state": "election",
    "leadership_profile": "election",
    "max_concurrent_leaders": "election",
    "FailureLog": "last_to_fail",
    "RecoveryVerdict": "last_to_fail",
    "collect_logs": "last_to_fail",
    "recover_last_to_fail": "last_to_fail",
    "simulated_crash_order": "last_to_fail",
    "two_process_counterexample_shape": "last_to_fail",
    "verdict_is_correct": "last_to_fail",
    "VIEW_CHANGE": "membership",
    "MembershipProcess": "membership",
    "MembershipReport": "membership",
    "check_exclusion_propagation": "membership",
    "check_membership": "membership",
    "LocalSnapshot": "snapshot",
    "Marker": "snapshot",
    "SnapshotProcess": "snapshot",
    "assemble_global_snapshot": "snapshot",
    "cut_indices": "snapshot",
    "verify_consistent_cut": "snapshot",
})

__all__ = [
    "BenOrProcess",
    "DECIDE",
    "decided_values",
    "decision_events",
    "check_consensus",
    "ElectionProcess",
    "LeadershipProfile",
    "leadership_profile",
    "leaders_at_every_state",
    "max_concurrent_leaders",
    "BECOME_LEADER",
    "FailureLog",
    "RecoveryVerdict",
    "collect_logs",
    "recover_last_to_fail",
    "simulated_crash_order",
    "verdict_is_correct",
    "two_process_counterexample_shape",
    "MembershipProcess",
    "MembershipReport",
    "check_membership",
    "check_exclusion_propagation",
    "VIEW_CHANGE",
    "SnapshotProcess",
    "LocalSnapshot",
    "Marker",
    "verify_consistent_cut",
    "cut_indices",
    "assemble_global_snapshot",
]
