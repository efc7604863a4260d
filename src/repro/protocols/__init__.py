"""Failure-detection protocols from the paper.

* :class:`~repro.protocols.sfs.SfsProcess` — Section 5's one-round echo
  protocol; implements the full simulated-fail-stop model (FS1 given a
  suspicion source, plus sFS2a-d).
* :class:`~repro.protocols.generic.GenericOneRoundProcess` — Section 4's
  SUSP/ACK skeleton, for the lower-bound experiments (quorums, Witness
  Property, the Theorem 6 cycle construction).
* :class:`~repro.protocols.unilateral.UnilateralProcess` — Section 6's
  cheap model: everything but sFS2b.
"""

from repro._lazy import lazy_namespace

__getattr__, __dir__ = lazy_namespace(globals(), {
    "DetectionProcess": "base",
    "GenericOneRoundProcess": "generic",
    "Ack": "payloads",
    "Susp": "payloads",
    "is_protocol_payload": "payloads",
    "FixedQuorum": "quorum_policy",
    "QuorumPolicy": "quorum_policy",
    "WaitForAll": "quorum_policy",
    "is_recovering": "recovery",
    "make_recovering": "recovery",
    "SfsProcess": "sfs",
    "KSusp": "transitive",
    "TransitiveSfsProcess": "transitive",
    "transitivity_gaps": "transitive",
    "transitivity_ratio": "transitive",
    "UnilateralProcess": "unilateral",
})

__all__ = [
    "DetectionProcess",
    "SfsProcess",
    "TransitiveSfsProcess",
    "GenericOneRoundProcess",
    "UnilateralProcess",
    "Susp",
    "Ack",
    "KSusp",
    "is_protocol_payload",
    "transitivity_gaps",
    "transitivity_ratio",
    "QuorumPolicy",
    "FixedQuorum",
    "WaitForAll",
    "make_recovering",
    "is_recovering",
]
