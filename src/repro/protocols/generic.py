"""The generic one-round SUSP/ACK skeleton that Section 4 reasons about.

"In the first half of the round, process *i* sends a message to all other
processes; in the second half of the round, processes send an
acknowledgement to *i*." The skeleton is *not* the Section 5 protocol:
acknowledgements go only to the initiator and receivers do not echo the
suspicion as their own. It exists to make the lower-bound machinery
concrete:

* its quorum sets are exactly Definition 5's ``Q_ij``;
* run under the Theorem 6 adversary (suspicion traffic about each target
  held away from the target's shield set), it produces k-cycles in
  failed-before precisely when quorums are small enough for the Witness
  Property to fail — the Appendix A.3 construction, executable;
* even with legal quorum sizes it does **not** implement sFS2b (the echo
  and crash-on-own-name structure of Section 5 is what converts the
  Witness Property from necessary to sufficient), which experiments
  demonstrate by comparison.

With ``notify_target=True`` the suspicion notice is also sent to the
target, which crashes on reading its own name (discharging sFS2a
mechanically, as in Section 5). The default is ``False`` — you do not
write to a process you believe dead — matching Section 4's abstract
analysis, where the crash obligation of an erroneous detection is an
*eventual* one (discharged here by finite-prefix completion,
:func:`repro.core.indistinguishability.ensure_crashes`).
"""

from __future__ import annotations

from repro.core.messages import Message
from repro.errors import ProtocolError
from repro.protocols.base import DetectionProcess
from repro.protocols.payloads import Ack, Susp


class GenericOneRoundProcess(DetectionProcess):
    """One-round SUSP -> ACK failure detection with a fixed quorum.

    Args:
        quorum_size: total confirmations required, *counting the
            initiator itself* ("since i is in its own quorum"). No bounds
            are enforced — probing illegal sizes is this class's job.
        notify_target: whether the SUSP notice is also sent to the
            suspected process (see module docstring).
        detector: optional suspicion source.
    """

    def __init__(self, quorum_size: int, notify_target: bool = False, detector=None):
        super().__init__(detector=detector)
        if quorum_size < 1:
            raise ProtocolError("quorum size must be at least 1")
        self.quorum_size = quorum_size
        self.notify_target = notify_target
        self._acks: dict[int, set[int]] = {}

    def suspect(self, target: int) -> None:
        """First half of the round: notify everyone of the suspicion."""
        if self.crashed or target in self.detected or target in self.suspected:
            return
        if target == self.pid:
            raise ProtocolError("a process does not suspect itself")
        self.suspected.add(target)
        self._acks.setdefault(target, {self.pid})  # in our own quorum
        notified = self.peers
        if not self.notify_target:
            notified = [dst for dst in notified if dst != target]
        self.world.network.fanout(
            self.pid, notified, self._mint, Susp(target), "protocol"
        )
        self._check_quorum(target)

    def on_protocol_message(self, src: int, payload, msg: Message) -> None:
        if isinstance(payload, Susp):
            if payload.target == self.pid:
                self.crash_now()
                return
            # Second half of the round: acknowledge to the initiator only.
            self.send(src, Ack(payload.target), kind="protocol")
            return
        if isinstance(payload, Ack):
            self._on_ack(src, payload.target)

    def consume(self, src: int, msg: Message) -> None:
        self.world.trace.record_recv(self.now, self.pid, src, msg)
        self.on_app_message(src, msg.payload, msg)

    def _on_ack(self, src: int, target: int) -> None:
        if target not in self.suspected:
            return  # stale ack for a round we never started
        self._acks.setdefault(target, {self.pid}).add(src)
        self._check_quorum(target)

    def _check_quorum(self, target: int) -> None:
        if self.crashed or target in self.detected:
            return
        acks = self._acks.get(target, ())
        if len(acks) >= self.quorum_size:
            self.execute_failed(target, frozenset(acks))

    def acks_for(self, target: int) -> frozenset[int]:
        """Current confirmation set for an open round."""
        return frozenset(self._acks.get(target, ()))
