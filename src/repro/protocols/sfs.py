"""The Section 5 one-round simulated-fail-stop protocol.

The paper's protocol, verbatim (with SUSP = ACK.SUSP = ``"j failed"``):

* When process *i* suspects the failure of *j*, *i* sends ``"j failed"``
  to **all** processes, *including itself*, and from then on takes no
  other action except acknowledging suspicion traffic until the protocol
  completes or *i* crashes.
* When *i* has received ``"j failed"`` from **more than** ``n(t-1)/t``
  processes (including itself), *i* executes ``failed_i(j)``.
* When *x* receives ``"x failed"`` — its own name — *x* executes
  ``crash_x``.
* When *x* receives ``"y failed"`` for another *y*, *x* suspects *y*
  (broadcasting its own ``"y failed"``, which doubles as the
  acknowledgement).

Why each sFS property holds (Section 5's argument, enforced here):

* **sFS2a**: detecting *j* required broadcasting ``"j failed"`` to
  everyone including *j*; channels are reliable, so *j* eventually reads
  its own name and crashes.
* **sFS2b**: quorums of legal size always share a witness (Theorem 7);
  the witness's FIFO channels order its echoes, and whoever's name it
  echoed first crashes before completing its own detection (Lemma 9).
* **sFS2c**: a process reads its own name — and crashes — before it could
  ever assemble a quorum about itself.
* **sFS2d**: application traffic sent after ``failed_i(j)`` follows
  ``"j failed"`` on the same FIFO channel, and the receiver defers
  application consumption while its own detection round is open.

``enforce_bounds=False`` lets experiments run the protocol with illegal
quorum sizes to show the Theorem 7 bound is tight (experiment E5).
"""

from __future__ import annotations


from repro.core.bounds import check_protocol_parameters
from repro.core.messages import Message
from repro.errors import ProtocolError
from repro.protocols.base import DetectionProcess
from repro.protocols.payloads import Susp
from repro.protocols.quorum_policy import FixedQuorum, QuorumPolicy, WaitForAll


_NO_CONFIRMATIONS: frozenset[int] = frozenset()


class SfsProcess(DetectionProcess):
    """A process running the simulated-fail-stop echo protocol.

    Args:
        t: maximum failures (crashes + erroneous suspicions) per run.
        quorum_size: confirmations to wait for; default = the minimum
            legal size ``floor(n(t-1)/t) + 1`` (resolved at bind time).
        policy: alternatively, a :class:`QuorumPolicy`; overrides
            ``quorum_size``.
        enforce_bounds: validate (n, t, quorum) against Theorem 7 /
            Corollary 8 at bind time — disable only to study violations.
        defer_app: honour the paper's "takes no other action" clause by
            deferring application messages while a round is open. This is
            what yields sFS2d; disable only for the ablation experiment
            (A1), which shows the property then genuinely breaks.
        detector: optional suspicion source driving :meth:`suspect`.
    """

    def __init__(
        self,
        t: int = 1,
        quorum_size: int | None = None,
        policy: QuorumPolicy | None = None,
        enforce_bounds: bool = True,
        defer_app: bool = True,
        detector=None,
    ):
        super().__init__(detector=detector)
        self.t = t
        self._requested_quorum = quorum_size
        self._policy = policy
        self._enforce_bounds = enforce_bounds
        self.defer_app = defer_app
        # Confirmations per target: who has echoed '"target failed"' to us.
        self._confirmations: dict[int, set[int]] = {}
        # FixedQuorum's threshold, resolved at bind time; None for a
        # policy that has to be asked (see _quorum_reached).
        self._fixed_size: int | None = None

    def bind(self, world, pid: int) -> None:
        super().bind(world, pid)
        if self._policy is None:
            if self._enforce_bounds:
                size = check_protocol_parameters(
                    self.n, self.t, self._requested_quorum
                )
            else:
                size = self._requested_quorum
            self._policy = FixedQuorum(self.t, size)
        elif self._enforce_bounds and isinstance(self._policy, FixedQuorum):
            check_protocol_parameters(
                self.n, self._policy.t, self._policy.resolved_size(self.n)
            )
        if type(self._policy) is FixedQuorum:
            self._fixed_size = self._policy.resolved_size(self.n)

    @property
    def policy(self) -> QuorumPolicy:
        """The active quorum policy."""
        assert self._policy is not None
        return self._policy

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------

    def suspect(self, target: int) -> None:
        """Start (or join) the one-round protocol for ``target``.

        Idempotent per target. Broadcasting ``"target failed"`` to all
        processes *including ourselves* doubles as our own confirmation.
        """
        if self.crashed or target in self.detected or target in self.suspected:
            return
        if target == self.pid:
            raise ProtocolError("a process does not suspect itself")
        self.suspected.add(target)
        self._confirmations.setdefault(target, set())
        self.broadcast(Susp(target), include_self=True, kind="protocol")

    def on_protocol_message(self, src: int, payload, msg: Message) -> None:
        if isinstance(payload, Susp):
            self._on_susp(src, payload.target)

    def consume(self, src: int, msg: Message) -> None:
        # Application traffic waits while any detection round is open
        # ("takes no other action except acknowledging" -> sFS2d).
        if self.defer_app and self.detection_open():
            self.defer_app_message(src, msg)
            return
        self.world.trace.record_recv(self.now, self.pid, src, msg)
        self.on_app_message(src, msg.payload, msg)

    def _on_susp(self, src: int, target: int) -> None:
        if target == self.pid:
            # "When process x receives a message of the form 'x failed',
            #  x executes crash_x."
            self.crash_now()
            return
        confirmations = self._confirmations.get(target)
        if confirmations is None:
            confirmations = self._confirmations[target] = set()
        confirmations.add(src)
        # Receiving '"y failed"' means we suspect y too (echo = ack).
        self.suspect(target)
        self._check_quorum(target)

    def _quorum_reached(self, target: int) -> bool:
        """Whether ``target``'s round has the confirmations it waits for.

        A round is n^2 deliveries and each one lands here, so the common
        policy is a length test on the live set; only a policy that reads
        the suspected set (:class:`WaitForAll`) has it built.
        """
        confirmations = self._confirmations.get(target, _NO_CONFIRMATIONS)
        size = self._fixed_size
        if size is not None:
            return len(confirmations) >= size
        assert self._policy is not None
        return self._policy.satisfied(
            self.n, confirmations, self.suspected | self.detected
        )

    def _check_quorum(self, target: int) -> None:
        if self.crashed or target in self.detected:
            return
        if self._quorum_reached(target):
            # Only the quorum that gets recorded is copied (and frozen).
            self.execute_failed(
                target, frozenset(self._confirmations.get(target, ()))
            )
            self.flush_deferred()

    def on_detect(self, target: int) -> None:
        """Hook kept for applications; re-check other open rounds too.

        Under :class:`WaitForAll`, learning that ``target`` failed shrinks
        the required set of every other open round, possibly completing it.
        """
        if isinstance(self._policy, WaitForAll):
            for other in list(self.suspected - self.detected):
                self._check_quorum(other)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def confirmations_for(self, target: int) -> frozenset[int]:
        """Who has confirmed ``"target failed"`` to this process so far."""
        return frozenset(self._confirmations.get(target, ()))

    def open_rounds(self) -> frozenset[int]:
        """Targets with an incomplete detection round at this process."""
        return frozenset(self.suspected - self.detected)
