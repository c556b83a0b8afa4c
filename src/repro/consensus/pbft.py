"""Simplified PBFT (Castro–Liskov) as a reusable component.

Single-shot consensus per ``instance`` id among ``n`` replicas tolerating
``f < n/3`` Byzantine faults:

* the view-``v`` primary (``peers[v mod n]``) broadcasts
  ``PRE-PREPARE(instance, v, value)``;
* replicas accept the first pre-prepare per (instance, view) and
  broadcast ``PREPARE``; on ``2f+1`` matching prepares they hold a
  *prepared certificate* and broadcast ``COMMIT``;
* on ``2f+1`` commits they decide.

View change (timeout-driven): replicas broadcast ``VIEW-CHANGE`` carrying
their prepared certificate (if any); on ``2f+1`` view-change messages for
view ``v+1`` the new primary re-proposes the certified value of the
highest view among the certificates, or its own buffered proposal if none
— preserving the decided-value-lock that gives PBFT its safety.

Simplifications vs. production PBFT: no checkpointing/garbage collection,
no batching, message authenticity is structural (the simulator delivers
true sender names — the "authenticated channels" of §5), and new-view
legitimacy is not counter-signed.  These do not affect the safety and
liveness scenarios exercised here (crash or equivocating primary, crash
followers, partial synchrony after GST).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.consensus.relay import QuorumRelay
from repro.crypto.hashing import hash_hex
from repro.net.process import SimProcess

__all__ = ["PBFTComponent"]

PREPREPARE = "pbft-preprepare"
PREPARE = "pbft-prepare"
COMMIT = "pbft-commit"
VIEWCHANGE = "pbft-viewchange"


@dataclass
class _Instance:
    """Per-instance replica state."""

    view: int = 0
    proposal: Any = None            # this replica's own input value
    pre_prepared: Dict[int, Any] = field(default_factory=dict)  # view → value
    prepares: Dict[Tuple[int, str], Set[str]] = field(default_factory=dict)
    commits: Dict[Tuple[int, str], Set[str]] = field(default_factory=dict)
    prepared_cert: Optional[Tuple[int, Any]] = None  # (view, value)
    committed_sent: Set[int] = field(default_factory=set)
    viewchange_votes: Dict[int, Dict[str, Optional[Tuple[int, Any]]]] = field(
        default_factory=dict
    )
    decided: bool = False
    decision: Any = None


class PBFTComponent:
    """PBFT engine attached to a host :class:`SimProcess`.

    Parameters
    ----------
    host:
        The owning simulated process (used for send/broadcast/timers).
    peers:
        All replica names (including the host), fixed membership.
    on_decide:
        Callback ``(instance_id, value)`` invoked exactly once per
        instance on this replica.
    timeout:
        View-change timeout (simulated time units).
    byzantine_equivocate:
        Test hook — when ``True`` and this replica is primary, it sends
        conflicting pre-prepares to different replicas.
    """

    def __init__(
        self,
        host: SimProcess,
        peers: List[str],
        on_decide: Callable[[Any, Any], None],
        timeout: float = 10.0,
        byzantine_equivocate: bool = False,
    ) -> None:
        self.host = host
        self.peers = sorted(peers)
        self.n = len(self.peers)
        self.f = (self.n - 1) // 3
        self.quorum = 2 * self.f + 1
        self.on_decide = on_decide
        self.timeout = timeout
        self.byzantine_equivocate = byzantine_equivocate
        self.instances: Dict[Any, _Instance] = {}
        self.relay = QuorumRelay(host, tag="pbft-relay", deliver=self._dispatch)

    # -- helpers -----------------------------------------------------------

    def _inst(self, instance_id: Any) -> _Instance:
        if instance_id not in self.instances:
            self.instances[instance_id] = _Instance()
        return self.instances[instance_id]

    def primary_of(self, view: int) -> str:
        """The primary replica of ``view`` (round-robin)."""
        return self.peers[view % self.n]

    def _bcast(self, message: tuple) -> None:
        """Committee-wide vote broadcast, self included (relay-flooded
        over sparse overlays — see :mod:`repro.consensus.relay`)."""
        self.relay.broadcast(message, include_self=True)

    def _arm_timer(self, instance_id: Any, view: int) -> None:
        self.host.set_timer(self.timeout, ("pbft-timeout", instance_id, view))

    # -- API ---------------------------------------------------------------

    def propose(self, instance_id: Any, value: Any) -> None:
        """Submit this replica's input for ``instance_id``."""
        inst = self._inst(instance_id)
        inst.proposal = value
        if self.primary_of(inst.view) == self.host.name:
            self._send_preprepare(instance_id, inst.view, value)
        self._arm_timer(instance_id, inst.view)

    def _send_preprepare(self, instance_id: Any, view: int, value: Any) -> None:
        if self.byzantine_equivocate:
            # Split the replicas into two halves receiving different values.
            for index, peer in enumerate(self.peers):
                variant = (value, f"equivocation-{index % 2}")
                self.host.send(peer, (PREPREPARE, instance_id, view, variant))
            return
        self._bcast((PREPREPARE, instance_id, view, value))

    def on_timer(self, tag: Any) -> bool:
        """Handle a host timer; returns True when the tag was PBFT's."""
        if not (isinstance(tag, tuple) and tag and tag[0] == "pbft-timeout"):
            return False
        _t, instance_id, view = tag
        inst = self._inst(instance_id)
        if inst.decided or inst.view != view:
            return True
        new_view = view + 1
        self._bcast((VIEWCHANGE, instance_id, new_view, inst.prepared_cert))
        return True

    def on_message(self, src: str, message: Any) -> bool:
        """Handle a network message; returns True when consumed."""
        if self.relay.on_message(src, message):
            return True
        return self._dispatch(src, message)

    def _dispatch(self, src: str, message: Any) -> bool:
        if not (isinstance(message, tuple) and message):
            return False
        tag = message[0]
        if tag == PREPREPARE:
            self._on_preprepare(src, *message[1:])
        elif tag == PREPARE:
            self._on_prepare(src, *message[1:])
        elif tag == COMMIT:
            self._on_commit(src, *message[1:])
        elif tag == VIEWCHANGE:
            self._on_viewchange(src, *message[1:])
        else:
            return False
        return True

    # -- phases --------------------------------------------------------------

    def _on_preprepare(self, src: str, instance_id: Any, view: int, value: Any) -> None:
        inst = self._inst(instance_id)
        if inst.decided or view < inst.view:
            return
        if src != self.primary_of(view):
            return  # only the view's primary may pre-prepare
        if view in inst.pre_prepared:
            return  # first pre-prepare per view wins; equivocation starves quorum
        inst.pre_prepared[view] = value
        digest = hash_hex("pbft", instance_id, view, value)
        self._bcast((PREPARE, instance_id, view, digest, value))

    def _on_prepare(
        self, src: str, instance_id: Any, view: int, digest: str, value: Any
    ) -> None:
        inst = self._inst(instance_id)
        if inst.decided:
            return
        votes = inst.prepares.setdefault((view, digest), set())
        votes.add(src)
        if len(votes) >= self.quorum and view not in inst.committed_sent:
            inst.committed_sent.add(view)
            inst.prepared_cert = (view, value)
            self._bcast((COMMIT, instance_id, view, digest, value))

    def _on_commit(
        self, src: str, instance_id: Any, view: int, digest: str, value: Any
    ) -> None:
        inst = self._inst(instance_id)
        if inst.decided:
            return
        votes = inst.commits.setdefault((view, digest), set())
        votes.add(src)
        if len(votes) >= self.quorum:
            inst.decided = True
            inst.decision = value
            self.on_decide(instance_id, value)

    def _on_viewchange(
        self, src: str, instance_id: Any, new_view: int, cert: Optional[Tuple[int, Any]]
    ) -> None:
        inst = self._inst(instance_id)
        if inst.decided or new_view <= inst.view:
            return
        votes = inst.viewchange_votes.setdefault(new_view, {})
        votes[src] = cert
        if len(votes) < self.quorum:
            return
        inst.view = new_view
        self._arm_timer(instance_id, new_view)
        if self.primary_of(new_view) == self.host.name:
            certs = [c for c in votes.values() if c is not None]
            if certs:
                _v, value = max(certs, key=lambda c: c[0])
            else:
                value = inst.proposal
            if value is not None:
                self._send_preprepare(instance_id, new_view, value)

    # -- inspection ------------------------------------------------------------

    def decision_of(self, instance_id: Any) -> Optional[Any]:
        """The decided value of ``instance_id`` at this replica, if any."""
        inst = self.instances.get(instance_id)
        return inst.decision if inst and inst.decided else None
