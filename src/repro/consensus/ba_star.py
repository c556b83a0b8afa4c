"""BA* — Algorand's committee-based agreement, simplified (paper §5.4).

One *period* per instance, in Algorand's soft-vote / cert-vote shape:

* **Proposal step** — processes selected by cryptographic sortition
  (stake-weighted VRF lottery) broadcast their proposal together with the
  VRF priority; the highest-priority proposal is the period's candidate.
* **Soft vote** (after one step time λ) — every committee member votes
  for the highest-priority proposal it has received.
* **Cert vote** (after 2λ) — a member cert-votes a value that gathered a
  soft-vote quorum (> 2/3 of committee weight); a value with a cert-vote
  quorum is decided.

Under strong synchrony (λ larger than the network delay) every honest
member sees the same highest-priority proposal, so one period decides —
the "Lemma 2 [18]" behaviour the paper cites.  When the step time is too
small for the actual network delay (desynchronization), quorums can fail
(liveness loss → the instance re-runs with a fresh seed) or, with
malicious proposers, disagree — the small-probability forks of
"Theorem 2 [18]" that make Algorand SC *w.h.p.* only; the Table 1 bench
measures this.

Simplifications: one vote per selected member (weight 1), a common round
seed derived from the instance id, no player-replaceability, recovery
re-runs the period with a new seed instead of Algorand's full period
machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.consensus.relay import QuorumRelay
from repro.crypto.hashing import hash_hex
from repro.crypto.vrf import VRFKey, sortition_weight
from repro.net.process import SimProcess

__all__ = ["BAStarComponent"]

PROPOSAL = "ba-proposal"
SOFTVOTE = "ba-soft"
CERTVOTE = "ba-cert"

#: The BA* message kinds: tag → message length.
_LENGTHS = {PROPOSAL: 5, SOFTVOTE: 5, CERTVOTE: 5}


@dataclass
class _Period:
    """Per-(instance, attempt) state at one process."""

    proposal: Any = None
    best: Optional[Tuple[float, str, Any]] = None  # (priority, proposer, value)
    soft_votes: Dict[str, Set[str]] = field(default_factory=dict)  # digest→voters
    soft_value: Dict[str, Any] = field(default_factory=dict)
    cert_votes: Dict[str, Set[str]] = field(default_factory=dict)
    cert_sent: bool = False
    decided: bool = False


def _fence() -> None:
    """A timer that only marks a step boundary."""


class BAStarComponent:
    """BA* engine attached to a host process.

    ``stakes`` maps process name → stake fraction (must sum to ~1);
    ``step_time`` is λ; ``committee_fraction`` scales sortition selection
    (1.0 selects roughly everyone — deterministic small-n default).
    """

    def __init__(
        self,
        host: SimProcess,
        peers: List[str],
        stakes: Dict[str, float],
        on_decide: Callable[[Any, Any], None],
        vrf_key: VRFKey,
        step_time: float = 5.0,
        committee_fraction: Optional[float] = None,
        max_attempts: int = 8,
    ) -> None:
        self.host = host
        self.peers = sorted(peers)
        self.stakes = dict(stakes)
        self.on_decide = on_decide
        self.vrf_key = vrf_key
        self.step_time = step_time
        self.committee_fraction = committee_fraction
        self.max_attempts = max_attempts
        self.periods: Dict[Tuple[Any, int], _Period] = {}
        self.decided_instances: Dict[Any, Any] = {}
        self.relay = QuorumRelay(host, tag="ba-relay")
        host.route(self.on_message, _LENGTHS)

    def _bcast(self, message: tuple) -> None:
        """Committee-wide vote broadcast, self included (relay-flooded
        over sparse overlays so votes from non-adjacent members still
        count toward quorums)."""
        self.relay.broadcast(message, include_self=True)

    # -- sortition ------------------------------------------------------------

    def _selected(self, instance_id: Any, attempt: int, role: str) -> Tuple[bool, float]:
        """Sortition for ``role`` in this period.

        Proposers are always eligible but VRF-priority-ranked (stake
        weighting shifts the priority distribution), so "the highest
        priority committee member proposes" is reproduced without the
        small-committee variance that would starve tiny clusters.  Vote
        committees sample via the lottery only when ``committee_fraction``
        is configured; by default every member votes (weight-1 committee
        of the whole membership — the classic 2n/3 quorum).
        """
        out = self.vrf_key.evaluate("ba", instance_id, attempt, role)
        stake = self.stakes.get(self.host.name, 0.0)
        if role == "proposer":
            # Priority grows with stake: best of ⌈stake·scale⌉ VRF draws.
            draws = max(1, round(stake * 10 * len(self.peers)))
            priority = max(
                self.vrf_key.evaluate("ba", instance_id, attempt, role, d).value
                for d in range(draws)
            )
            return True, priority
        if self.committee_fraction is None:
            return True, out.value
        return sortition_weight(out.value, stake, self.committee_fraction)

    def _quorum(self) -> int:
        # 2/3 of the expected committee; with committee_fraction covering
        # everyone this is the classic 2n/3 threshold.
        return (2 * len(self.peers)) // 3 + 1

    def _period(self, instance_id: Any, attempt: int) -> _Period:
        key = (instance_id, attempt)
        if key not in self.periods:
            self.periods[key] = _Period()
        return self.periods[key]

    # -- API --------------------------------------------------------------------

    def propose(self, instance_id: Any, value: Any, attempt: int = 0) -> None:
        """Start (or retry) the agreement on ``instance_id`` with ``value``."""
        if instance_id in self.decided_instances:
            return
        period = self._period(instance_id, attempt)
        period.proposal = value
        selected, priority = self._selected(instance_id, attempt, "proposer")
        if selected:
            self._bcast((PROPOSAL, instance_id, attempt, priority, value))
        self.host.call_later(self.step_time, self.on_timer, instance_id, attempt)
        # The cert step (2λ) is only a liveness fence: cert votes go out
        # reactively in _on_soft when the soft quorum arrives.
        self.host.call_later(2 * self.step_time, _fence)
        self.host.call_later(
            3 * self.step_time, self._next_period, instance_id, attempt
        )

    def on_timer(self, instance_id: Any, attempt: int) -> None:
        """The soft-vote step (λ): vote for the best proposal seen."""
        if instance_id in self.decided_instances:
            return
        period = self._period(instance_id, attempt)
        if period.best is not None:
            _prio, _who, value = period.best
            selected, _ = self._selected(instance_id, attempt, "soft")
            if selected:
                digest = hash_hex("ba-digest", value)
                self._bcast((SOFTVOTE, instance_id, attempt, digest, value))

    def _next_period(self, instance_id: Any, attempt: int) -> None:
        """The period's end (3λ): undecided, retry with a fresh seed."""
        if instance_id in self.decided_instances:
            return
        period = self._period(instance_id, attempt)
        if attempt + 1 < self.max_attempts and period.proposal is not None:
            self.propose(instance_id, period.proposal, attempt + 1)

    def on_message(self, src: str, message: tuple) -> None:
        """Handle a BA* message (relayed ones arrive unwrapped)."""
        tag = message[0]
        if tag == PROPOSAL:
            self._on_proposal(src, *message[1:])
        elif tag == SOFTVOTE:
            self._on_soft(src, *message[1:])
        else:
            self._on_cert(src, *message[1:])  # CERTVOTE

    # -- steps ------------------------------------------------------------------

    def _on_proposal(
        self, src: str, instance_id: Any, attempt: int, priority: float, value: Any
    ) -> None:
        period = self._period(instance_id, attempt)
        candidate = (priority, src, value)
        if period.best is None or candidate[:2] > period.best[:2]:
            period.best = candidate

    def _on_soft(
        self, src: str, instance_id: Any, attempt: int, digest: str, value: Any
    ) -> None:
        period = self._period(instance_id, attempt)
        voters = period.soft_votes.setdefault(digest, set())
        voters.add(src)
        period.soft_value[digest] = value
        if len(voters) >= self._quorum() and not period.cert_sent:
            selected, _ = self._selected(instance_id, attempt, "cert")
            if selected:
                period.cert_sent = True
                self._bcast((CERTVOTE, instance_id, attempt, digest, value))

    def _on_cert(
        self, src: str, instance_id: Any, attempt: int, digest: str, value: Any
    ) -> None:
        if instance_id in self.decided_instances:
            return
        period = self._period(instance_id, attempt)
        voters = period.cert_votes.setdefault(digest, set())
        voters.add(src)
        if len(voters) >= self._quorum():
            period.decided = True
            self.decided_instances[instance_id] = value
            self.on_decide(instance_id, value)

    def decision_of(self, instance_id: Any) -> Optional[Any]:
        """The decided value at this process, if any."""
        return self.decided_instances.get(instance_id)
