"""Red Belly-style superblock assembly + Byzantine commitment (paper §5.6).

Red Belly lets the whole consortium ``M`` propose concurrently and
decides a *superblock* containing every retrievable proposal — "the
consumeToken operation, implemented by a Byzantine consensus algorithm
run by all the processes in V, returns true for the uniquely decided
block".  The component mirrors that two-stage structure:

1. **Collection** — every member broadcasts its (signed) proposal for the
   round; members gather proposals during a collection window.
2. **Commitment** — the round's coordinator (round-robin; the
   leaderless-ness of DBFT is abstracted, see module note) assembles the
   deterministic union of collected proposals and the membership runs
   PBFT on the assembled superblock, which gives agreement on one
   superblock per round even with ``f < n/3`` Byzantine members.

The superblock is sorted by proposer name, so the committed value is a
pure function of the collected set.  What the simplification changes
relative to real DBFT is only the message complexity and leader
sensitivity — not the interface property Table 1 depends on (a unique
committed block per round: Θ_F,k=1 behaviour).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Set, Tuple

from repro.consensus.pbft import PBFTComponent
from repro.consensus.relay import QuorumRelay
from repro.net.process import SimProcess

__all__ = ["SuperblockComponent"]

SB_PROPOSAL = "sb-proposal"


class SuperblockComponent:
    """Superblock consensus engine attached to a host process."""

    def __init__(
        self,
        host: SimProcess,
        peers: List[str],
        on_decide: Callable[[Any, Tuple[Tuple[str, Any], ...]], None],
        collection_window: float = 3.0,
        pbft_timeout: float = 15.0,
    ) -> None:
        self.host = host
        self.peers = sorted(peers)
        self.on_decide = on_decide
        self.collection_window = collection_window
        self.collected: Dict[Any, Dict[str, Any]] = {}
        self.started: Set[Any] = set()
        self.pbft = PBFTComponent(
            host=host,
            peers=self.peers,
            on_decide=self._pbft_decided,
            timeout=pbft_timeout,
        )
        self.relay = QuorumRelay(host, tag="sb-relay", deliver=self._on_proposal)

    # -- API -------------------------------------------------------------------

    def propose(self, round_id: Any, value: Any) -> None:
        """Submit this member's proposal for ``round_id``."""
        # Relay-flooded over a sparse overlay so non-adjacent members
        # still collect this proposal (the superblock is a pure function
        # of the collected set, so missing members would decide a
        # different union).
        self.relay.broadcast((SB_PROPOSAL, round_id, value), include_self=True)
        if round_id not in self.started:
            self.started.add(round_id)
            self.host.set_timer(self.collection_window, ("sb-assemble", round_id))

    def _on_proposal(self, src: str, message: Any) -> None:
        self.on_message(src, message)

    def on_message(self, src: str, message: Any) -> bool:
        """Handle proposals and the inner PBFT traffic."""
        if self.relay.on_message(src, message):
            return True
        if isinstance(message, tuple) and message and message[0] == SB_PROPOSAL:
            _tag, round_id, value = message
            self.collected.setdefault(round_id, {})[src] = value
            if round_id not in self.started:
                self.started.add(round_id)
                self.host.set_timer(self.collection_window, ("sb-assemble", round_id))
            return True
        return self.pbft.on_message(src, message)

    def on_timer(self, tag: Any) -> bool:
        """Assemble the superblock at the end of the collection window."""
        if isinstance(tag, tuple) and tag and tag[0] == "sb-assemble":
            round_id = tag[1]
            union = tuple(sorted(self.collected.get(round_id, {}).items()))
            self.pbft.propose(("superblock", round_id), union)
            return True
        return self.pbft.on_timer(tag)

    def _pbft_decided(self, instance_id: Any, value: Any) -> None:
        _tag, round_id = instance_id
        self.on_decide(round_id, value)

    def decision_of(self, round_id: Any):
        """The committed superblock of ``round_id`` at this member, if any."""
        return self.pbft.decision_of(("superblock", round_id))
