"""ByzCoin (paper §5.3) and the shared committee-PoW machinery.

"The getToken operation is implemented by a proof-of-work mechanism.
Due to the PoW mechanism, several key blocks can be concurrently created.
The consumeToken operation guarantees that … a single key block will be
appended to the BlockTree by relying on a deterministic function f which
selects the key block whose digest has the smallest least significant
bits among the concurrent key blocks."

:class:`CommitteePoWNode` implements the shared pattern (also used by
PeerCensus): nodes run Bitcoin's exponential PoW race
(:class:`~repro.protocols.bitcoin.PoWRaceNode`), but a found block is a
*candidate* for the next height, its append invoked in that height's
ledger instance; candidates are flooded; the committee (the whole
membership here — ByzCoin's window-of-recent-miners is a weighting
detail, not a mechanism change) runs one PBFT instance per height to
consume exactly one token; a miner's decide of it answers the miner's
candidates (True for the committed one).  ByzCoin's candidate-selection
rule is the paper's smallest-digest rule.  The committed block is
adopted by all — Θ_F,k=1 behaviour, Strong consistency.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.blocktree.block import Block, make_block
from repro.consensus.pbft import PBFTComponent
from repro.consensus.relay import QuorumRelay
from repro.protocols.base import ProtocolRun
from repro.protocols.bitcoin import PoWRaceNode
from repro.workloads.scenarios import ProtocolScenario

__all__ = ["CommitteePoWNode", "ByzCoinNode", "run_byzcoin"]

CANDIDATE = "pow-candidate"


class CommitteePoWNode(PoWRaceNode):
    """PoW candidate production + per-height PBFT commitment.

    Keeps the base replica's longest-chain rule (the committed chain
    never forks) and restarts its race on every commit.  Subclasses
    choose the candidate-selection rule via :meth:`best_candidate`.
    """

    oracle_k = 1

    def __init__(self, name: str, scenario: ProtocolScenario) -> None:
        super().__init__(name, scenario)
        self.candidates: Dict[int, List[Block]] = {}
        self.proposed_heights: set = set()
        self.committed_height = 0
        self.pbft = PBFTComponent(
            host=self,
            peers=list(scenario.node_names()),
            on_decide=self._on_commit,
            timeout=scenario.round_length,
        )
        # Candidates must reach the whole committee (the view primary
        # proposes from its candidate pool); relay-flood them on sparse
        # overlays, where one-hop broadcast only covers neighbours.
        self._candidate_relay = QuorumRelay(self, tag="candidate-relay")
        self.route(self._on_candidate, {CANDIDATE: 3})

    # -- candidate selection rule (ByzCoin: smallest digest) --------------------

    def best_candidate(self, height: int) -> Optional[Block]:
        """The candidate this node proposes for ``height``."""
        pool = self.candidates.get(height, [])
        if not pool:
            return None
        return min(pool, key=lambda b: b.block_id)  # smallest digest

    # -- mining -------------------------------------------------------------------

    def on_block_found(self) -> None:
        height = self.committed_height + 1
        tip = self.selected_tip()
        block = make_block(
            parent=tip,
            label=f"{self.name}@{height}",
            payload=self.make_payload(),
            creator=self.index,
        )
        block = self.seal_block(block)
        self.blocks_mined += 1
        self.ledger.invoke(self.name, block, ("height", height), time=self.now)
        # Candidate dissemination is a §4.2 send (with loopback receive).
        self.record_instant("send", self.block_event_args(block))
        self._candidate_relay.broadcast((CANDIDATE, height, block))
        self.record_receive(block)
        self._register_candidate(height, block)
        self._schedule_mining()

    def _register_candidate(self, height: int, block: Block) -> None:
        if height <= self.committed_height:
            return  # stale height: already committed
        pool = self.candidates.setdefault(height, [])
        if all(b.block_id != block.block_id for b in pool):
            pool.append(block)
        if height == self.committed_height + 1 and height not in self.proposed_heights:
            self.proposed_heights.add(height)
            self.pbft.propose(("height", height), self.best_candidate(height))

    # -- commitment ---------------------------------------------------------------

    def _on_commit(self, instance_id: Any, block: Block) -> None:
        _tag, height = instance_id
        if height <= self.committed_height or block is None:
            return
        self.committed_height = height
        self.adopt_block(block, relay=True)
        self.candidates.pop(height, None)
        # Answers own candidates for this height: winner True, losers False.
        self.ledger.decide(self.name, instance_id, block.block_id, time=self.now)
        self._schedule_mining()

    def _on_candidate(self, src: str, message: tuple) -> None:
        _tag, height, block = message
        if block.block_id not in self.received_marks:
            self.record_receive(block)
        self._register_candidate(height, block)


class ByzCoinNode(CommitteePoWNode):
    """ByzCoin: committee PoW with the smallest-digest selection rule."""


def run_byzcoin(scenario: ProtocolScenario) -> ProtocolRun:
    """Run the ByzCoin model."""
    return ProtocolRun.execute(ByzCoinNode, scenario)
