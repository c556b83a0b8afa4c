"""Algorand (paper §5.4): cryptographic sortition + BA*.

"The cryptographic sortition implements the getToken operation by
selecting the block proposer … the variant of Byzantine agreement
algorithm BA* implements the consumeToken operation."

Rounds are synchronous (round ``r`` starts at ``r · round_length``): each
node invokes the append of a proposal block extending its committed tip
in the round's ledger instance and submits it to the round's BA*
instance; VRF priorities (stake-weighted) pick the de-facto proposer;
the cert-vote quorum commits one block, which everyone adopts and whose
decide answers each proposer's append — Θ_F,k=1 and Strong consistency
*with high probability* (the paper's "SC w.h.p." annotation).  The
fork-probability bench desyncs the step time to surface the exceptional
behaviour.
"""

from __future__ import annotations

from typing import Any

from repro._util import prf_uint64
from repro.blocktree.block import Block, make_block
from repro.consensus.ba_star import BAStarComponent
from repro.crypto.vrf import VRFKey
from repro.protocols.base import BlockchainNode, ProtocolRun
from repro.workloads.scenarios import ProtocolScenario

__all__ = ["AlgorandNode", "run_algorand"]


class AlgorandNode(BlockchainNode):
    """An Algorand participant: stake-weighted sortition + BA* commit."""

    oracle_k = 1

    def __init__(self, name: str, scenario: ProtocolScenario) -> None:
        super().__init__(name, scenario)
        stakes = {
            n: scenario.merit_of(i) for i, n in enumerate(scenario.node_names())
        }
        self.round = 0
        self.ba = BAStarComponent(
            host=self,
            peers=list(scenario.node_names()),
            stakes=stakes,
            on_decide=self._on_commit,
            # Per-replica VRF stream through the SHA-256 PRF: the old
            # ``seed * 97 + index`` could collide across campaign cells.
            vrf_key=VRFKey(
                seed=prf_uint64("vrf", scenario.seed, scenario.name, name),
                owner=name,
            ),
            step_time=scenario.round_length / 5.0,
        )

    def on_start(self) -> None:
        self.schedule_periodic_reads()
        self.call_later(0.5, self.on_timer, 0)

    def on_lifecycle_resume(self) -> None:
        # Re-running ``on_start`` would restart round 0; a resumed
        # replica continues from the round after the last one it ran.
        self.schedule_periodic_reads()
        self.call_later(0.5, self.on_timer, self.round + 1)

    def on_timer(self, round_id: int) -> None:
        """The start of round ``round_id``."""
        if self.now < self.scenario.duration:
            self._start_round(round_id)

    def _start_round(self, round_id: int) -> None:
        self.round = round_id
        tip = self.selected_tip()
        # creator=None: the proposal travels inside BA* messages, so replica
        # receive events are recorded at consensus delivery (adopt time);
        # claiming local authorship would demand a gossip-level send record.
        block = make_block(
            parent=tip,
            label=f"{self.name}r{round_id}",
            payload=self.make_payload(),
        )
        # Sealed by the proposer's own key; with creator=None any
        # registered signer verifies (authorship is not claimed — see
        # repro.crypto.auth identity binding).
        block = self.seal_block(block)
        instance = ("round", round_id)
        self.ledger.invoke(self.name, block, instance, time=self.now)
        self.ba.propose(instance, block)
        self.call_later(self.scenario.round_length, self.on_timer, round_id + 1)

    def _on_commit(self, instance_id: Any, block: Block) -> None:
        if block.parent_id in self.tree:
            self.adopt_block(block, relay=True)
        # Answers this round's own proposal: True iff it was committed.
        self.ledger.decide(self.name, instance_id, block.block_id, time=self.now)


def run_algorand(scenario: ProtocolScenario) -> ProtocolRun:
    """Run the Algorand model."""
    return ProtocolRun.execute(AlgorandNode, scenario)
