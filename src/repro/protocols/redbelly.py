"""Red Belly (paper §5.6): consortium superblock consensus.

"Each process p ∈ M can invoke the getToken operation with their new
block and will receive a token.  The consumeToken operation, implemented
by a Byzantine consensus algorithm run by all the processes in V,
returns true for the uniquely decided block.  Thus Red Belly BlockTree
contains a unique blockchain."

Rounds are timer-driven: every member proposes a mini-batch of
transactions; the :class:`~repro.consensus.superblock.SuperblockComponent`
commits the deterministic union; every node then constructs the *same*
superblock block (content-derived id) and appends it
(:meth:`~repro.protocols.base.BlockchainNode.append_decided`) — one
block per round, Θ_F,k=1, Strong consistency.
"""

from __future__ import annotations

from typing import Any, Tuple

from repro.consensus.superblock import SuperblockComponent
from repro.protocols.base import BlockchainNode, ProtocolRun
from repro.workloads.scenarios import ProtocolScenario

__all__ = ["RedBellyNode", "run_redbelly"]


class RedBellyNode(BlockchainNode):
    """A Red Belly consortium member."""

    oracle_kind = "frugal-k1"
    expected_refinement = "R(BT-ADT_SC, Θ_F,k=1)"

    def __init__(self, name: str, scenario: ProtocolScenario) -> None:
        super().__init__(name, scenario)
        self.sb = SuperblockComponent(
            host=self,
            peers=list(scenario.node_names()),
            on_decide=self._on_superblock,
            collection_window=scenario.round_length / 4.0,
            pbft_timeout=scenario.round_length,
        )
        #: Last round this replica's proposer timer ran: a start (or a
        #: lifecycle resume) proposes from the next one.
        self._rb_round = -1

    def on_start(self) -> None:
        self.schedule_periodic_reads()
        self.call_later(0.5, self.on_timer, self._rb_round + 1)

    def on_timer(self, round_id: int) -> None:
        """The proposer timer of round ``round_id``."""
        self._rb_round = round_id
        if self.now < self.scenario.duration:
            self.sb.propose(round_id, self.make_payload())
            self.call_later(self.scenario.round_length, self.on_timer, round_id + 1)

    def _on_superblock(self, round_id: int, union: Tuple[Tuple[str, Any], ...]) -> None:
        if not union:
            return  # empty round: nothing proposed in the window
        payload = tuple(tx for _proposer, batch in union for tx in batch)
        self.append_decided(self.selected_tip(), f"sb{round_id}", payload)


def run_redbelly(scenario: ProtocolScenario) -> ProtocolRun:
    """Run the Red Belly model."""
    return ProtocolRun.execute(RedBellyNode, scenario)
