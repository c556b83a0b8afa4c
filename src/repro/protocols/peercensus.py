"""PeerCensus (paper §5.5): PoW block creation + Byzantine-consensus commit.

"The getToken operation is implemented by a proof-of-work mechanism, and
the consumeToken operation, implemented by the Byzantine consensus,
commits a single key block among the concurrent ones, that is returns
true for a single token."

Shares the committee-PoW machinery of :mod:`repro.protocols.byzcoin`;
the PeerCensus flavour differs in the candidate-selection rule — the
committee commits the *first* candidate its proposer saw (the
timestamping-service behaviour) rather than ByzCoin's smallest-digest
rule.  Either way exactly one token is consumed per height: Θ_F,k=1,
Strong consistency.
"""

from __future__ import annotations

from typing import Optional

from repro.blocktree.block import Block
from repro.protocols.base import ProtocolRun
from repro.protocols.byzcoin import CommitteePoWNode
from repro.workloads.scenarios import ProtocolScenario

__all__ = ["PeerCensusNode", "run_peercensus"]


class PeerCensusNode(CommitteePoWNode):
    """PeerCensus: first-seen candidate selection."""

    def best_candidate(self, height: int) -> Optional[Block]:
        pool = self.candidates.get(height, [])
        return pool[0] if pool else None  # first candidate seen


def run_peercensus(scenario: ProtocolScenario) -> ProtocolRun:
    """Run the PeerCensus model."""
    return ProtocolRun.execute(PeerCensusNode, scenario)
