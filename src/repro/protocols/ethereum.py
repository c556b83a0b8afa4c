"""Ethereum (paper §5.2): proof-of-work + GHOST fork choice.

Identical oracle structure to Bitcoin — a Prodigal oracle realized by
proof-of-work — but ``f`` "is implemented through [the] GHOST algorithm":
the greedy heaviest-observed-subtree walk, so uncle blocks contribute to
branch selection.  The faster block tempo (Ethereum's ~13 s vs Bitcoin's
~10 min, scaled in the scenario) makes forks markedly more frequent,
which the Table 1 bench reports as a higher fork rate with the same
EC-but-not-SC verdict.
"""

from __future__ import annotations

from repro.blocktree.selection import GHOSTSelection
from repro.protocols.base import ProtocolRun
from repro.protocols.bitcoin import BitcoinNode
from repro.workloads.scenarios import ProtocolScenario

__all__ = ["EthereumNode", "run_ethereum"]


class EthereumNode(BitcoinNode):
    """An Ethereum miner/replica: Bitcoin's race with GHOST selection."""

    def __init__(self, name: str, scenario: ProtocolScenario) -> None:
        super().__init__(name, scenario)
        self.selection = GHOSTSelection()


def run_ethereum(scenario: ProtocolScenario) -> ProtocolRun:
    """Run the Ethereum model (GHOST, fast blocks)."""
    return ProtocolRun.execute(EthereumNode, scenario)
