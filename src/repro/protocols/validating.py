"""Transaction-validating nodes: the application-level ``P`` in action.

Definition 3.1's validity predicate "is application dependent (for
instance, in Bitcoin, a block is considered valid if it can be connected
to the current blockchain and does not contain transactions that double
spend a previous transaction)".  :class:`ValidatingBitcoinNode` applies
exactly that rule on reception: a block must extend a known parent with a
payload that is double-spend-free *in the context of the chain it
extends*; :class:`DoubleSpendMiner` is the adversary minting conflicting
spends, whose blocks honest validators refuse — it supplies only the
payload, the rest of Bitcoin's mined-block path is inherited.
"""

from __future__ import annotations

from repro.blocktree.block import Block
from repro.protocols.bitcoin import BitcoinNode
from repro.workloads.transactions import ChainValidator, Transaction

__all__ = ["ValidatingBitcoinNode", "DoubleSpendMiner"]


class ValidatingBitcoinNode(BitcoinNode):
    """A Bitcoin replica enforcing the double-spend rule on reception."""

    def __init__(self, name: str, scenario) -> None:
        super().__init__(name, scenario)
        self.chain_validator = ChainValidator()

    def validate_incoming(self, block: Block) -> bool:
        if not super().validate_incoming(block):
            return False
        if block.parent_id not in self.tree:
            # Parent unknown: structural checks only; contextual validity
            # is re-applied when the orphan is attached (adopt_block calls
            # validate_incoming again through the orphan drain).
            return True
        prefix = self.tree.chain_to(block.parent_id)
        return self.chain_validator.block_valid_in_context(prefix, block.payload)

    def adopt_block(self, block: Block, relay: bool = True) -> bool:
        # Re-check context when the parent is present (covers orphans that
        # passed the structural check before their parent arrived).
        if block.parent_id in self.tree and block.block_id not in self.tree:
            prefix = self.tree.chain_to(block.parent_id)
            if not self.chain_validator.block_valid_in_context(prefix, block.payload):
                self.rejected_blocks.add(block.block_id)
                return False
        return super().adopt_block(block, relay=relay)


class DoubleSpendMiner(BitcoinNode):
    """Byzantine miner whose blocks re-spend an already-consumed coin.

    Its first block spends ``genesis-coin-0``; every later block spends
    the same coin again — a conflicting-history attack that contextual
    validation refuses.
    """

    def make_payload(self) -> tuple:
        return (
            Transaction.make(
                ("genesis-coin-0",),
                (f"stolen-{self.blocks_mined}",),
                issuer=self.name,
            ),
        )

    def validate_incoming(self, block: Block) -> bool:
        return True  # Byzantine: accepts anything, including its own forgeries
