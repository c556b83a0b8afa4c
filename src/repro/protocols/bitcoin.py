"""Bitcoin (paper §5.1): proof-of-work + heaviest chain + flooding.

"The getToken operation is implemented by a proof-of-work mechanism.
The consumeToken operation returns true for all valid blocks, thus there
is no bound on the number of consumed tokens.  Thus Bitcoin implements a
Prodigal Oracle.  The f selects … the blockchain which has required the
most computational work."

Mining is the standard exponential race (:class:`PoWRaceNode`, shared
with the committee-PoW systems): node ``i`` with merit ``α_i`` finds its
next block after ``Exp(mean_interval / α_i)`` time — the continuous-time
equivalent of drawing a Θ_P tape at hash rate ``α_i``.  A found block is
appended immediately (prodigal: no commit gate), flooded to all peers,
and mining restarts on the new selected tip.  Forks arise naturally when
two miners find blocks within a network delay of each other; the
heaviest-work rule resolves them — Eventual consistency, not Strong (the
Table 1 classification the checkers confirm).  The Byzantine miners vary
one step of that path (:meth:`BitcoinNode.mine_block`, ``publish_block``,
``make_payload``, ``seal_block``).
"""

from __future__ import annotations

from repro.blocktree.block import Block, make_block
from repro.blocktree.selection import HeaviestChain
from repro.protocols.base import BlockchainNode, ProtocolRun
from repro.workloads.scenarios import ProtocolScenario

__all__ = ["PoWRaceNode", "BitcoinNode", "run_bitcoin"]


class PoWRaceNode(BlockchainNode):
    """The exponential proof-of-work race; subclasses supply
    :meth:`on_block_found`, called when this node wins a race."""

    def __init__(self, name: str, scenario: ProtocolScenario) -> None:
        super().__init__(name, scenario)
        self.blocks_mined = 0
        self._mining_epoch = 0  # invalidates stale mining timers

    @property
    def merit(self) -> float:
        """The node's merit α (hash-power share)."""
        return self.scenario.merit_of(self.index)

    def on_start(self) -> None:
        self.schedule_periodic_reads()
        self._schedule_mining()

    def _schedule_mining(self) -> None:
        """Arm the next block-find event: Exp(mean/α) from now."""
        if self.now >= self.scenario.duration:
            return
        # block_interval_at applies any scenario traffic bursts in effect.
        rate = self.merit / self.scenario.block_interval_at(self.now)
        delay = self.network.simulator.rng.expovariate(rate)
        self._mining_epoch += 1
        self.call_later(delay, self.on_timer, self._mining_epoch)

    def on_timer(self, epoch: int) -> None:
        """A block-find event armed in mining ``epoch``."""
        # A stale epoch means the tip changed and mining restarted.
        if epoch == self._mining_epoch and self.now < self.scenario.duration:
            self.on_block_found()

    def on_block_found(self) -> None:
        """This node won the race (the protocol's ``getToken``)."""
        raise NotImplementedError


class BitcoinNode(PoWRaceNode):
    """A Bitcoin miner/replica."""

    oracle_kind = "prodigal"
    expected_refinement = "R(BT-ADT_EC, Θ_P)"

    def __init__(self, name: str, scenario: ProtocolScenario) -> None:
        super().__init__(name, scenario)
        self.selection = HeaviestChain()

    # -- mining -------------------------------------------------------------

    def _solve_pow(self, tip: Block, payload: tuple) -> int:
        """Solve the hash puzzle when real-PoW validation is enabled.

        The exponential timer models *when* the block is found; the nonce
        search (cheap at the configured difficulty) produces the
        verifiable witness that receivers check in ``validate_incoming``.
        """
        bits = self.scenario.pow_difficulty_bits
        if bits <= 0:
            return 0
        from repro.crypto.merkle import MerkleTree
        from repro.crypto.pow import PoWPuzzle

        puzzle = PoWPuzzle(
            parent_id=tip.block_id,
            payload_commitment=MerkleTree(payload).root,
            miner=self.name,
            difficulty_bits=bits,
        )
        solution = puzzle.mine()
        if solution is None:
            raise RuntimeError("PoW search exhausted — difficulty too high")
        return solution.nonce

    def mine_block(self, tip: Block, payload: tuple, label: str) -> Block:
        """A block on ``tip`` authored by this node, solved and sealed."""
        block = make_block(
            parent=tip,
            label=label,
            payload=payload,
            creator=self.index,
            nonce=self._solve_pow(tip, payload),
        )
        return self.seal_block(block)

    def on_block_found(self) -> None:
        tip = self.selected_tip()
        payload = self.make_payload()
        block = self.mine_block(tip, payload, f"{self.name}#{self.blocks_mined}")
        self.blocks_mined += 1
        self.begin_append(block)
        self.resolve_append(block.block_id, True)  # prodigal: always accepted
        self.publish_block(block)
        self._schedule_mining()

    def publish_block(self, block: Block) -> None:
        """Release a block this node mined: announce, then adopt it."""
        self.announce_block(block)
        self.adopt_block(block, relay=False)

    def on_new_block(self, block: Block) -> None:
        """Restart mining when the selected tip moves (work race semantics)."""
        if block.creator != self.index:
            self._schedule_mining()


def run_bitcoin(scenario: ProtocolScenario) -> ProtocolRun:
    """Run the Bitcoin model under ``scenario``.

    A scenario with ``shards > 1`` routes to the sharded executor
    (:func:`repro.shard.run.execute_sharded`): one BitcoinNode facet per
    subscribed shard on every replica, returning a ``ShardedRun``.
    """
    if scenario.shards > 1:
        from repro.shard.run import execute_sharded

        return execute_sharded(scenario)
    return ProtocolRun.execute(BitcoinNode, scenario)
