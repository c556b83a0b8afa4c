"""Hyperledger Fabric (paper §5.7): ordering service + identical peers.

"HyperLedger Fabric relies on a leader election to determine which
process will generate the next block … By construction, HyperLedger
Fabric ensures that a unique token (k = 1) is consumed, thus HyperLedger
Fabric implements a strongly consistent BlockTree."

The first ``orderer_count`` nodes form the CFT ordering cluster
(:class:`~repro.consensus.ordering.OrderingService`); every node is also
a peer.  Peers submit transaction batches; the service delivers a total
order; at delivery sequence ``s`` every peer deterministically constructs
block ``s`` (same content hash everywhere) and appends it
(:meth:`~repro.protocols.base.BlockchainNode.append_decided`) — a unique
chain, Θ_F,k=1, Strong consistency.
"""

from __future__ import annotations

from typing import Any

from repro.blocktree.block import Block
from repro.blocktree.tree import BlockTree
from repro.consensus.ordering import DELIVER, OrderingService, SUBMIT
from repro.consensus.relay import QuorumRelay
from repro.protocols.base import BlockchainNode, ProtocolRun
from repro.workloads.scenarios import ProtocolScenario

__all__ = ["HyperledgerNode", "run_hyperledger"]

ORDERER_COUNT = 3


class HyperledgerNode(BlockchainNode):
    """A Fabric node: peer always, orderer when in the cluster prefix."""

    oracle_kind = "frugal-k1"
    expected_refinement = "R(BT-ADT_SC, Θ_F,k=1)"

    def __init__(self, name: str, scenario: ProtocolScenario) -> None:
        super().__init__(name, scenario)
        names = list(scenario.node_names())
        self.cluster = names[: min(ORDERER_COUNT, len(names))]
        self.is_orderer = name in self.cluster
        # Every node (orderer or not) owns the relay so that, on a
        # sparse overlay, peers sitting between non-adjacent cluster
        # members still forward the ordering traffic.
        self._ord_relay = QuorumRelay(
            self, tag="ord-relay", deliver=self._on_relayed_order
        )
        self.ordering = (
            OrderingService(
                host=self,
                cluster=self.cluster,
                on_deliver=self._on_deliver,
                timeout=scenario.round_length * 2,
                relay=self._ord_relay,
            )
            if self.is_orderer
            else None
        )
        self.batch_counter = 0

    def _boot(self, tree: BlockTree) -> None:
        super()._boot(tree)
        #: Labels of the blocks in ``tree`` — ``blk{seq}`` per delivered
        #: sequence — kept by :meth:`on_new_block`, so a re-delivery is
        #: recognised without scanning the tree.
        self._labels = {block.label for block in tree.blocks()}

    def on_new_block(self, block: Block) -> None:
        self._labels.add(block.label)

    def _on_relayed_order(self, origin: str, message: Any) -> None:
        if self.ordering is not None:
            self.ordering.on_message(origin, message)

    def on_start(self) -> None:
        self.schedule_periodic_reads()
        if self.ordering is not None:
            # ``restart``, not the idempotent ``start``: on a lifecycle
            # resume the watchdog died with the old epoch and must re-arm.
            self.ordering.restart()
        self.set_timer(1.0 + 0.1 * self.index, ("hl-batch",))

    def on_timer(self, tag: Any) -> None:
        if self.ordering is not None and self.ordering.on_timer(tag):
            return
        if isinstance(tag, tuple) and tag and tag[0] == "hl-batch":
            if self.now < self.scenario.duration:
                self._submit_batch()
                self.set_timer(self.scenario.round_length, ("hl-batch",))

    def _submit_batch(self) -> None:
        batch = (self.name, self.batch_counter, self.make_payload())
        self.batch_counter += 1
        if self.ordering is not None:
            self.ordering.submit(batch)
        else:
            self.send(self.cluster[0], (SUBMIT, batch))

    def _on_deliver(self, seq: int, batch: Any) -> None:
        self._append_block(seq, batch)
        # Orderers fan the delivery out to non-orderer peers.
        for peer in self.network.process_names():
            if peer not in self.cluster:
                self.send(peer, ("hl-block", seq, batch))

    def _append_block(self, seq: int, batch: Any) -> None:
        label = f"blk{seq}"
        if label in self._labels:
            return  # already appended this sequence
        _submitter, _counter, payload = batch
        self.append_decided(self.selected_tip(), label, payload)

    def on_message(self, src: str, message: Any) -> None:
        if self.on_gossip(src, message):
            return
        if self._ord_relay.on_message(src, message):
            return
        if isinstance(message, tuple) and message:
            if message[0] == "hl-block":
                _tag, seq, batch = message
                self._append_block(seq, batch)
                return
            if self.ordering is not None and self.ordering.on_message(src, message):
                return
            if message[0] == SUBMIT and not self.is_orderer:
                return  # stray forward; peers ignore
            if message[0] == DELIVER and not self.is_orderer:
                _tag, _term, seq, batch = message
                self._append_block(seq, batch)
                return


def run_hyperledger(scenario: ProtocolScenario) -> ProtocolRun:
    """Run the Hyperledger Fabric model."""
    return ProtocolRun.execute(HyperledgerNode, scenario)
