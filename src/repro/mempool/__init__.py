"""The transaction pipeline: mempool, block packing, committed-tx reaping.

The BADT paper makes block *content* and the validity predicate ``P``
central to the abstraction; this package reproduces the lifecycle that
real chains scale around — submit → pool → propagate → pack → commit:

* :class:`~repro.mempool.utxo.UTXOView` — an incremental spent/minted
  view of one replica's best chain, synced block-by-block through the
  fork-choice LCA (so reorgs rewind exactly the abandoned suffix);
  :class:`~repro.workloads.transactions.ChainValidator` remains the
  from-scratch oracle it is differentially tested against.
* :class:`~repro.mempool.pool.Mempool` — fee-priority ordering,
  duplicate and double-spend filtering against the best chain, bounded
  capacity with dependency-safe eviction, batched ingestion, and
  committed-transaction reaping on fork-choice reads.
* :class:`~repro.mempool.packer.BlockPacker` — fills block payloads
  from the local pool in deterministic priority order, never packing a
  double spend.

Client traffic enters through
:class:`~repro.workloads.traffic.ClientTrafficScenario` presets and is
gossiped over the same :mod:`repro.net` channels as blocks, so
partitions, churn and message faults shape transaction propagation
exactly as they shape block dissemination.
"""

#: Message tag used by transaction flooding in :mod:`repro.protocols.base`.
TX_GOSSIP_TAG = "tx-gossip"
