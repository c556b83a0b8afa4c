"""Shard-scoped chains: K independent BlockTree/Mempool/UTXO facets
per replica, users hashed to shards, cross-shard transfers via
two-phase LOCK/COMMIT records carried in block payloads.

Layout:

* :mod:`repro.shard.assignment` — the user→shard PRF hash (every
  replica hosts every shard).
* :mod:`repro.shard.records` — LOCK/COMMIT/ABORT/RELEASE transaction
  encodings (plain UTXO transactions; uniqueness by coin minting).
* :mod:`repro.shard.node` — :class:`ShardedNode`, hosting one
  :class:`~repro.protocols.bitcoin.BitcoinNode` facet per shard
  behind a shard-tagged network view, plus the cross-shard
  coordinator.
* :mod:`repro.shard.run` — :func:`execute_sharded` /
  :class:`ShardedRun`, the K>1 inputs and extras of
  :class:`~repro.protocols.base.ProtocolRun`.
* :mod:`repro.shard.atomicity` — the composed cross-shard consistency
  checker (no LOCK without eventual COMMIT/ABORT; no value created or
  destroyed).
"""
