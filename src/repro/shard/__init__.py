"""Shard-scoped chains: K independent BlockTree/Mempool/UTXO facets
per replica, users hashed to shards, cross-shard transfers via
two-phase LOCK/COMMIT records carried in block payloads.

Layout:

* :mod:`repro.shard.assignment` — the user→shard PRF hash and the
  bami-style replica→shard subscription windows.
* :mod:`repro.shard.records` — LOCK/COMMIT/ABORT/RELEASE transaction
  encodings (plain UTXO transactions; uniqueness by coin minting).
* :mod:`repro.shard.node` — :class:`ShardedNode`, hosting one
  :class:`~repro.protocols.bitcoin.BitcoinNode` facet per subscribed
  shard behind a shard-tagged network view, plus the cross-shard
  coordinator.
* :mod:`repro.shard.run` — :func:`execute_sharded` /
  :class:`ShardedRun`, the K>1 inputs and extras of
  :class:`~repro.protocols.base.ProtocolRun`.
* :mod:`repro.shard.atomicity` — the composed cross-shard consistency
  checker (no LOCK without eventual COMMIT/ABORT; no value created or
  destroyed).

``node``/``run`` import the protocol layer, so they are *not* imported
here — pull them in explicitly to keep ``repro.workloads`` importable
from this package without cycles.
"""

from repro.shard.assignment import (
    shard_members,
    shard_of_user,
    subscribed_shards,
    validate_coverage,
)
from repro.shard.records import (
    XShardMeta,
    make_abort,
    make_commit,
    make_lock,
    make_release,
    parse_record,
)

__all__ = [
    "shard_of_user",
    "subscribed_shards",
    "shard_members",
    "validate_coverage",
    "XShardMeta",
    "make_lock",
    "make_commit",
    "make_abort",
    "make_release",
    "parse_record",
]
