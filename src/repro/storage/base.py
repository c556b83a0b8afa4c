"""The :class:`BlockStore` protocol: durable block persistence.

The BT-ADT is defined over an ever-growing block tree, but a production
replica cannot keep every block resident in RAM forever.  The storage
subsystem splits the tree into a *durable* layer (this protocol: every
block ever appended, plus checkpoint records) and a *hot* layer (the
resident node dict inside :class:`~repro.blocktree.tree.BlockTree`).
``BlockTree`` writes each inserted block through to its store and, once
a checkpoint marks a stable finalized prefix, evicts the pruned blocks'
in-memory nodes — deep ancestry reads fault them back from here.

Contract (shared by every backend, asserted by ``tests/test_storage.py``):

* ``put`` is **append-only and idempotent**: a block id is never
  re-bound to different content, and re-putting an existing id is a
  cheap no-op.  Stores never delete blocks — pruning is strictly an
  in-memory affair.
* ``get`` round-trips **value-identical** blocks: dataclass equality of
  the faulted block with the originally stored one, payload included.
  This is what keeps fork-choice reads byte-identical across backends.
* ``scan`` yields blocks in **insertion order**, which for tree-fed
  stores is parent-before-child — so a crashed replica can rebuild its
  tree by replaying the scan (see ``BlockTree.replay``).
* checkpoints are tiny metadata records (:class:`CheckpointRecord`);
  only the most recent one matters for recovery.

Backends:

* :class:`~repro.storage.memory.InMemoryStore` — today's dicts,
  extracted; zero durability, zero overhead.
* :class:`~repro.storage.logstore.AppendOnlyLogStore` — binary log +
  offset index; O(1) append, crash-recoverable replay that tolerates a
  torn tail.
* :class:`~repro.storage.sqlite.SQLiteStore` — stdlib ``sqlite3`` with
  batched transactions; queryable, slower appends.
"""

from __future__ import annotations

import pickle
from abc import ABC, abstractmethod
from dataclasses import astuple, dataclass, fields
from typing import Iterator, Optional

from repro.blocktree.block import Block

__all__ = [
    "StoreError",
    "CheckpointRecord",
    "BlockStore",
    "encode_block",
    "decode_block",
    "encode_checkpoint",
    "decode_checkpoint",
]


class StoreError(RuntimeError):
    """A backend failed structurally (corrupt record, closed handle, …)."""


@dataclass(frozen=True)
class CheckpointRecord:
    """Metadata snapshot of a stable finalized prefix.

    ``block_id``/``height`` name the checkpoint block (the tip of the
    finalized prefix — typically the LCA of recent reads); ``block_count``
    is the total number of non-genesis blocks stored when the checkpoint
    was taken, so recovery can sanity-check replay completeness.
    """

    block_id: str
    height: int
    block_count: int
    note: str = ""


#: The stored record: every field of :class:`Block`, in declaration
#: order — a field added to the dataclass (a witness such as
#: ``signature``) is persisted without an edit here.
_BLOCK_FIELDS = tuple(f.name for f in fields(Block))


def encode_block(block: Block) -> bytes:
    """Serialize a block to bytes (stable across put/get round-trips).

    Pickles the field tuple rather than the dataclass instance so the
    on-disk format does not embed the class path, and arbitrary payload
    objects (transactions, ids, …) survive unchanged.
    """
    return pickle.dumps(
        tuple(getattr(block, name) for name in _BLOCK_FIELDS),
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def decode_block(data: bytes) -> Block:
    """Inverse of :func:`encode_block` (value-identical round-trip)."""
    return Block(*pickle.loads(data))


def encode_checkpoint(record: CheckpointRecord) -> bytes:
    """Serialize a checkpoint record (its field tuple, like a block's)."""
    return pickle.dumps(astuple(record), protocol=pickle.HIGHEST_PROTOCOL)


def decode_checkpoint(data: bytes) -> CheckpointRecord:
    """Inverse of :func:`encode_checkpoint`."""
    return CheckpointRecord(*pickle.loads(data))


class BlockStore(ABC):
    """Interface every block-store backend implements (module docstring)."""

    #: Registry key for :func:`repro.storage.open_store` and displays.
    kind: str = "abstract"

    # -- blocks -----------------------------------------------------------

    @abstractmethod
    def put(self, block: Block) -> None:
        """Persist ``block``; idempotent for an already-stored id."""

    @abstractmethod
    def get(self, block_id: str) -> Block:
        """The stored block under ``block_id`` (KeyError if absent)."""

    @abstractmethod
    def __contains__(self, block_id: str) -> bool:
        """Whether ``block_id`` has been stored."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of stored blocks."""

    @abstractmethod
    def scan(self) -> Iterator[Block]:
        """Yield every stored block in insertion (append) order."""

    # -- checkpoints ------------------------------------------------------

    @abstractmethod
    def put_checkpoint(self, record: CheckpointRecord) -> None:
        """Persist a checkpoint record (the latest one wins)."""

    @abstractmethod
    def last_checkpoint(self) -> Optional[CheckpointRecord]:
        """The most recently stored checkpoint, or None."""

    # -- lifecycle --------------------------------------------------------

    def flush(self) -> None:
        """Push buffered writes to the backing medium (no-op by default)."""

    def close(self) -> None:
        """Release backend resources; the store is unusable afterwards."""

    def copy(self) -> "BlockStore":
        """An independent snapshot of this store.

        Only meaningful for in-memory backends (``BlockTree.copy`` uses
        it); durable backends refuse rather than silently aliasing one
        file from two handles.
        """
        raise StoreError(f"{self.kind} store does not support copy()")

    def __enter__(self) -> "BlockStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
