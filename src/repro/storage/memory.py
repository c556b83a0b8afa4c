"""The in-memory block store: today's dicts, extracted behind the protocol."""

from __future__ import annotations

from typing import Dict, Iterator

from repro.blocktree.block import Block
from repro.storage.base import BlockStore

__all__ = ["InMemoryStore"]


class InMemoryStore(BlockStore):
    """Dict-backed store: zero durability, zero per-operation overhead.

    This is exactly the block map ``BlockTree`` used to own directly;
    the tree shares the dict with the store, so the default
    configuration costs nothing over the pre-storage layout.
    """

    kind = "memory"

    def __init__(self) -> None:
        self._blocks: Dict[str, Block] = {}

    def put(self, block: Block) -> None:
        """Bind ``block`` under its id (idempotent)."""
        self._blocks.setdefault(block.block_id, block)

    def get(self, block_id: str) -> Block:
        """The stored block (KeyError if absent)."""
        return self._blocks[block_id]

    def __contains__(self, block_id: str) -> bool:
        return block_id in self._blocks

    def __len__(self) -> int:
        return len(self._blocks)

    def scan(self) -> Iterator[Block]:
        """Blocks in insertion order (dict order)."""
        return iter(self._blocks.values())

    def copy(self) -> "InMemoryStore":
        """Independent snapshot sharing the immutable Block objects."""
        clone = InMemoryStore()
        clone._blocks = dict(self._blocks)
        return clone
