"""Append-only binary log store: O(1) append, crash-recoverable replay.

On-disk format (all integers big-endian)::

    header   := b"BTLOG01\\n"                      (8 bytes)
    record   := type(1) length(4) crc32(4) body(length)
    type     := b"B" (block, body = encode_block)

Appends write one record at the end of the file and register the body
offset in an in-memory index — O(1) amortized, buffered by the OS file
layer (call :meth:`flush`/``sync=True`` for durability points).  Reads
seek straight to the indexed offset, so a cold ``get`` costs one seek +
one CRC-checked decode.

Crash recovery: opening an existing log replays it record by record,
rebuilding the offset index.  A torn tail — a partial record head, a
short body, or a CRC mismatch from a crash mid-write — ends the replay
at the last good record and **truncates** the file there, so the store
reopens in a consistent prefix state and keeps accepting appends.  Any
record fully written before the crash survives.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import Dict, Iterator, Tuple

from repro.blocktree.block import Block
from repro.storage.base import BlockStore, StoreError, decode_block, encode_block

__all__ = ["AppendOnlyLogStore"]

_MAGIC = b"BTLOG01\n"
_HEAD = struct.Struct(">cII")  # type, body length, body crc32


class AppendOnlyLogStore(BlockStore):
    """Binary log + offset index (module docstring for the format).

    Parameters
    ----------
    path:
        Log file location; created (with parents) when absent, replayed
        when present.
    sync:
        When true, every :meth:`flush` also ``fsync``\\ s — durability
        against power loss at the price of append throughput.
    """

    kind = "log"

    def __init__(self, path: str, sync: bool = False) -> None:
        self.path = str(path)
        self.sync = sync
        #: block id → (body offset, body length) in file order.
        self._index: Dict[str, Tuple[int, int]] = {}
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        fresh = not os.path.exists(self.path) or os.path.getsize(self.path) == 0
        self._fh = open(self.path, "a+b" if fresh else "r+b")
        if fresh:
            self._fh.write(_MAGIC)
            self._fh.flush()
            self._end = len(_MAGIC)
        else:
            self._replay()
        self._at_end = False  # file position is at _end, ready to append
        self._dirty = False  # unflushed writes the read path must not miss

    # -- recovery ---------------------------------------------------------

    def _replay(self) -> None:
        """Rebuild the index from the log; truncate a torn tail."""
        fh = self._fh
        fh.seek(0)
        if fh.read(len(_MAGIC)) != _MAGIC:
            raise StoreError(f"{self.path} is not a block log (bad magic)")
        offset = len(_MAGIC)
        while True:
            head = fh.read(_HEAD.size)
            if len(head) < _HEAD.size:
                break  # clean end, or a torn record head
            rtype, length, crc = _HEAD.unpack(head)
            body = fh.read(length)
            if len(body) < length or zlib.crc32(body) != crc:
                break  # torn/corrupt body from a crash mid-write
            if rtype != b"B":
                break  # unknown record type: treat as corruption
            block = decode_block(body)
            self._index.setdefault(block.block_id, (offset + _HEAD.size, length))
            offset += _HEAD.size + length
        self._end = offset
        fh.truncate(offset)

    # -- blocks -----------------------------------------------------------

    def put(self, block: Block) -> None:
        """Append one block record at the end (idempotent per block id)."""
        if block.block_id in self._index:
            return
        body = encode_block(block)
        fh = self._fh
        if not self._at_end:
            fh.seek(self._end)
            self._at_end = True
        fh.write(_HEAD.pack(b"B", len(body), zlib.crc32(body)))
        fh.write(body)
        self._index[block.block_id] = (self._end + _HEAD.size, len(body))
        self._end += _HEAD.size + len(body)
        self._dirty = True

    def get(self, block_id: str) -> Block:
        """Seek + CRC-checked decode of one stored block."""
        offset, length = self._index[block_id]  # KeyError propagates
        if self._dirty:
            self.flush()
        fh = self._fh
        fh.seek(offset)
        self._at_end = False
        body = fh.read(length)
        if len(body) < length:
            raise StoreError(f"{self.path}: truncated record at {offset}")
        return decode_block(body)

    def __contains__(self, block_id: str) -> bool:
        return block_id in self._index

    def __len__(self) -> int:
        return len(self._index)

    def scan(self) -> Iterator[Block]:
        """Decode every block in append order (the replay order)."""
        for block_id in list(self._index):
            yield self.get(block_id)

    # -- lifecycle --------------------------------------------------------

    def flush(self) -> None:
        """Flush buffered writes (and ``fsync`` when ``sync=True``)."""
        self._fh.flush()
        if self.sync:
            os.fsync(self._fh.fileno())
        self._dirty = False

    def close(self) -> None:
        """Flush and close the file handle."""
        if not self._fh.closed:
            self.flush()
            self._fh.close()
