"""Merkle roots: payload commitments for blocks.

Standard binary Merkle tree with duplicate-last-node padding (as in
Bitcoin).  The protocol models commit to transaction batches through the
root, so that block ids and PoW puzzles depend on the full payload.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.crypto.hashing import hash_hex

__all__ = ["merkle_root"]


def merkle_root(leaves: Sequence[Any]) -> str:
    """The root committing to ``leaves``: each leaf hashes as
    ``("leaf", v)``, each pair as ``("node", left, right)``, a level of
    odd length repeats its last hash, and no leaves hash as ``("empty",)``.
    """
    if not leaves:
        return hash_hex("empty")
    level = [hash_hex("leaf", v) for v in leaves]
    while len(level) > 1:
        if len(level) % 2 == 1:
            level.append(level[-1])
        level = [
            hash_hex("node", level[i], level[i + 1]) for i in range(0, len(level), 2)
        ]
    return level[0]
