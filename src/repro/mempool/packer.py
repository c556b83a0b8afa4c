"""Block packing: fill payloads from the local pool, never double spending.

Miners and proposers call :meth:`BlockPacker.pack` instead of drawing
straight from a synthetic generator: the packer syncs the pool to the
replica's selected chain (reaping committed transactions on the way),
then fills the payload in deterministic priority order — fee
descending, arrival ascending, tx id — skipping any transaction whose
inputs are not currently available.  A skipped transaction stays pooled
(its parent may commit later); the packed payload is always valid in
the context of the chain it extends.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.blocktree.chain import Chain
from repro.mempool.pool import Mempool
from repro.workloads.transactions import Transaction

__all__ = ["BlockPacker"]


class BlockPacker:
    """Fills block payloads from a :class:`Mempool` (see module docstring)."""

    def __init__(self, pool: Mempool) -> None:
        self.pool = pool
        self.blocks_packed = 0
        self.txs_packed = 0

    def stats(self) -> Dict[str, int]:
        """Packing totals."""
        return {"blocks_packed": self.blocks_packed, "txs_packed": self.txs_packed}

    def pack(
        self, chain: Chain, limit: int, now: Optional[float] = None
    ) -> Tuple[Transaction, ...]:
        """Up to ``limit`` pool transactions valid after ``chain``.

        The payload is dependency-ordered: a transaction spending a
        coin minted earlier in the same payload may be included, so one
        block can carry a whole in-pool dependency chain.
        """
        self.pool.observe_chain(chain, now)
        view = self.pool.view
        payload: List[Transaction] = []
        payload_minted: Set[str] = set()
        payload_spent: Set[str] = set()
        for tx in self.pool.transactions():
            if len(payload) >= limit:
                break
            ok = True
            for coin in tx.inputs:
                available = (
                    view.spendable(coin) or coin in payload_minted
                ) and coin not in payload_spent
                if not available:
                    ok = False
                    break
            # Mint-freeness: an output the chain (or this payload)
            # already mints would re-create an existing coin — e.g. a
            # cross-shard decision whose rival landed first.
            if ok:
                for coin in tx.outputs:
                    if (
                        coin in view.minted
                        or coin in view.genesis_coins
                        or coin in payload_minted
                    ):
                        ok = False
                        break
            if not ok:
                continue
            payload.append(tx)
            payload_spent.update(tx.inputs)
            payload_minted.update(tx.outputs)
        if payload:
            if self.pool.check_invariants:
                assert view.payload_valid(payload), "packed payload double spends"
            self.blocks_packed += 1
            self.txs_packed += len(payload)
        return tuple(payload)
