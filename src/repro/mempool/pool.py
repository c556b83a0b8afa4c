"""A deterministic fee-priority mempool with bounded capacity.

The pool is the replica-local stage of the transaction pipeline:
client submissions and gossiped transactions are *ingested* (validated
against the replica's best chain through the incremental
:class:`~repro.mempool.utxo.UTXOView`), *held* in fee-priority order,
*packed* into block payloads by the
:class:`~repro.mempool.packer.BlockPacker`, and *reaped* when fork
choice commits them (or returned to the pool when a reorg abandons
their block).

Determinism contract: every decision — acceptance, eviction, packing
order — is a pure function of the ingestion sequence, so two replicas
(or a serial and a parallel campaign run) seeing the same messages in
the same simulated order hold byte-identical pools.

Capacity is bounded; eviction drops the lowest-priority transaction
that no pooled transaction depends on (a dependency-closed eviction:
the pool never orphans a held transaction by evicting the parent that
mints its input).
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro._util import counter_row
from repro.blocktree.chain import Chain
from repro.mempool.utxo import UTXOView
from repro.workloads.transactions import ChainValidator, Transaction

__all__ = ["Mempool", "ingest_per_tx"]

#: The pool's row of a replica's counter table, at zero.
_ZERO = dict.fromkeys(
    ("ingested", "accepted", "rejected_duplicate", "rejected_invalid",
     "rejected_fee", "evicted", "reaped", "reorg_returns", "conflict_evicted",
     "parked", "unparked", "parked_expired", "peak_occupancy"),
    0,
)


class Mempool:
    """Replica-local transaction pool (see module docstring).

    ``capacity`` bounds the held-transaction count (0 disables the
    bound); ``min_fee`` rejects dust below the floor on ingest;
    ``check_invariants`` turns on internal assertions (used by the
    property-based suite); ``counts`` is the row of the replica's counter
    table the pool counts into (see :func:`repro._util.counter_row`).
    """

    def __init__(
        self,
        genesis_coins: Iterable[str] = (),
        capacity: int = 0,
        min_fee: float = 0.0,
        check_invariants: bool = False,
        counts: Optional[Dict[str, int]] = None,
    ) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0 (0 disables the bound)")
        self.view = UTXOView(genesis_coins)
        self.capacity = capacity
        self.min_fee = min_fee
        self.check_invariants = check_invariants
        self._txs: Dict[str, Transaction] = {}
        self._seq: Dict[str, int] = {}  # tx_id → arrival sequence number
        self._next_seq = 0
        #: coin → tx_id of the pooled transaction claiming it as input.
        self._claims: Dict[str, str] = {}
        #: coin → tx_id of the pooled transaction minting it.
        self._mints: Dict[str, str] = {}
        #: tx_id → number of pooled transactions spending its outputs.
        self._dependents: Dict[str, int] = {}
        #: Eviction heap of (fee, -seq, tx_id): the smallest entry is the
        #: lowest fee, breaking ties toward the *latest* arrival.
        self._evict_heap: List[Tuple[float, int, str]] = []
        #: Orphan parking: transactions whose inputs reference coins the
        #: pool has never seen (the minting parent is still in flight)
        #: wait here instead of being dropped — insertion-ordered, FIFO
        #: expiry at the pool's capacity bound.
        self._parked: Dict[str, Transaction] = {}
        self._parked_waits: Dict[str, Tuple[str, ...]] = {}  # tx_id → coins
        self._waiting_on: Dict[str, List[str]] = {}  # coin → parked tx ids
        #: Transactions admitted by an unpark cascade since the last
        #: :meth:`drain_unparked` — the replica relays them onward.
        self._unparked_ready: List[Transaction] = []
        #: sim-time each committed transaction was reaped at (first
        #: observation on this replica's selected chain).
        self.committed_at: Dict[str, float] = {}
        #: Lifecycle counters (all deterministic): the pool's row of the
        #: replica's counter table, shared by every pool the replica boots.
        self.counts = counter_row(counts, _ZERO)

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._txs)

    def __contains__(self, tx_id: str) -> bool:
        return tx_id in self._txs

    @property
    def occupancy(self) -> int:
        return len(self._txs)

    def is_held(self, tx_id: str) -> bool:
        """Whether the pool currently holds ``tx_id`` (pooled or parked).

        This is the replica's "I have this transaction and would relay
        it" predicate — committed transactions are *not* held (they left
        the pool when fork choice reaped them).
        """
        return tx_id in self._txs or tx_id in self._parked

    def is_known(self, tx_id: str) -> bool:
        """Held or already committed on the observed chain.

        A known transaction arriving again is a duplicate; an *unknown*
        one may be genuinely new or previously rejected for transient
        reasons (double-spend against a chain that later reorged away) —
        it must be re-judged, never dropped on sight.
        """
        return self.is_held(tx_id) or tx_id in self.view.committed

    def get_held(self, tx_id: str) -> Optional[Transaction]:
        """The held transaction body for ``tx_id`` (None when not held)."""
        tx = self._txs.get(tx_id)
        if tx is not None:
            return tx
        return self._parked.get(tx_id)

    def held_ids(self) -> Set[str]:
        """The ids of every held transaction (pooled and parked).

        This set is what a set-reconciliation transport advertises to
        peers, and what the replica's ``tx_seen`` dedup set is pruned
        against on fork-choice reads.
        """
        return set(self._txs) | set(self._parked)

    def transactions(self) -> Tuple[Transaction, ...]:
        """Pooled transactions in packing priority order."""
        return tuple(self._txs[tx_id] for tx_id in self._priority_order())

    def _priority_order(self) -> List[str]:
        """tx ids by (fee desc, arrival asc, id) — the packing order."""
        return sorted(
            self._txs,
            key=lambda tx_id: (-self._txs[tx_id].fee, self._seq[tx_id], tx_id),
        )

    def stats(self) -> Dict[str, int]:
        """Lifecycle counters plus the current occupancy and parked count."""
        return {**self.counts, "pending": len(self._parked), "occupancy": len(self)}

    # -- ingestion -----------------------------------------------------------

    def _judge(self, tx: Transaction) -> Tuple[str, Tuple[str, ...]]:
        """Admission verdict: ``ok``, ``invalid``, or ``missing`` + coins.

        An input is available when it is unspent on the chain view or
        minted by an already-pooled transaction; a claim by another
        pooled transaction (pool-level double spend), a spend of a
        chain-consumed coin, or a re-mint is definitively *invalid*.
        An input the pool has never seen at all is *missing*: the
        minting parent may simply still be in flight, so the
        transaction is parked rather than dropped.
        """
        missing = []
        for coin in tx.inputs:
            if coin in self._claims:
                return "invalid", ()  # another pooled tx already spends it
            if self.view.spendable(coin) or coin in self._mints:
                continue
            if coin in self.view.spent:
                return "invalid", ()  # double spend against the chain
            missing.append(coin)
        for coin in tx.outputs:
            if coin in self._mints or not self._mint_free(coin):
                return "invalid", ()
        if missing:
            return "missing", tuple(missing)
        return "ok", ()

    def _mint_free(self, coin: str) -> bool:
        """Whether minting ``coin`` would not re-mint an existing coin."""
        return coin not in self.view.minted and coin not in self.view.genesis_coins

    def _admit(self, tx: Transaction) -> None:
        self._txs[tx.tx_id] = tx
        self._seq[tx.tx_id] = self._next_seq
        heapq.heappush(self._evict_heap, (tx.fee, -self._next_seq, tx.tx_id))
        self._next_seq += 1
        for coin in tx.inputs:
            self._claims[coin] = tx.tx_id
            minter = self._mints.get(coin)
            if minter is not None:
                self._dependents[minter] = self._dependents.get(minter, 0) + 1
        for coin in tx.outputs:
            self._mints[coin] = tx.tx_id
            # A pooled transaction may already claim this coin: a parent
            # reaped by a commit and returned by a reorg re-enters while
            # its child is still pooled.  Rebuild the dependent count,
            # or eviction could orphan the child.
            if coin in self._claims:
                self._dependents[tx.tx_id] = self._dependents.get(tx.tx_id, 0) + 1

    def _remove(self, tx_id: str) -> Transaction:
        tx = self._txs.pop(tx_id)
        del self._seq[tx_id]
        for coin in tx.inputs:
            if self._claims.get(coin) == tx_id:
                del self._claims[coin]
            minter = self._mints.get(coin)
            if minter is not None and minter in self._txs:
                self._dependents[minter] = max(0, self._dependents.get(minter, 0) - 1)
        for coin in tx.outputs:
            if self._mints.get(coin) == tx_id:
                del self._mints[coin]
        self._dependents.pop(tx_id, None)
        return tx

    def add_batch(
        self,
        txs: Iterable[Transaction],
        chain: Optional[Chain] = None,
        now: Optional[float] = None,
    ) -> List[Transaction]:
        """Ingest a batch; returns the transactions newly accepted.

        The chain context is synchronized *once* for the whole batch
        (the batched-ingest fast path the bench gates ≥10× over per-tx
        validation); each transaction then costs O(inputs + outputs)
        set operations.  Intra-batch dependencies are admitted in batch
        order; a dependent arriving *before* its parent is parked and
        admitted when the parent lands (check :meth:`drain_unparked`
        for those — they are not in the returned list).
        """
        if chain is not None:
            self.observe_chain(chain, now=now)
        counts = self.counts
        accepted: List[Transaction] = []
        for tx in txs:
            counts["ingested"] += 1
            if (
                tx.tx_id in self._txs
                or tx.tx_id in self._parked
                or tx.tx_id in self.view.committed
            ):
                counts["rejected_duplicate"] += 1
                continue
            if tx.fee < self.min_fee:
                counts["rejected_fee"] += 1
                continue
            verdict, missing = self._judge(tx)
            if verdict == "missing":
                self._park(tx, missing)
                continue
            if verdict == "invalid":
                counts["rejected_invalid"] += 1
                continue
            self._admit(tx)
            counts["accepted"] += 1
            accepted.append(tx)
            self._retry_waiters(tx.outputs)
        counts["peak_occupancy"] = max(counts["peak_occupancy"], self.occupancy)
        self._enforce_capacity()
        return accepted

    # -- orphan parking ------------------------------------------------------

    def _park(self, tx: Transaction, missing: Tuple[str, ...]) -> None:
        """Hold ``tx`` until its missing input coins appear (FIFO bound)."""
        self._parked[tx.tx_id] = tx
        self._parked_waits[tx.tx_id] = missing
        for coin in missing:
            self._waiting_on.setdefault(coin, []).append(tx.tx_id)
        self.counts["parked"] += 1
        cap = self.capacity
        while cap and len(self._parked) > cap:
            oldest = next(iter(self._parked))
            self._unpark(oldest)
            self.counts["parked_expired"] += 1

    def _unpark(self, tx_id: str) -> Optional[Transaction]:
        """Remove one parked transaction and its wait registrations."""
        tx = self._parked.pop(tx_id, None)
        if tx is None:
            return None
        for coin in self._parked_waits.pop(tx_id, ()):
            waiters = self._waiting_on.get(coin)
            if waiters and tx_id in waiters:
                waiters.remove(tx_id)
                if not waiters:
                    del self._waiting_on[coin]
        return tx

    def _retry_waiters(self, coins: Iterable[str]) -> None:
        """Re-judge parked transactions once ``coins`` become mintable.

        Iterative cascade: an unparked admission releases its own
        outputs, which may unpark further descendants.  Newly admitted
        transactions are queued on :meth:`drain_unparked` so the
        replica can relay them (they were never gossiped onward while
        parked).
        """
        queue = list(coins)
        while queue:
            coin = queue.pop(0)
            for tx_id in tuple(self._waiting_on.get(coin, ())):
                tx = self._unpark(tx_id)
                if tx is None:
                    continue
                verdict, missing = self._judge(tx)
                if verdict == "missing":
                    self._park(tx, missing)
                    self.counts["parked"] -= 1  # a re-park, not a new arrival
                elif verdict == "invalid":
                    self.counts["rejected_invalid"] += 1
                else:
                    self._admit(tx)
                    self.counts["accepted"] += 1
                    self.counts["unparked"] += 1
                    self._unparked_ready.append(tx)
                    queue.extend(tx.outputs)

    def drain_unparked(self) -> List[Transaction]:
        """Transactions admitted by unpark cascades since the last drain."""
        ready, self._unparked_ready = self._unparked_ready, []
        return ready

    # -- eviction ------------------------------------------------------------

    def _enforce_capacity(self) -> None:
        """Evict lowest-priority dependency-free transactions to fit.

        A transaction with pooled dependents is never evicted before
        its dependents (evicting the parent would orphan the child's
        input); skipped candidates are re-queued once an eviction
        frees room.  The dependency graph is acyclic, so a childless
        candidate always exists.
        """
        if not self.capacity:
            return
        while self.occupancy > self.capacity:
            skipped: List[Tuple[float, int, str]] = []
            evicted_id: Optional[str] = None
            while self._evict_heap:
                entry = heapq.heappop(self._evict_heap)
                tx_id = entry[2]
                if tx_id not in self._txs:
                    continue  # stale: already packed/reaped/evicted
                if self._dependents.get(tx_id, 0) > 0:
                    skipped.append(entry)
                    continue
                evicted_id = tx_id
                break
            for entry in skipped:
                heapq.heappush(self._evict_heap, entry)
            if evicted_id is None:  # pragma: no cover - DAG guarantees one
                raise AssertionError("no dependency-free eviction candidate")
            if self.check_invariants:
                assert self._dependents.get(evicted_id, 0) == 0, (
                    "eviction would orphan a pooled dependent"
                )
            self._remove(evicted_id)
            self.counts["evicted"] += 1

    # -- chain lifecycle -----------------------------------------------------

    def observe_chain(self, chain: Chain, now: Optional[float]) -> None:
        """Sync to the replica's selected chain (the fork-choice read).

        Newly committed blocks have their transactions reaped from the
        pool (stamped ``committed_at[tx_id] = now`` on first
        observation); blocks abandoned by a reorg have their
        transactions returned to the pool when still admissible.
        """
        applied, unapplied = self.view.sync(chain)
        if not applied and not unapplied:
            return
        counts = self.counts
        returned: List[Transaction] = []
        for block in unapplied:  # tip-first: dependents before parents
            for tx in reversed(block.payload):
                returned.append(tx)
        committed_coins: List[str] = []
        for block in applied:
            for tx in block.payload:
                if tx.tx_id in self._txs:
                    self._remove(tx.tx_id)
                    counts["reaped"] += 1
                elif tx.tx_id in self._parked:
                    self._unpark(tx.tx_id)
                if now is not None and tx.tx_id not in self.committed_at:
                    self.committed_at[tx.tx_id] = now
                committed_coins.extend(tx.outputs)
        # A held transaction whose output a newly applied block already
        # minted can never be packed on this branch again (it would
        # re-mint the coin — e.g. a cross-shard COMMIT overtaken by the
        # rival ABORT during a partition heal): drop it, keeping pool
        # admissibility and packer validity in agreement.
        if applied:
            minted_now = set(committed_coins)
            for tx in list(self._txs.values()):
                if any(coin in minted_now for coin in tx.outputs):
                    self._remove(tx.tx_id)
                    counts["conflict_evicted"] += 1
        # Parent-first re-admission so intra-reorg dependencies resolve;
        # a returned transaction whose input is unknown on the new
        # branch parks like any other orphan.
        for tx in reversed(returned):
            if (
                tx.tx_id in self._txs
                or tx.tx_id in self._parked
                or tx.tx_id in self.view.committed
            ):
                continue
            verdict, missing = self._judge(tx)
            if verdict == "ok":
                self._admit(tx)
                counts["reorg_returns"] += 1
                self._retry_waiters(tx.outputs)
            elif verdict == "missing":
                self._park(tx, missing)
        # Freshly committed coins may satisfy parked dependents.
        self._retry_waiters(committed_coins)
        counts["peak_occupancy"] = max(counts["peak_occupancy"], self.occupancy)
        self._enforce_capacity()
        if self.check_invariants:
            self._check_consistency()

    # -- invariants ----------------------------------------------------------

    def _check_consistency(self) -> None:
        """Internal structural invariants (property-test hook)."""
        claimed: Set[str] = set()
        for tx in self._txs.values():
            for coin in tx.inputs:
                assert coin not in claimed, "two pooled txs claim one coin"
                claimed.add(coin)
                assert self._claims.get(coin) == tx.tx_id
        # Every pooled tx's dependent count matches reality — checked
        # for all of them, so a re-admitted parent with a missing count
        # (not merely a drifted one) is caught too.
        for tx_id in self._txs:
            actual = sum(
                1
                for other in self._txs.values()
                for coin in other.inputs
                if self._mints.get(coin) == tx_id
            )
            assert self._dependents.get(tx_id, 0) == actual, ("dependent count drifted")
        for tx_id in self._parked:
            assert tx_id not in self._txs, "tx both pooled and parked"
            assert self._parked_waits.get(tx_id), "parked tx waits on nothing"


def ingest_per_tx(
    chain: Chain,
    txs: Iterable[Transaction],
    genesis_coins: Iterable[str] = (),
) -> List[Transaction]:
    """The pre-mempool ingestion path: per-transaction chain validation.

    Every transaction is judged by
    :meth:`ChainValidator.block_valid_in_context` against the *whole*
    chain prefix — an O(chain) scan per transaction.  Retained as the
    baseline the batched-ingest bench gate compares against (and as a
    correctness oracle: a transaction accepted here must be accepted by
    :meth:`Mempool.add_batch` on the same chain, modulo intra-batch
    dependencies the per-tx path cannot see).
    """
    validator = ChainValidator(genesis_coins)
    accepted: List[Transaction] = []
    seen: Set[str] = set()
    spent: Set[str] = set()
    for tx in txs:
        if tx.tx_id in seen:
            continue
        if any(coin in spent for coin in tx.inputs):
            continue
        if validator.block_valid_in_context(chain, (tx,)):
            accepted.append(tx)
            seen.add(tx.tx_id)
            spent.update(tx.inputs)
    return accepted
