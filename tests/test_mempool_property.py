"""Property-based suite for the mempool invariants (Hypothesis).

Three invariants over randomized client streams, capacity pressure and
fork-choice churn:

* **packed validity** — no payload the packer emits ever double spends
  in the context of the chain it extends (judged by the retained
  ``ChainValidator`` oracle, never by the pool's own view);
* **dependency-safe eviction** — bounded-capacity eviction never
  orphans a pooled transaction by dropping the transaction minting its
  input (every pooled transaction's inputs stay chain-spendable or
  pool-minted);
* **determinism** — a pool fed the same stream twice (same seed) holds
  the same transactions in the same priority order and packs the same
  payload sequence.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocktree.block import make_block
from repro.blocktree.chain import Chain
from repro.mempool.packer import BlockPacker
from repro.mempool.pool import Mempool
from repro.workloads.transactions import (
    ChainValidator,
    TransactionGenerator,
    default_genesis_coins,
)

#: Two clients with disjoint coin namespaces, the way traffic scenarios
#: seed them; double spends injected to exercise rejection.
def _stream(seed: int, n: int, double_spend_rate: float):
    gens = [
        TransactionGenerator(
            seed=seed * 31 + i,
            double_spend_rate=double_spend_rate,
            fee_mean=5.0,
            genesis_coins=default_genesis_coins(4, f"c{i}"),
        )
        for i in range(2)
    ]
    return [gens[i % 2].next_transaction() for i in range(n)]


def _universe():
    return default_genesis_coins(4, "c0") + default_genesis_coins(4, "c1")


@st.composite
def pipeline_case(draw):
    seed = draw(st.integers(min_value=0, max_value=2**32))
    n_tx = draw(st.integers(min_value=5, max_value=80))
    batch = draw(st.integers(min_value=1, max_value=9))
    capacity = draw(st.sampled_from([0, 3, 8, 16]))
    ds_rate = draw(st.sampled_from([0.0, 0.2, 0.5]))
    limit = draw(st.integers(min_value=1, max_value=6))
    return seed, n_tx, batch, capacity, ds_rate, limit


@settings(max_examples=40, deadline=None)
@given(pipeline_case())
def test_packed_blocks_never_double_spend(case):
    """Ingest in batches, pack+commit after each: every payload valid."""
    seed, n_tx, batch, capacity, ds_rate, limit = case
    coins = _universe()
    txs = _stream(seed, n_tx, ds_rate)
    pool = Mempool(genesis_coins=coins, capacity=capacity, check_invariants=True)
    packer = BlockPacker(pool)
    validator = ChainValidator(coins)
    chain = Chain.genesis()
    height = 0
    for lo in range(0, len(txs), batch):
        pool.add_batch(txs[lo : lo + batch], chain=chain, now=float(lo))
        payload = packer.pack(chain, limit=limit, now=float(lo))
        assert validator.block_valid_in_context(chain, payload)
        if payload:
            height += 1
            chain = chain.extend(
                make_block(chain.tip, label=f"h{height}", payload=payload)
            )
    assert validator.chain_valid(chain)
    # Reap everything committed: pooled txs never overlap the chain.
    pool.observe_chain(chain, now=float(n_tx))
    committed = {tx.tx_id for block in chain.non_genesis() for tx in block.payload}
    assert not committed & {tx.tx_id for tx in pool.transactions()}


@settings(max_examples=40, deadline=None)
@given(pipeline_case())
def test_eviction_never_orphans_a_dependency(case):
    """Under capacity pressure, pooled inputs stay satisfiable."""
    seed, n_tx, batch, _capacity, ds_rate, _limit = case
    coins = _universe()
    txs = _stream(seed, n_tx, ds_rate)
    pool = Mempool(genesis_coins=coins, capacity=4, check_invariants=True)
    chain = Chain.genesis()
    for lo in range(0, len(txs), batch):
        pool.add_batch(txs[lo : lo + batch], chain=chain)
        pooled = pool.transactions()
        pool_minted = {coin for tx in pooled for coin in tx.outputs}
        for tx in pooled:
            for coin in tx.inputs:
                assert pool.view.spendable(coin) or coin in pool_minted, (
                    "eviction orphaned a pooled dependent"
                )
    assert pool.occupancy <= 4


@settings(max_examples=25, deadline=None)
@given(pipeline_case())
def test_same_seed_same_pool_and_packing(case):
    """Byte-identical replay: ordering and packing are seed-determined."""
    seed, n_tx, batch, capacity, ds_rate, limit = case
    coins = _universe()

    def run():
        txs = _stream(seed, n_tx, ds_rate)
        pool = Mempool(genesis_coins=coins, capacity=capacity)
        packer = BlockPacker(pool)
        chain = Chain.genesis()
        payloads = []
        for lo in range(0, len(txs), batch):
            pool.add_batch(txs[lo : lo + batch], chain=chain)
            payloads.append([tx.tx_id for tx in packer.pack(chain, limit=limit)])
        return payloads, [tx.tx_id for tx in pool.transactions()], pool.stats()

    assert run() == run()
