"""Unit tests for the transaction pipeline: UTXO view, pool, packer, wiring."""

from __future__ import annotations

import pytest

from repro.blocktree.block import GENESIS, make_block
from repro.blocktree.chain import Chain
from repro.blocktree.tree import BlockTree
from repro.mempool.packer import BlockPacker
from repro.mempool.pool import Mempool, ingest_per_tx
from repro.mempool.utxo import UTXOView
from repro.protocols.bitcoin import run_bitcoin
from repro.workloads.scenarios import (
    AdversarialScenario,
    PartitionWindow,
    ProtocolScenario,
)
from repro.workloads.traffic import traffic_presets
from repro.workloads.transactions import ChainValidator, Transaction

COINS = tuple(f"g{i}" for i in range(16))


def tx(inputs, outputs, fee=0.0):
    return Transaction.make(inputs, outputs, "t", fee=fee)


def block_chain(*payloads):
    """A chain of blocks carrying ``payloads`` in order."""
    blocks = [GENESIS]
    for i, payload in enumerate(payloads):
        blocks.append(make_block(blocks[-1], label=f"b{i}", payload=tuple(payload)))
    return Chain.of(blocks)


class TestUTXOView:
    def test_apply_tracks_chain_validator(self):
        chain = block_chain([tx(("g0",), ("x",))], [tx(("x",), ("y",))])
        view = UTXOView(COINS)
        applied, unapplied = view.sync(chain)
        assert len(applied) == 2 and not unapplied
        assert view.spendable("y") and view.spendable("g1")
        assert not view.spendable("x") and not view.spendable("g0")
        assert ChainValidator(COINS).chain_valid(chain)

    def test_same_tip_sync_is_noop(self):
        chain = block_chain([tx(("g0",), ("x",))])
        view = UTXOView(COINS)
        view.sync(chain)
        assert view.sync(chain) == ((), ())

    def test_reorg_rewinds_exactly_the_abandoned_suffix(self):
        tree = BlockTree()
        a1 = make_block(GENESIS, label="a1", payload=(tx(("g0",), ("xa",)),))
        a2 = make_block(a1, label="a2", payload=(tx(("xa",), ("ya",)),))
        b1 = make_block(GENESIS, label="b1", payload=(tx(("g1",), ("xb",)),))
        b2 = make_block(b1, label="b2", payload=(tx(("g2",), ("yb",)),))
        b3 = make_block(b2, label="b3", payload=(tx(("yb",), ("zb",)),))
        for b in (a1, a2, b1, b2, b3):
            tree.add_block(b)
        view = UTXOView(COINS)
        view.sync(Chain.view(tree, a2.block_id))
        applied, unapplied = view.sync(Chain.view(tree, b3.block_id))
        assert [b.block_id for b in unapplied] == [a2.block_id, a1.block_id]
        assert [b.block_id for b in applied] == [
            b1.block_id,
            b2.block_id,
            b3.block_id,
        ]
        # The rewound view equals one built fresh on the new branch.
        fresh = UTXOView(COINS)
        fresh.sync(Chain.view(tree, b3.block_id))
        assert view.spent == fresh.spent
        assert view.minted == fresh.minted
        assert view.committed == fresh.committed

    def test_payload_valid_matches_chain_validator(self):
        chain = block_chain([tx(("g0",), ("x",))])
        view = UTXOView(COINS)
        view.sync(chain)
        validator = ChainValidator(COINS)
        good = (tx(("x",), ("w",)), tx(("g1",), ("v",)))
        bad = (tx(("g0",), ("again",)),)
        assert view.payload_valid(good)
        assert validator.block_valid_in_context(chain, good)
        assert not view.payload_valid(bad)
        assert not validator.block_valid_in_context(chain, bad)


class TestMempool:
    def pool(self, **kwargs):
        return Mempool(genesis_coins=COINS, check_invariants=True, **kwargs)

    def test_duplicate_and_double_spend_filtered(self):
        pool = self.pool()
        t1 = tx(("g0",), ("x",))
        conflict = tx(("g0",), ("other",))
        accepted = pool.add_batch([t1, t1, conflict])
        assert [t.tx_id for t in accepted] == [t1.tx_id]
        assert pool.counts["rejected_duplicate"] == 1
        assert pool.counts["rejected_invalid"] == 1

    def test_committed_tx_rejected_as_duplicate(self):
        t1 = tx(("g0",), ("x",))
        pool = self.pool()
        pool.observe_chain(block_chain([t1]), now=1.0)
        assert pool.add_batch([t1]) == []
        assert pool.counts["rejected_duplicate"] == 1

    def test_min_fee_floor(self):
        pool = self.pool(min_fee=1.0)
        dust = tx(("g0",), ("x",), fee=0.5)
        paying = tx(("g1",), ("y",), fee=2.0)
        accepted = pool.add_batch([dust, paying])
        assert [t.tx_id for t in accepted] == [paying.tx_id]
        assert pool.counts["rejected_fee"] == 1

    def test_priority_order_is_fee_then_arrival(self):
        pool = self.pool()
        low = tx(("g0",), ("a",), fee=1.0)
        high = tx(("g1",), ("b",), fee=9.0)
        mid = tx(("g2",), ("c",), fee=5.0)
        pool.add_batch([low, high, mid])
        assert [t.tx_id for t in pool.transactions()] == [
            high.tx_id,
            mid.tx_id,
            low.tx_id,
        ]

    def test_eviction_drops_lowest_fee_first(self):
        pool = self.pool(capacity=2)
        txs = [tx((f"g{i}",), (f"o{i}",), fee=float(i)) for i in range(4)]
        pool.add_batch(txs)
        assert pool.counts["evicted"] == 2
        kept = {t.fee for t in pool.transactions()}
        assert kept == {2.0, 3.0}

    def test_eviction_never_orphans_a_dependent(self):
        # parent mints the coin its (higher-fee) child spends; the
        # parent is the lowest-fee entry but must not be evicted while
        # the child is pooled — the dependency-free candidate goes.
        pool = self.pool(capacity=2)
        parent = tx(("g0",), ("pc",), fee=0.5)
        child = tx(("pc",), ("cc",), fee=9.0)
        loner = tx(("g1",), ("lc",), fee=1.0)
        pool.add_batch([parent, child, loner])
        assert pool.counts["evicted"] == 1
        ids = {t.tx_id for t in pool.transactions()}
        assert ids == {parent.tx_id, child.tx_id}

    def test_rival_mint_on_chain_evicts_held_conflict(self):
        # Regression: an applied block minting a coin a pooled tx also
        # mints (rival cross-shard decisions both mint xdec-{tid}) must
        # evict the pooled tx — inputless records never trip the input
        # checks, so mint-exclusion is the only thing that catches them.
        pool = self.pool()
        held = tx((), ("xdec-1",), fee=5.0)
        pool.add_batch([held], chain=Chain.genesis())
        rival = tx((), ("xdec-1", "xc-1"))
        pool.observe_chain(block_chain([rival]), now=1.0)
        assert held.tx_id not in pool
        assert pool.counts["conflict_evicted"] == 1
        assert pool.stats()["conflict_evicted"] == 1

    def test_reap_on_commit_and_return_on_reorg(self):
        tree = BlockTree()
        t1 = tx(("g0",), ("x",))
        t2 = tx(("g1",), ("y",))
        a1 = make_block(GENESIS, label="a1", payload=(t1,))
        b1 = make_block(GENESIS, label="b1", payload=(t2,))
        b2 = make_block(b1, label="b2", payload=())
        for b in (a1, b1, b2):
            tree.add_block(b)
        pool = self.pool()
        pool.add_batch([t1, t2])
        pool.observe_chain(Chain.view(tree, a1.block_id), now=5.0)
        assert t1.tx_id not in pool and t2.tx_id in pool
        assert pool.committed_at[t1.tx_id] == 5.0
        # Reorg to the b-branch: t1 returns to the pool, t2 is reaped.
        pool.observe_chain(Chain.view(tree, b2.block_id), now=9.0)
        assert t1.tx_id in pool and t2.tx_id not in pool
        assert pool.counts["reorg_returns"] == 1
        # The commit stamp of t1 survives (first observation).
        assert pool.committed_at[t1.tx_id] == 5.0

    def test_reorg_returned_parent_keeps_dependent_protection(self):
        # Regression: a parent reaped by a commit and returned by a
        # reorg must re-enter with its dependent count rebuilt — under
        # capacity pressure the (lowest-fee) parent must not be evicted
        # while its pooled child still spends its output.
        tree = BlockTree()
        parent = tx(("g0",), ("pc",), fee=0.1)
        child = tx(("pc",), ("cc",), fee=9.0)
        a1 = make_block(GENESIS, label="a1", payload=(parent,))
        b1 = make_block(GENESIS, label="b1", payload=())
        b2 = make_block(b1, label="b2", payload=())
        for b in (a1, b1, b2):
            tree.add_block(b)
        pool = self.pool(capacity=2)
        pool.add_batch([parent, child])
        pool.observe_chain(Chain.view(tree, a1.block_id), now=1.0)
        assert parent.tx_id not in pool and child.tx_id in pool
        pool.observe_chain(Chain.view(tree, b2.block_id), now=2.0)
        assert parent.tx_id in pool  # returned by the reorg
        filler = tx(("g1",), ("fc",), fee=5.0)
        pool.add_batch([filler])
        assert pool.counts["evicted"] == 1
        ids = {t.tx_id for t in pool.transactions()}
        assert ids == {parent.tx_id, child.tx_id}

    def test_dependent_arriving_before_parent_is_parked_then_admitted(self):
        pool = self.pool()
        parent = tx(("g0",), ("pc",), fee=1.0)
        child = tx(("pc",), ("cc",), fee=2.0)
        grandchild = tx(("cc",), ("gc",), fee=3.0)
        assert pool.add_batch([grandchild, child]) == []  # both orphans
        assert pool.occupancy == 0 and pool.counts["parked"] == 2
        accepted = pool.add_batch([parent])
        assert [t.tx_id for t in accepted] == [parent.tx_id]
        # The unpark cascade admitted child then grandchild.
        assert {t.tx_id for t in pool.drain_unparked()} == {
            child.tx_id,
            grandchild.tx_id,
        }
        assert pool.occupancy == 3 and pool.counts["unparked"] == 2

    def test_parked_orphans_expire_fifo_at_capacity(self):
        pool = self.pool(capacity=2)
        orphans = [tx((f"never-{i}",), (f"o{i}",)) for i in range(3)]
        pool.add_batch(orphans)
        assert pool.counts["parked"] == 3 and pool.counts["parked_expired"] == 1
        assert pool.stats()["pending"] == 2

    def test_conflicting_orphans_first_arrival_wins(self):
        pool = self.pool()
        parent = tx(("g0",), ("pc",))
        first = tx(("pc",), ("a",), fee=1.0)
        second = tx(("pc",), ("b",), fee=9.0)  # same missing coin
        pool.add_batch([first, second])
        pool.add_batch([parent])
        pooled = {t.tx_id for t in pool.transactions()}
        assert first.tx_id in pooled and second.tx_id not in pooled
        assert pool.counts["rejected_invalid"] == 1

    def test_commit_unparks_waiting_dependent(self):
        # The missing parent never reaches this pool; its *block* does.
        parent = tx(("g0",), ("pc",))
        child = tx(("pc",), ("cc",))
        pool = self.pool()
        pool.add_batch([child])
        assert pool.occupancy == 0 and pool.counts["parked"] == 1
        pool.observe_chain(block_chain([parent]), now=4.0)
        assert child.tx_id in pool
        assert [t.tx_id for t in pool.drain_unparked()] == [child.tx_id]

    def test_ingest_per_tx_agrees_on_independent_batches(self):
        chain = block_chain([tx(("g0",), ("x",))])
        batch = [tx(("g1",), ("a",)), tx(("g0",), ("dup-spend",)), tx(("x",), ("b",))]
        ref = {t.tx_id for t in ingest_per_tx(chain, batch, COINS)}
        pool = self.pool()
        fast = {t.tx_id for t in pool.add_batch(batch, chain=chain)}
        assert ref == fast


class TestBlockPacker:
    def test_packed_payload_valid_in_chain_context(self):
        chain = block_chain([tx(("g0",), ("x",))])
        pool = Mempool(genesis_coins=COINS)
        conflict_a = tx(("g1",), ("ca",), fee=3.0)
        conflict_chain = tx(("g0",), ("cb",), fee=8.0)  # g0 spent on chain
        pool.add_batch([conflict_a, conflict_chain], chain=chain)
        packer = BlockPacker(pool)
        payload = packer.pack(chain, limit=5)
        assert ChainValidator(COINS).block_valid_in_context(chain, payload)
        assert conflict_chain.tx_id not in {t.tx_id for t in payload}

    def test_in_payload_dependency_packed_in_arrival_order(self):
        pool = Mempool(genesis_coins=COINS)
        parent = tx(("g0",), ("pc",), fee=2.0)
        child = tx(("pc",), ("cc",), fee=2.0)
        chain = Chain.genesis()
        pool.add_batch([parent, child], chain=chain)
        payload = BlockPacker(pool).pack(chain, limit=5)
        assert [t.tx_id for t in payload] == [parent.tx_id, child.tx_id]

    def test_pack_skips_txs_reminting_existing_coins(self):
        # Regression: the packed payload must be mint-free against the
        # chain, the genesis set and the payload built so far — packing
        # the lower-fee rival of an already-packed decision would
        # re-create its coin.
        pool = Mempool(genesis_coins=COINS)
        chain = Chain.genesis()
        winner = tx((), ("xdec-3",), fee=9.0)
        rival = tx(("g0",), ("xdec-3",), fee=1.0)
        regenesis = tx(("g1",), ("g2",), fee=5.0)
        pool.add_batch([winner, rival, regenesis], chain=chain)
        payload = BlockPacker(pool).pack(chain, limit=5)
        ids = {t.tx_id for t in payload}
        assert winner.tx_id in ids
        assert rival.tx_id not in ids
        assert regenesis.tx_id not in ids

    def test_limit_respected_and_priority_wins(self):
        pool = Mempool(genesis_coins=COINS)
        txs = [tx((f"g{i}",), (f"o{i}",), fee=float(i)) for i in range(6)]
        chain = Chain.genesis()
        pool.add_batch(txs, chain=chain)
        payload = BlockPacker(pool).pack(chain, limit=3)
        assert [t.fee for t in payload] == [5.0, 4.0, 3.0]


def steady_scenario(name="bitcoin-pipe", duration=120.0, preset="steady", **kw):
    return ProtocolScenario(
        name=name,
        n_nodes=4,
        duration=duration,
        mean_block_interval=10.0,
        tx_per_block=6,
        traffic=traffic_presets()[preset],
        **kw,
    )


class TestPipelineIntegration:
    def test_bitcoin_commits_client_transactions(self):
        run = run_bitcoin(steady_scenario())
        stats = run.mempool_stats()
        assert stats["committed"]["txs"] > 0
        assert stats["committed"]["tx_per_s"] > 0
        assert stats["committed"]["latency"]["p50"] > 0
        assert 0 < stats["duplicate_relay_ratio"] < 1
        # Every committed chain is double-spend free under the client
        # coin universe (the packer's contextual-validity guarantee).
        validator = ChainValidator(run.scenario.traffic.genesis_coins())
        for chain in run.final_chains().values():
            assert validator.chain_valid(chain)

    def test_mempool_stats_deterministic(self):
        scenario = steady_scenario()
        assert run_bitcoin(scenario).mempool_stats() == run_bitcoin(
            scenario
        ).mempool_stats()

    def test_spam_flood_exercises_rejection_and_eviction(self):
        run = run_bitcoin(steady_scenario(name="bitcoin-spam", preset="spam-flood"))
        stats = run.mempool_stats()
        rejected = sum(
            node["rejected_invalid"] + node["rejected_duplicate"]
            for node in stats["per_node"].values()
        )
        assert rejected > 0
        assert stats["committed"]["txs"] > 0  # honest traffic still lands

    def test_partition_shapes_tx_propagation(self):
        # During a never-healing partition, transactions submitted on
        # one side must not reach the other side's pools.
        duration = 120.0
        names = ("p0", "p1", "p2", "p3")
        scenario = AdversarialScenario(
            name="partition-tx",
            n_nodes=4,
            duration=duration,
            mean_block_interval=10.0,
            tx_per_block=6,
            traffic=traffic_presets()["steady"],
            partitions=(
                PartitionWindow(groups=(names[:2], names[2:]), start=0.0),
            ),
        )
        run = run_bitcoin(scenario)
        ingested = {
            name: node["ingested"]
            for name, node in run.mempool_stats()["per_node"].items()
        }
        by_side = {0: set(), 1: set()}
        for sub in run.submissions:
            side = 0 if sub.ingress in names[:2] else 1
            by_side[side].update(tx.tx_id for tx in sub.txs)
        # Each node saw at most its own side's transactions.
        for node in run.nodes:
            side = 0 if node.name in names[:2] else 1
            assert node.tx_seen <= by_side[side]
        assert all(count > 0 for count in ingested.values())

    def test_traffic_disabled_keeps_generator_path(self):
        run = run_bitcoin(ProtocolScenario(name="bitcoin-plain", duration=120.0))
        assert run.mempool_stats() == {}
        assert run.submissions == ()
        assert all(node.pool is None for node in run.nodes)


def test_scenario_validates_traffic():
    with pytest.raises(ValueError):
        steady_scenario().traffic.__class__(name="", rate=1.0)
    with pytest.raises(ValueError):
        steady_scenario().traffic.__class__(name="x", rate=-1.0)
