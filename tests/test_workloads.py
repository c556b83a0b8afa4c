"""Tests for transactions, the chain validator, and scenarios."""

import pytest

from repro.blocktree.block import GENESIS, make_block
from repro.blocktree.chain import Chain
from repro.workloads.scenarios import ProtocolScenario, default_scenarios
from repro.workloads.transactions import (
    ChainValidator,
    Transaction,
    TransactionGenerator,
)


class TestTransaction:
    def test_content_derived_id(self):
        t1 = Transaction.make(("a",), ("b",), "alice")
        t2 = Transaction.make(("a",), ("b",), "alice")
        assert t1.tx_id == t2.tx_id

    def test_coinbase(self):
        assert not Transaction.make((), ("c",)).inputs
        assert Transaction.make(("a",), ("c",)).inputs

    def test_distinct_issuers_distinct_ids(self):
        assert (
            Transaction.make(("a",), ("b",), "alice").tx_id
            != Transaction.make(("a",), ("b",), "bob").tx_id
        )


class TestGenerator:
    def test_deterministic_stream(self):
        g1 = TransactionGenerator(seed=5)
        g2 = TransactionGenerator(seed=5)
        assert [t.tx_id for t in g1.batch(20)] == [t.tx_id for t in g2.batch(20)]

    def test_valid_stream_validates(self):
        gen = TransactionGenerator(seed=7)
        validator = ChainValidator()
        chain = Chain.genesis()
        for i in range(5):
            block = make_block(chain.tip, label=str(i), payload=gen.batch(4))
            chain = chain.extend(block)
        assert validator.chain_valid(chain)

    def test_double_spend_injection_detected(self):
        gen = TransactionGenerator(seed=7, double_spend_rate=1.0)
        validator = ChainValidator()
        # Prime the spent set, then force re-spends.
        first = gen.batch(3)
        rest = gen.batch(10)
        chain = Chain.genesis().extend(
            make_block(GENESIS, label="a", payload=first + rest)
        )
        assert not validator.chain_valid(chain)

    def test_coinbase_refill_when_unspent_exhausted(self):
        gen = TransactionGenerator(seed=1)
        gen._unspent = []
        tx = gen.next_transaction()
        assert not tx.inputs


class TestChainValidator:
    def test_unknown_input_rejected(self):
        validator = ChainValidator()
        tx = Transaction.make(("never-minted",), ("out1",))
        block = make_block(GENESIS, label="x", payload=(tx,))
        assert not validator.chain_valid(Chain.genesis().extend(block))

    def test_spend_then_respend_across_blocks_rejected(self):
        validator = ChainValidator()
        tx1 = Transaction.make(("genesis-coin-0",), ("c1",))
        tx2 = Transaction.make(("genesis-coin-0",), ("c2",))
        b1 = make_block(GENESIS, label="1", payload=(tx1,))
        b2 = make_block(b1, label="2", payload=(tx2,))
        assert not validator.chain_valid(Chain.of([GENESIS, b1, b2]))

    def test_spending_minted_coin_ok(self):
        validator = ChainValidator()
        tx1 = Transaction.make(("genesis-coin-0",), ("fresh",))
        tx2 = Transaction.make(("fresh",), ("newer",))
        b1 = make_block(GENESIS, label="1", payload=(tx1,))
        b2 = make_block(b1, label="2", payload=(tx2,))
        assert validator.chain_valid(Chain.of([GENESIS, b1, b2]))

    def test_block_valid_in_context(self):
        validator = ChainValidator()
        tx1 = Transaction.make(("genesis-coin-0",), ("fresh",))
        b1 = make_block(GENESIS, label="1", payload=(tx1,))
        prefix = Chain.of([GENESIS, b1])
        ok_payload = (Transaction.make(("fresh",), ("x",)),)
        bad_payload = (Transaction.make(("genesis-coin-0",), ("y",)),)
        assert validator.block_valid_in_context(prefix, ok_payload)
        assert not validator.block_valid_in_context(prefix, bad_payload)

    def test_reminting_rejected(self):
        validator = ChainValidator()
        tx1 = Transaction.make(("genesis-coin-0",), ("dup",))
        tx2 = Transaction.make(("genesis-coin-1",), ("dup",))
        block = make_block(GENESIS, label="1", payload=(tx1, tx2))
        assert not validator.chain_valid(Chain.genesis().extend(block))


class TestScenarios:
    def test_default_scenarios_cover_table1(self):
        scenarios = default_scenarios()
        assert set(scenarios) == {
            "bitcoin",
            "ethereum",
            "byzcoin",
            "algorand",
            "peercensus",
            "redbelly",
            "hyperledger",
        }

    def test_uniform_merit_default(self):
        s = ProtocolScenario(name="x", n_nodes=4)
        assert s.merit_of(0) == pytest.approx(0.25)

    def test_explicit_merits(self):
        s = ProtocolScenario(name="x", n_nodes=2, merits=(0.9, 0.1))
        assert s.merit_of(0) == 0.9 and s.merit_of(1) == 0.1

    def test_node_names(self):
        assert ProtocolScenario(name="x", n_nodes=3).node_names() == ("p0", "p1", "p2")


class TestCoinIdCollisionFreedom:
    """Regression: coin ids must stay collision-free under fork switching.

    The old positional scheme minted ``coin-{seed}-{counter}``: when a
    reorg made a minting block stale and the client rewound its
    generator to re-issue, the re-mint reused the same ``(seed,
    counter)`` coordinate with a *different* input lineage — two
    distinct transactions minting the identical coin id, which the
    validity predicate rejects as a re-mint if both ever commit.
    Content-derived ids (``sha256(seed, counter, inputs)``) make that
    impossible: distinct lineage ⇒ distinct id.
    """

    def test_reissue_after_fork_switch_mints_fresh_ids(self):
        gen = TransactionGenerator(seed=11)
        state = gen.snapshot()
        t1 = gen.next_transaction()
        # A reorg lands: the client learns t1's input coin is gone on
        # the new branch (an earlier gossiped copy of t1 committed
        # there), rewinds, and re-issues from the same counter with
        # whatever coin is still spendable.
        gen.restore(state)
        gen._unspent.remove(t1.inputs[0])
        t2 = gen.next_transaction()
        assert t1.inputs != t2.inputs
        assert t1.tx_id != t2.tx_id
        # Old scheme: t1.outputs == t2.outputs == ("coin-11-1",).
        assert not set(t1.outputs) & set(t2.outputs)
        # Both may therefore commit on one chain without a re-mint.
        validator = ChainValidator()
        b1 = make_block(GENESIS, label="1", payload=(t1,))
        b2 = make_block(b1, label="2", payload=(t2,))
        assert validator.chain_valid(Chain.of([GENESIS, b1, b2]))

    def test_no_two_distinct_txs_mint_one_coin_across_fork_churn(self):
        # Repeated fork switches: rewind, perturb the spendable set (the
        # new branch consumed the coin the stale pass spent first), and
        # re-issue.  Both passes' transactions circulate (the stale ones
        # were gossiped before the reorg) — no coin id may ever be
        # minted by two *distinct* transactions.  Under the positional
        # scheme every perturbed replay collided at its first draw.
        gen = TransactionGenerator(seed=23)
        minted_by = {}
        diverged = 0
        for round_index in range(25):
            state = gen.snapshot()
            first_pass = gen.batch(4)
            passes = [first_pass]
            if round_index % 2 and first_pass[0].inputs:
                gen.restore(state)
                gen._unspent.remove(first_pass[0].inputs[0])
                replay = gen.batch(4)
                passes.append(replay)
                if replay[0].tx_id != first_pass[0].tx_id:
                    diverged += 1
            for tx in (t for batch in passes for t in batch):
                for coin in tx.outputs:
                    assert minted_by.setdefault(coin, tx.tx_id) == tx.tx_id, (
                        "two distinct transactions minted one coin id"
                    )
        assert diverged > 0  # the fork switches actually changed lineage

    def test_snapshot_restore_replays_identically(self):
        gen = TransactionGenerator(seed=3, fee_mean=4.0)
        gen.batch(5)
        state = gen.snapshot()
        first = gen.batch(6)
        gen.restore(state)
        assert [t.tx_id for t in gen.batch(6)] == [t.tx_id for t in first]

    def test_distinct_seeds_never_collide(self):
        a = {c for t in TransactionGenerator(seed=1).batch(50) for c in t.outputs}
        b = {c for t in TransactionGenerator(seed=2).batch(50) for c in t.outputs}
        assert not a & b
