"""Tests for the BlockTree structure."""

import pytest

from repro.blocktree.block import GENESIS, make_block
from repro.blocktree.tree import BlockTree


class TestInsertion:
    def test_starts_with_genesis(self):
        t = BlockTree()
        assert GENESIS.block_id in t
        assert len(t) == 1

    def test_add_block(self):
        t = BlockTree()
        b = make_block(GENESIS, label="1")
        assert t.add_block(b)
        assert b.block_id in t
        assert t.height(b.block_id) == 1

    def test_add_duplicate_is_noop(self):
        t = BlockTree()
        b = make_block(GENESIS, label="1")
        assert t.add_block(b)
        assert not t.add_block(b)
        assert len(t) == 2

    def test_missing_parent_raises(self):
        t = BlockTree()
        orphan = make_block("nonexistent", label="x")
        with pytest.raises(KeyError):
            t.add_block(orphan)

    def test_second_genesis_rejected(self):
        from repro.blocktree.block import Block

        t = BlockTree()
        assert not t.add_block(GENESIS)  # same genesis: idempotent no-op
        with pytest.raises(ValueError):
            t.add_block(Block(block_id="genesis2", parent_id=None, label="g2"))


class TestBookkeeping:
    def _forked_tree(self):
        t = BlockTree()
        a = make_block(GENESIS, label="a", weight=1.0)
        b = make_block(GENESIS, label="b", weight=1.0)
        a1 = make_block(a, label="a1", weight=1.0)
        a2 = make_block(a, label="a2", weight=1.0)
        for blk in (a, b, a1, a2):
            t.add_block(blk)
        return t, a, b, a1, a2

    def test_heights(self):
        t, a, b, a1, a2 = self._forked_tree()
        assert t.height(a1.block_id) == 2
        assert t.height(b.block_id) == 1

    def test_chain_weight_accumulates(self):
        t, a, b, a1, a2 = self._forked_tree()
        assert t.chain_weight(a1.block_id) == pytest.approx(2.0)

    def test_subtree_weight_ghost(self):
        t, a, b, a1, a2 = self._forked_tree()
        assert t.subtree_weight(a.block_id) == pytest.approx(3.0)
        assert t.subtree_weight(b.block_id) == pytest.approx(1.0)
        assert t.subtree_weight(GENESIS.block_id) == pytest.approx(4.0)

    def test_leaves(self):
        t, a, b, a1, a2 = self._forked_tree()
        labels = {leaf.label for leaf in t.leaves()}
        assert labels == {"b", "a1", "a2"}

    def test_fork_degree(self):
        t, a, b, a1, a2 = self._forked_tree()
        assert t.fork_degree(GENESIS.block_id) == 2
        assert t.fork_degree(a.block_id) == 2
        assert t.max_fork_degree() == 2

    def test_children_order(self):
        t, a, b, a1, a2 = self._forked_tree()
        assert [c.label for c in t.children(a.block_id)] == ["a1", "a2"]

    def test_chain_to(self):
        t, a, b, a1, a2 = self._forked_tree()
        chain = t.chain_to(a1.block_id)
        assert [blk.label for blk in chain.non_genesis()] == ["a", "a1"]

    def test_copy_independent(self):
        t, a, b, a1, a2 = self._forked_tree()
        clone = t.copy()
        extra = make_block(b, label="b1")
        clone.add_block(extra)
        assert extra.block_id in clone
        assert extra.block_id not in t

    def test_freeze_is_stable_and_hashable(self):
        t, *_ = self._forked_tree()
        assert hash(t.freeze()) == hash(t.copy().freeze())

    def test_describe_renders_tree(self):
        t, a, b, a1, a2 = self._forked_tree()
        text = t.describe()
        assert "b0" in text and "a1" in text
