"""Property tests for the ancestry index (binary lifting) and chain views.

The jump-pointer queries (``ancestor_at_depth``, ``lca``, ``is_ancestor``)
are pitted against brute-force parent walks on randomized trees built
under arbitrary insertion orders, and the O(log n)/O(1) Chain algebra is
pitted against the retained tuple-walking oracle in
:mod:`repro.blocktree.reference`.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import build_chain

from repro.blocktree.block import GENESIS, make_block
from repro.blocktree.chain import Chain
from repro.blocktree.reference import (
    tuple_common_prefix,
    tuple_comparable,
    tuple_is_prefix_of,
)
from repro.blocktree.tree import BlockTree


def random_tree(seed: int, n_blocks: int, branchiness: float = 0.35):
    """A random tree grown under a random (but valid) insertion order.

    With probability ``branchiness`` a new block forks off a uniformly
    random existing block; otherwise it extends a random *deep* block,
    producing long chains worth jumping over.
    """
    rng = random.Random(seed)
    tree = BlockTree()
    inserted = [GENESIS]
    for i in range(n_blocks):
        if rng.random() < branchiness:
            parent = rng.choice(inserted)
        else:
            candidates = rng.sample(inserted, min(3, len(inserted)))
            parent = max(candidates, key=lambda b: tree.height(b.block_id))
        block = make_block(parent, label=str(i), creator=rng.randrange(4))
        tree.add_block(block)
        inserted.append(block)
    return tree, inserted


def walk_to_depth(tree: BlockTree, block_id: str, depth: int) -> str:
    """Brute-force oracle: follow parent pointers one step at a time."""
    cursor = block_id
    while tree.height(cursor) > depth:
        cursor = tree.get(cursor).parent_id
    return cursor


def walk_lca(tree: BlockTree, a: str, b: str) -> str:
    """Brute-force oracle: materialize one ancestor set, walk the other."""
    ancestors = set()
    cursor = a
    while cursor is not None:
        ancestors.add(cursor)
        cursor = tree.get(cursor).parent_id
    cursor = b
    while cursor not in ancestors:
        cursor = tree.get(cursor).parent_id
    return cursor


class TestJumpPointers:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 120))
    def test_ancestor_at_depth_matches_parent_walk(self, seed, n):
        tree, inserted = random_tree(seed, n)
        rng = random.Random(seed + 1)
        for _ in range(10):
            block = rng.choice(inserted)
            height = tree.height(block.block_id)
            depth = rng.randint(0, height)
            assert tree.ancestor_at_depth(block.block_id, depth) == walk_to_depth(
                tree, block.block_id, depth
            )

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 120))
    def test_lca_matches_ancestor_set_walk(self, seed, n):
        tree, inserted = random_tree(seed, n)
        rng = random.Random(seed + 2)
        for _ in range(10):
            a = rng.choice(inserted).block_id
            b = rng.choice(inserted).block_id
            assert tree.lca(a, b) == walk_lca(tree, a, b)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 120))
    def test_is_ancestor_matches_parent_walk(self, seed, n):
        tree, inserted = random_tree(seed, n)
        rng = random.Random(seed + 3)
        for _ in range(10):
            a = rng.choice(inserted).block_id
            b = rng.choice(inserted).block_id
            brute = walk_to_depth(tree, b, tree.height(a)) == a if (
                tree.height(a) <= tree.height(b)
            ) else False
            assert tree.is_ancestor(a, b) == brute

    def test_ancestor_depth_out_of_range(self):
        tree, _ = random_tree(7, 10)
        deepest = max(tree.blocks(), key=lambda b: tree.height(b.block_id))
        with pytest.raises(ValueError):
            tree.ancestor_at_depth(deepest.block_id, tree.height(deepest.block_id) + 1)
        with pytest.raises(ValueError):
            tree.ancestor_at_depth(deepest.block_id, -1)

    def test_unknown_block_raises_keyerror(self):
        tree = BlockTree()
        with pytest.raises(KeyError):
            tree.ancestor_at_depth("nope", 0)


class TestChainAlgebraDifferential:
    """O(log n)/O(1) Chain algebra vs the retained tuple-walking oracle."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 100))
    def test_prefix_and_lca_match_tuple_oracle(self, seed, n):
        tree, inserted = random_tree(seed, n)
        rng = random.Random(seed + 4)
        for _ in range(8):
            a = tree.chain_to(rng.choice(inserted).block_id)
            b = tree.chain_to(rng.choice(inserted).block_id)
            assert a.is_prefix_of(b) == tuple_is_prefix_of(a, b)
            assert a.comparable(b) == tuple_comparable(a, b)
            fast = a.common_prefix(b)
            oracle = tuple_common_prefix(a, b)
            assert fast.block_ids() == oracle.block_ids()

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 80))
    def test_tuple_chains_match_oracle_without_tree(self, seed, n):
        # Detached tuple chains exercise the positional/binary-search
        # fallbacks rather than the ancestry index.
        tree, inserted = random_tree(seed, n)
        rng = random.Random(seed + 5)
        for _ in range(6):
            a = Chain.of(tree.chain_to(rng.choice(inserted).block_id).blocks)
            b = Chain.of(tree.chain_to(rng.choice(inserted).block_id).blocks)
            assert a.is_prefix_of(b) == tuple_is_prefix_of(a, b)
            assert a.comparable(b) == tuple_comparable(a, b)
            assert a.common_prefix(b).block_ids() == tuple_common_prefix(a, b).block_ids()

    def test_view_equals_tuple_chain(self):
        c = build_chain("1", "2", "3")
        tree = BlockTree()
        for block in c.non_genesis():
            tree.add_block(block)
        view = tree.chain_to(c.tip.block_id)
        assert view == c
        assert hash(view) == hash(c)
        assert view.block_ids() == c.block_ids()
        assert list(view) == list(c.blocks)
        assert view[0].is_genesis and view[-1].label == "3"
        assert view[1].label == "1"  # O(log n) indexing path

    def test_chain_to_is_lazy(self):
        tree, inserted = random_tree(3, 30)
        tip = inserted[-1].block_id
        view = tree.chain_to(tip)
        assert view._blocks is None  # O(1) read: no tuple copied
        assert view.height == tree.height(tip) and view.tip_id == tip
        assert view.tip.block_id == tip
        assert view._blocks is None  # tip/height/prefix ops stay lazy

    def test_view_survives_tree_growth(self):
        tree = BlockTree()
        b1 = make_block(GENESIS, label="1")
        tree.add_block(b1)
        view = tree.chain_to(b1.block_id)
        b2 = make_block(b1, label="2")
        tree.add_block(b2)  # the tree grows; the view must not
        assert view.height == 1
        assert [b.label for b in view.non_genesis()] == ["1"]


class TestCloneCache:
    def test_clone_starts_with_empty_materialization_cache(self):
        tree, inserted = random_tree(11, 60, branchiness=0.1)
        # Materialize many deep paths to fill the LRU.
        for block in inserted[-10:]:
            tree.chain_to(block.block_id).blocks
        assert len(tree._chain_cache) > 0
        clone = tree.copy()
        # Share-nothing clone: no eagerly copied cache entries at all —
        # clone cost is independent of how much the original memoized.
        assert len(clone._chain_cache) == 0
        # And the clone still materializes correct chains on demand.
        tip = inserted[-1].block_id
        assert clone.chain_to(tip).block_ids() == tree.chain_to(tip).block_ids()

    def test_clone_cost_independent_of_cached_chain_depth(self):
        import time

        def clone_time(with_cache: bool) -> float:
            tree = BlockTree()
            parent = GENESIS
            for i in range(4000):
                block = make_block(parent, label=str(i))
                tree.add_block(block)
                parent = block
            if with_cache:
                tree.chain_to(parent.block_id).blocks  # 4000-deep cached path
            start = time.perf_counter()
            for _ in range(5):
                tree.copy()
            return time.perf_counter() - start

        cold, warm = clone_time(False), clone_time(True)
        # Copying used to duplicate the cached OrderedDict (and pin its
        # chains); now the ratio must be ~1 — allow generous jitter.
        assert warm < cold * 3 + 0.05
