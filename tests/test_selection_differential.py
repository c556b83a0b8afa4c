"""Differential tests: incremental selection indices vs full rescans.

The incremental engine in ``BlockTree`` must produce *byte-identical*
chains to the pre-refactor full-rescan implementations (kept in
:mod:`repro.blocktree.reference`) for every rule, on randomized trees,
including lexicographic tie-break cases (duplicate labels, tied heights,
tied chain weights including zero-weight blocks, tied subtree weights).
"""

from __future__ import annotations

import random

import pytest

from repro.blocktree.block import GENESIS, make_block
from repro.blocktree.reference import rescan_ghost, rescan_heaviest, rescan_longest
from repro.blocktree.selection import GHOSTSelection, HeaviestChain, LongestChain
from repro.blocktree.tree import BlockTree

RULES = [
    (LongestChain, rescan_longest),
    (HeaviestChain, rescan_heaviest),
    (GHOSTSelection, rescan_ghost),
]

# Duplicate labels force lexicographic ties; the weight palette forces
# height ties, chain-weight ties (zero-weight blocks) and subtree-weight
# ties, all with float-exact sums.
TIE_LABELS = ["x", "y", "z", ""]
TIE_WEIGHTS = [0.0, 0.5, 1.0, 1.0, 1.0, 2.0]


def grow_random_tree(seed: int, n_blocks: int, check_every: float = 0.25):
    """Grow a random tree, yielding after ~every 1/check_every insertions."""
    rng = random.Random(seed)
    tree = BlockTree()
    nodes = [GENESIS]
    for i in range(n_blocks):
        parent = rng.choice(nodes)
        block = make_block(
            parent,
            label=rng.choice(TIE_LABELS + [f"n{i}"]),
            weight=rng.choice(TIE_WEIGHTS),
            nonce=i,
        )
        tree.add_block(block)
        nodes.append(block)
        if rng.random() < check_every:
            yield tree
    yield tree


@pytest.mark.parametrize("seed", range(25))
def test_incremental_agrees_with_rescan_while_growing(seed):
    """All three rules, interleaved with growth so caches go stale."""
    rng = random.Random(seed * 77 + 5)
    for tree in grow_random_tree(seed, n_blocks=rng.randrange(5, 220)):
        for rule_cls, rescan in RULES:
            got = rule_cls().select(tree)
            want = rescan(tree)
            assert got.block_ids() == want.block_ids(), rule_cls.__name__


def test_agreement_survives_copy_and_further_growth():
    rng = random.Random(99)
    trees = list(grow_random_tree(31, n_blocks=150))
    tree = trees[-1]
    clone = tree.copy()
    nodes = list(clone.blocks())
    for i in range(60):
        block = make_block(
            rng.choice(nodes),
            label=rng.choice(TIE_LABELS),
            weight=rng.choice(TIE_WEIGHTS),
            nonce=10_000 + i,
        )
        clone.add_block(block)
        nodes.append(block)
    for rule_cls, rescan in RULES:
        assert rule_cls().select(clone).block_ids() == rescan(clone).block_ids()
        # The original tree is untouched by the clone's growth.
        assert rule_cls().select(tree).block_ids() == rescan(tree).block_ids()


def test_forced_tie_catchup_flips_best_child():
    """The regression shape: a later sibling leads, the earlier one
    catches up to an exact tie — GHOST must then prefer the
    first-inserted sibling, as the rescan's ``max`` does."""
    tree = BlockTree()
    first = make_block(GENESIS, label="x", weight=1.0, nonce=1)
    second = make_block(GENESIS, label="x", weight=2.0, nonce=2)
    tree.add_block(first)
    tree.add_block(second)
    assert GHOSTSelection().select(tree).block_ids() == rescan_ghost(tree).block_ids()
    assert tree.ghost_leaf().block_id == second.block_id
    # Now grow under `first` until the subtrees tie exactly.
    child = make_block(first, label="c", weight=1.0, nonce=3)
    tree.add_block(child)
    assert tree.subtree_weight(first.block_id) == tree.subtree_weight(second.block_id)
    assert GHOSTSelection().select(tree).block_ids() == rescan_ghost(tree).block_ids()
    assert tree.ghost_leaf().block_id == child.block_id
