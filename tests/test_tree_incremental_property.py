"""Property-based tests for the incremental BlockTree indices.

Every invariant is checked against a brute-force recomputation oracle
over arbitrary insertion orders: heights, chain weights, subtree
weights, the leaf set, best-leaf/best-child indices, the chain cache and
``freeze()`` stability under topological reshuffling.
"""

from __future__ import annotations

from typing import Dict, List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocktree.block import GENESIS, Block, make_block
from repro.blocktree.reference import rescan_chain_to
from repro.blocktree.selection import GHOSTSelection, HeaviestChain, LongestChain
from repro.blocktree.tree import BlockTree

# Weights are dyadic rationals so float sums are exact and independent of
# summation order — insertion-order reshuffles must not perturb ties.
WEIGHTS = (0.0, 0.5, 1.0, 1.0, 2.0, 2.5)
LABELS = ("x", "y", "", "dup")


@st.composite
def insertion_plans(draw, max_blocks=40):
    """A random tree as (parent_index, label, weight) insertion steps."""
    n = draw(st.integers(min_value=1, max_value=max_blocks))
    steps = []
    for i in range(n):
        parent = draw(st.integers(min_value=0, max_value=i))  # 0 = genesis
        label = draw(st.sampled_from(LABELS))
        weight = draw(st.sampled_from(WEIGHTS))
        steps.append((parent, label, weight))
    return steps


def materialize(steps) -> List[Block]:
    """Turn an insertion plan into concrete blocks (parents before children)."""
    nodes: List[Block] = [GENESIS]
    for i, (parent, label, weight) in enumerate(steps):
        nodes.append(make_block(nodes[parent], label=label, weight=weight, nonce=i))
    return nodes[1:]


def build(blocks: List[Block], reads_at=()) -> BlockTree:
    tree = BlockTree()
    selectors = (LongestChain(), HeaviestChain(), GHOSTSelection())
    for i, block in enumerate(blocks):
        tree.add_block(block)
        if i in reads_at:
            # Interleaved reads flush the lazy indices mid-construction.
            for selector in selectors:
                selector.select(tree)
    return tree


def oracle(blocks: List[Block]):
    """Brute-force recomputation of all bookkeeping from the block set."""
    parent: Dict[str, str] = {b.block_id: b.parent_id for b in blocks}
    weight: Dict[str, float] = {GENESIS.block_id: 0.0}
    weight.update({b.block_id: b.weight for b in blocks})
    ids = [GENESIS.block_id] + [b.block_id for b in blocks]

    heights = {GENESIS.block_id: 0}
    chain_weights = {GENESIS.block_id: 0.0}
    for b in blocks:
        heights[b.block_id] = heights[parent[b.block_id]] + 1
        chain_weights[b.block_id] = chain_weights[parent[b.block_id]] + b.weight

    def ancestors(bid: str):
        while bid is not None:
            yield bid
            bid = parent.get(bid)

    subtree = {bid: 0.0 for bid in ids}
    for b in blocks:
        for anc in ancestors(b.block_id):
            subtree[anc] += b.weight

    with_children = {parent[b.block_id] for b in blocks}
    leaves = sorted(bid for bid in ids if bid not in with_children)
    edges = tuple(sorted((b.block_id, b.parent_id) for b in blocks))
    return heights, chain_weights, subtree, leaves, edges


@settings(max_examples=60, deadline=None)
@given(insertion_plans(), st.sets(st.integers(min_value=0, max_value=39)))
def test_bookkeeping_matches_bruteforce_oracle(steps, reads_at):
    blocks = materialize(steps)
    tree = build(blocks, reads_at=reads_at)
    heights, chain_weights, subtree, leaves, edges = oracle(blocks)

    for bid, h in heights.items():
        assert tree.height(bid) == h
    for bid, w in chain_weights.items():
        assert tree.chain_weight(bid) == w
    for bid, w in subtree.items():
        assert tree.subtree_weight(bid) == w
    assert [leaf.block_id for leaf in tree.leaves()] == leaves
    assert tree.freeze() == edges


@settings(max_examples=60, deadline=None)
@given(insertion_plans())
def test_best_indices_match_oracle_argmax(steps):
    blocks = materialize(steps)
    tree = build(blocks)
    heights, chain_weights, subtree, leaves, _ = oracle(blocks)

    def key(bid: str) -> str:
        block = tree.get(bid)
        return block.label or block.block_id

    # leaves are scanned in sorted-id order and max() keeps the first of
    # equal keys — exactly the reference leaf-scan tie semantics.
    def argmax(metric):
        best = max(leaves, key=lambda bid: (metric[bid], key(bid)))
        return max(
            (bid for bid in leaves if metric[bid] == metric[best]),
            key=key,
        )

    assert tree.best_leaf_by_height().block_id == argmax(heights)
    assert tree.best_leaf_by_weight().block_id == argmax(chain_weights)

    # GHOST: walk from the root, at each step the heaviest-subtree child
    # (max key on ties, first-inserted on full ties).
    cursor = GENESIS.block_id
    while True:
        kids = [c.block_id for c in tree.children(cursor)]
        if not kids:
            break
        best_w = max(subtree[k] for k in kids)
        tied = [k for k in kids if subtree[k] == best_w]
        cursor = max(tied, key=key)
    assert tree.ghost_leaf().block_id == cursor


@settings(max_examples=60, deadline=None)
@given(insertion_plans(), st.randoms(use_true_random=False))
def test_freeze_and_selection_stable_under_insertion_order(steps, rng):
    """Any topological reshuffle yields the same tree value and reads.

    Labels are uniquified first: with duplicate labels AND exactly tied
    weights the (original, rescan) tie-break falls through to insertion
    order, which is legitimately order-dependent — unique tie-keys make
    selection a pure function of the block *set*.
    """
    steps = [(parent, f"u{i}", weight) for i, (parent, _, weight) in enumerate(steps)]
    blocks = materialize(steps)
    tree_a = build(blocks)

    # Kahn's algorithm with random ready-choice: a different valid order.
    present = {GENESIS.block_id}
    pending = list(blocks)
    reordered: List[Block] = []
    while pending:
        ready = [b for b in pending if b.parent_id in present]
        choice = rng.choice(ready)
        pending.remove(choice)
        present.add(choice.block_id)
        reordered.append(choice)
    tree_b = build(reordered, reads_at={len(reordered) // 2})

    assert tree_a.freeze() == tree_b.freeze()
    for rule in (LongestChain(), HeaviestChain(), GHOSTSelection()):
        assert rule.select(tree_a).block_ids() == rule.select(tree_b).block_ids()


@settings(max_examples=40, deadline=None)
@given(insertion_plans(), st.sets(st.integers(min_value=0, max_value=39)))
def test_chain_cache_transparent(steps, reads_at):
    """chain_to agrees with an uncached rebuild for every block."""
    blocks = materialize(steps)
    tree = build(blocks, reads_at=reads_at)
    for block in tree.blocks():
        cached = tree.chain_to(block.block_id)
        assert cached.block_ids() == rescan_chain_to(tree, block.block_id).block_ids()
        # Cached chains satisfy the Chain invariants they skipped checking.
        assert cached[0].is_genesis
        for prev, cur in zip(cached, cached.blocks[1:]):
            assert cur.parent_id == prev.block_id


@settings(max_examples=30, deadline=None)
@given(insertion_plans())
def test_copy_is_independent(steps):
    blocks = materialize(steps)
    tree = build(blocks)
    clone = tree.copy()
    extra = make_block(blocks[-1] if blocks else GENESIS, label="extra", weight=3.0)
    clone.add_block(extra)
    assert extra.block_id in clone and extra.block_id not in tree
    assert tree.freeze() == build(blocks).freeze()
    for rule in (LongestChain(), HeaviestChain(), GHOSTSelection()):
        assert rule.select(clone).tip.block_id in clone
