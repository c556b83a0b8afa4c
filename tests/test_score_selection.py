"""Tests for score functions and selection functions."""

import pytest

from repro.blocktree.block import GENESIS, make_block
from repro.blocktree.chain import Chain
from repro.blocktree.score import LengthScore, WorkScore, mcps
from repro.blocktree.selection import GHOSTSelection, HeaviestChain, LongestChain
from repro.blocktree.tree import BlockTree


def chain_of(*labels, weight=1.0):
    blocks = [GENESIS]
    for lbl in labels:
        blocks.append(make_block(blocks[-1], label=lbl, weight=weight))
    return Chain.of(blocks)


class TestScores:
    def test_length_score(self):
        s = LengthScore()
        assert s(Chain.genesis()) == 0
        assert s(chain_of("1", "2")) == 2

    def test_genesis_score_property(self):
        assert LengthScore().genesis_score == 0
        assert WorkScore().genesis_score == 0

    def test_work_score_sums_weights(self):
        s = WorkScore()
        assert s(chain_of("1", "2", weight=2.5)) == pytest.approx(5.0)

    def test_work_score_monotone_with_zero_weights(self):
        s = WorkScore()
        c1 = chain_of("1", weight=0.0)
        c2 = c1.extend(make_block(c1.tip, label="2", weight=0.0))
        assert s(c2) > s(c1)

    def test_mcps(self):
        s = LengthScore()
        a = chain_of("1", "2", "3")
        b = chain_of("1", "2", "9")
        assert mcps(a, b, s) == 2
        assert mcps(a, a, s) == 3


def forked_tree():
    """Genesis with branch a (2 children a1, a2) and lone branch b.

    Layout: b0 → {a → {a1, a2}, b}.  Longest picks among a1/a2 (height 2),
    heaviest depends on weights, GHOST follows subtree mass into a.
    """
    t = BlockTree()
    a = make_block(GENESIS, label="a", weight=1.0)
    b = make_block(GENESIS, label="b", weight=5.0)
    a1 = make_block(a, label="a1", weight=1.0)
    a2 = make_block(a, label="a2", weight=1.0)
    for blk in (a, b, a1, a2):
        t.add_block(blk)
    return t


class TestSelection:
    def test_longest_chain_picks_height(self):
        chain = LongestChain().select(forked_tree())
        assert chain.height == 2
        assert chain.tip.label in ("a1", "a2")

    def test_longest_tiebreak_lexicographic(self):
        chain = LongestChain().select(forked_tree())
        assert chain.tip.label == "a2"  # a2 > a1 lexicographically

    def test_heaviest_chain_picks_work(self):
        chain = HeaviestChain().select(forked_tree())
        assert chain.tip.label == "b"  # weight 5 beats 1+1

    def test_ghost_follows_subtree_weight(self):
        t = forked_tree()
        # subtree(a) = 3 < subtree(b) = 5 → GHOST goes to b.
        assert GHOSTSelection().select(t).tip.label == "b"
        # Add mass under a: now subtree(a) = 6 > 5 → GHOST switches.
        a1 = [blk for blk in t.blocks() if blk.label == "a1"][0]
        t.add_block(make_block(a1, label="a11", weight=3.0))
        assert GHOSTSelection().select(t).tip.label == "a11"

    def test_ghost_vs_heaviest_differ_on_bushy_fork(self):
        t = forked_tree()
        ghost = GHOSTSelection().select(t)
        heaviest = HeaviestChain().select(t)
        assert ghost.tip.label == heaviest.tip.label == "b"
        # Two light siblings outweigh one heavy only under GHOST.
        a2 = [blk for blk in t.blocks() if blk.label == "a2"][0]
        t.add_block(make_block(a2, label="a21", weight=2.5))
        assert GHOSTSelection().select(t).tip.label == "a21"  # subtree a = 5.5
        assert HeaviestChain().select(t).tip.label == "b"  # chain b = 5 > 4.5

    def test_selection_on_genesis_only(self):
        t = BlockTree()
        for f in (LongestChain(), HeaviestChain(), GHOSTSelection()):
            assert f.select(t).tip.is_genesis

    def test_selection_deterministic(self):
        t = forked_tree()
        for f in (LongestChain(), HeaviestChain(), GHOSTSelection()):
            assert f.select(t).block_ids() == f.select(t.copy()).block_ids()
