"""Tests for the Chain value type (prefix algebra)."""

import pytest

from repro.blocktree.block import GENESIS, make_block
from repro.blocktree.chain import Chain


def build_chain(*labels):
    blocks = [GENESIS]
    for lbl in labels:
        blocks.append(make_block(blocks[-1], label=lbl))
    return Chain.of(blocks)


class TestConstruction:
    def test_genesis_chain(self):
        c = Chain.genesis()
        assert len(c) == 1 and c.height == 0
        assert c.tip.is_genesis

    def test_broken_link_rejected(self):
        b1 = make_block(GENESIS, label="1")
        b_stranger = make_block(b1, label="2")
        with pytest.raises(ValueError, match="broken chain"):
            Chain.of([GENESIS, b_stranger])

    def test_must_start_at_genesis(self):
        b1 = make_block(GENESIS, label="1")
        with pytest.raises(ValueError, match="start at the genesis"):
            Chain.of([b1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Chain.of([])

    def test_extend(self):
        c = Chain.genesis()
        b = make_block(GENESIS, label="1")
        c2 = c.extend(b)
        assert c2.height == 1 and c2.tip == b
        assert c.height == 0  # immutability


class TestPrefixAlgebra:
    def test_prefix_of_self(self):
        c = build_chain("1", "2")
        assert c.is_prefix_of(c)

    def test_strict_prefix(self):
        c2 = build_chain("1", "2")
        c3 = build_chain("1", "2", "3")
        assert c2.is_prefix_of(c3)
        assert not c3.is_prefix_of(c2)
        assert c2.comparable(c3)

    def test_divergent_chains_incomparable(self):
        a = build_chain("1", "2")
        b = build_chain("1", "9")
        assert not a.comparable(b)

    def test_common_prefix(self):
        a = build_chain("1", "2", "3")
        b = build_chain("1", "2", "9")
        cp = a.common_prefix(b)
        assert cp.height == 2
        assert [blk.label for blk in cp.non_genesis()] == ["1", "2"]

    def test_common_prefix_of_disjoint_is_genesis(self):
        a = build_chain("1")
        b = build_chain("2")
        assert a.common_prefix(b).height == 0

    def test_block_ids_and_iteration(self):
        c = build_chain("1", "2")
        assert len(c.block_ids()) == 3
        assert [b.label for b in c][1:] == ["1", "2"]

    def test_describe_format(self):
        c = build_chain("1")
        assert "b0" in c.describe() and "⌢" in c.describe()

    def test_indexing(self):
        c = build_chain("1", "2")
        assert c[0].is_genesis
        assert c[-1].label == "2"
