"""Tests for blocks and validity predicates."""

import pytest

from repro.blocktree.block import (
    GENESIS,
    AlwaysValid,
    PredicateValid,
    TableValid,
    make_block,
)


class TestBlock:
    def test_genesis_properties(self):
        assert GENESIS.is_genesis
        assert GENESIS.parent_id is None
        assert GENESIS.label == "b0"

    def test_make_block_links_parent(self):
        b = make_block(GENESIS, label="1")
        assert b.parent_id == GENESIS.block_id
        assert not b.is_genesis

    def test_make_block_id_is_content_derived(self):
        b1 = make_block(GENESIS, label="1")
        b2 = make_block(GENESIS, label="1")
        assert b1.block_id == b2.block_id

    def test_distinct_content_distinct_id(self):
        assert make_block(GENESIS, label="1").block_id != make_block(GENESIS, label="2").block_id
        assert (
            make_block(GENESIS, label="1", nonce=1).block_id
            != make_block(GENESIS, label="1", nonce=2).block_id
        )

    def test_parent_can_be_id_string(self):
        b = make_block("someparent", label="x")
        assert b.parent_id == "someparent"

    def test_payload_stored_as_tuple(self):
        b = make_block(GENESIS, payload=["t1", "t2"])
        assert b.payload == ("t1", "t2")

    def test_short_uses_label_or_id(self):
        assert make_block(GENESIS, label="7").short() == "7"
        unlabeled = make_block(GENESIS)
        assert unlabeled.short() == unlabeled.block_id[:8]

    def test_blocks_are_immutable(self):
        b = make_block(GENESIS, label="1")
        with pytest.raises(AttributeError):
            b.label = "2"


class TestValidity:
    def test_always_valid(self):
        p = AlwaysValid()
        assert p(make_block(GENESIS)) and p.is_valid(GENESIS)

    def test_table_valid_admits(self):
        p = TableValid()
        b = make_block(GENESIS, label="1")
        assert not p(b)
        p.admit(b)
        assert p(b)

    def test_genesis_always_valid_via_is_valid(self):
        assert TableValid().is_valid(GENESIS)

    def test_predicate_valid_wraps_callable(self):
        p = PredicateValid(fn=lambda b: b.label == "ok")
        assert p(make_block(GENESIS, label="ok"))
        assert not p(make_block(GENESIS, label="no"))
