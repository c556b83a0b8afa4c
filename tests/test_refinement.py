"""Tests for R(BT-ADT, Θ) — the refined append of Definition 3.7 (Figure 7)."""

import math

import pytest

from repro.blocktree.block import GENESIS, make_block
from repro.blocktree.selection import LongestChain
from repro.oracle.refinement import RefinedBTADT
from repro.oracle.theta import ThetaOracle, ThetaState


def refined(k=1, p=1.0, seed=1):
    oracle = ThetaOracle(ThetaState(k=k, seed=seed, default_probability=p))
    return RefinedBTADT(selection=LongestChain(), oracle=oracle)


class TestRefinedAppend:
    def test_append_success_attaches_block(self):
        r = refined()
        result = r.append(make_block(GENESIS, label="1"), merit_id="a")
        assert result.success and result.attempts == 1
        assert r.read().height == 1

    def test_append_loops_until_token(self):
        r = refined(p=0.3, seed=42)
        result = r.append(make_block(GENESIS, label="1"), merit_id="a")
        assert result.success
        assert result.attempts >= 1

    def test_sequential_appends_build_chain_under_k1(self):
        r = refined(k=1)
        for i in range(5):
            assert r.append(make_block(GENESIS, label=str(i)), merit_id="a").success
        assert r.read().height == 5
        assert r.tree.max_fork_degree() == 1

    def test_stale_append_rejected_when_k1(self):
        r = refined(k=1)
        genesis = r.tree.genesis
        assert r.append_at(genesis, make_block(genesis, label="1"), "a").success
        second = r.append_at(genesis, make_block(genesis, label="2"), "b")
        assert not second.success
        assert r.read().height == 1

    def test_stale_append_forks_when_k2(self):
        r = refined(k=2)
        genesis = r.tree.genesis
        assert r.append_at(genesis, make_block(genesis, label="1"), "a").success
        assert r.append_at(genesis, make_block(genesis, label="2"), "b").success
        assert r.tree.fork_degree(genesis.block_id) == 2

    def test_prodigal_unbounded_forks(self):
        r = refined(k=math.inf)
        genesis = r.tree.genesis
        for i in range(7):
            assert r.append_at(genesis, make_block(genesis, label=str(i)), "a").success
        assert r.tree.fork_degree(genesis.block_id) == 7

    def test_fork_coherence_check(self):
        for k in (1, 2):
            r = refined(k=k)
            genesis = r.tree.genesis
            for i in range(4):
                r.append_at(genesis, make_block(genesis, label=str(i)), "a")
            assert r.check_fork_coherence()

    def test_validity_table_populated(self):
        r = refined()
        result = r.append(make_block(GENESIS, label="1"), merit_id="a")
        assert r.validity(result.tokenized.block)

    def test_append_at_unknown_holder_raises(self):
        r = refined()
        stranger = make_block(GENESIS, label="ghost")
        with pytest.raises(KeyError):
            r.append_at(stranger, make_block(stranger, label="x"), "a")

    def test_starvation_guard(self):
        r = RefinedBTADT(
            selection=LongestChain(),
            oracle=ThetaOracle(ThetaState(k=1, seed=1, probabilities=(("nil", 1e-12),))),
            max_attempts=10,
        )
        with pytest.raises(RuntimeError):
            r.append(make_block(GENESIS, label="1"), merit_id="nil")

    def test_result_bool_protocol(self):
        r = refined()
        assert bool(r.append(make_block(GENESIS, label="1"), "a"))
