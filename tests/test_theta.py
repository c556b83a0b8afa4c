"""Tests for the Θ oracles (Definitions 3.5/3.6) and the Figure 6 walk."""

import math

import pytest

from repro.adt.sequential import TransitionTrace
from repro.blocktree.block import GENESIS, make_block
from repro.oracle.tapes import TapeSet
from repro.oracle.theta import (
    ConsumeToken,
    FrugalOracle,
    GetToken,
    ProdigalOracle,
    ThetaADT,
    ThetaOracle,
)


def always_token_oracle(k, seed=1):
    """Oracle whose tapes grant a token on every cell (p = 1)."""
    return ThetaOracle(k=k, tapes=TapeSet(seed=seed, default_probability=1.0))


class TestGetToken:
    def test_token_granted_with_p1(self):
        oracle = always_token_oracle(k=1)
        tb = oracle.get_token(GENESIS, make_block(GENESIS, label="1"), "alice")
        assert tb is not None
        assert tb.holder_id == GENESIS.block_id
        assert tb.block.parent_id == GENESIS.block_id

    def test_token_denied_pops_tape(self):
        tapes = TapeSet(seed=1)
        tapes.register("weak", 1e-9)
        oracle = ThetaOracle(k=1, tapes=tapes)
        tb = oracle.get_token(GENESIS, make_block(GENESIS, label="1"), "weak")
        assert tb is None
        assert tapes.tape("weak").position == 1
        assert oracle.stats.get_token_calls == 1
        assert oracle.stats.tokens_generated == 0

    def test_tokens_unique(self):
        oracle = always_token_oracle(k=5)
        d = make_block(GENESIS, label="1")
        t1 = oracle.get_token(GENESIS, d, "a")
        t2 = oracle.get_token(GENESIS, d, "a")
        assert t1.token.token_id != t2.token.token_id

    def test_descriptor_rechained_to_holder(self):
        oracle = always_token_oracle(k=1)
        stale = make_block("elsewhere", label="x")
        tb = oracle.get_token(GENESIS, stale, "a")
        assert tb.block.parent_id == GENESIS.block_id


class TestConsumeToken:
    def test_consume_within_cap(self):
        oracle = always_token_oracle(k=1)
        tb = oracle.get_token(GENESIS, make_block(GENESIS, label="1"), "a")
        bucket = oracle.consume_token(tb)
        assert [b.label for b in bucket] == ["1"]
        assert oracle.stats.tokens_consumed == 1

    def test_consume_beyond_cap_rejected(self):
        oracle = always_token_oracle(k=1)
        d1 = make_block(GENESIS, label="1")
        d2 = make_block(GENESIS, label="2")
        tb1 = oracle.get_token(GENESIS, d1, "a")
        tb2 = oracle.get_token(GENESIS, d2, "a")
        oracle.consume_token(tb1)
        bucket = oracle.consume_token(tb2)
        assert [b.label for b in bucket] == ["1"]  # unchanged
        assert oracle.stats.consume_rejections == 1

    def test_duplicate_consume_is_noop(self):
        oracle = always_token_oracle(k=5)
        tb = oracle.get_token(GENESIS, make_block(GENESIS, label="1"), "a")
        oracle.consume_token(tb)
        bucket = oracle.consume_token(tb)
        assert len(bucket) == 1
        assert oracle.stats.duplicate_consumes == 1

    def test_prodigal_never_rejects(self):
        oracle = ProdigalOracle(TapeSet(seed=2, default_probability=1.0))
        for i in range(20):
            tb = oracle.get_token(GENESIS, make_block(GENESIS, label=str(i)), "a")
            oracle.consume_token(tb)
        assert len(oracle.consumed_for(GENESIS.block_id)) == 20
        assert oracle.stats.consume_rejections == 0
        assert oracle.k == math.inf

    def test_fork_coherence_invariant(self):
        for k in (1, 2, 3):
            oracle = always_token_oracle(k=k)
            for i in range(k + 3):
                tb = oracle.get_token(GENESIS, make_block(GENESIS, label=str(i)), "a")
                oracle.consume_token(tb)
            assert len(oracle.consumed_for(GENESIS.block_id)) == k
            assert oracle.check_fork_coherence()


class TestConstructors:
    def test_frugal_rejects_infinity(self):
        with pytest.raises(ValueError):
            FrugalOracle(math.inf, TapeSet(seed=1))

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            ThetaOracle(k=0, tapes=TapeSet(seed=1))
        with pytest.raises(ValueError):
            ThetaOracle(k=1.5, tapes=TapeSet(seed=1))

    def test_frugal_and_prodigal_helpers(self):
        assert FrugalOracle(2, TapeSet(seed=1)).k == 2
        assert ProdigalOracle(TapeSet(seed=1)).k == math.inf


class TestThetaADTView:
    """Figure 6: a walk of the Θ transition system with value semantics."""

    def test_figure6_walk(self):
        adt = ThetaADT(k=1, seed=7, merits={"alpha1": 1.0})
        descriptor = make_block(GENESIS, label="k")
        get = GetToken(GENESIS.block_id, descriptor, "alpha1")
        state0 = adt.initial_state()
        tokenized = adt.output(state0, get)
        assert tokenized is not None
        state1 = adt.transition(state0, get)
        assert state1.position_of("alpha1") == 1
        consume = ConsumeToken(tokenized)
        bucket = adt.output(state1, consume)
        assert bucket == (tokenized.token.token_id,)
        state2 = adt.transition(state1, consume)
        assert state2.bucket(GENESIS.block_id) == (tokenized.token.token_id,)

    def test_adt_consume_respects_cap(self):
        adt = ThetaADT(k=1, seed=7, merits={"a": 1.0})
        d1 = make_block(GENESIS, label="1")
        d2 = make_block(GENESIS, label="2")
        s = adt.initial_state()
        t1 = adt.output(s, GetToken(GENESIS.block_id, d1, "a"))
        s = adt.transition(s, GetToken(GENESIS.block_id, d1, "a"))
        t2 = adt.output(s, GetToken(GENESIS.block_id, d2, "a"))
        s = adt.transition(s, GetToken(GENESIS.block_id, d2, "a"))
        s = adt.transition(s, ConsumeToken(t1))
        bucket = adt.output(s, ConsumeToken(t2))
        assert bucket == (t1.token.token_id,)  # cap reached, t2 rejected

    def test_transition_trace_over_theta(self):
        adt = ThetaADT(k=2, seed=3, merits={"m": 1.0})
        d = make_block(GENESIS, label="x")
        get = GetToken(GENESIS.block_id, d, "m")
        trace = TransitionTrace.record(adt, [get])
        assert trace.states[0].position_of("m") == 0
        assert trace.states[1].position_of("m") == 1

    def test_deterministic_replay(self):
        adt = ThetaADT(k=1, seed=11, merits={"m": 0.5})
        d = make_block(GENESIS, label="x")
        get = GetToken(GENESIS.block_id, d, "m")
        out1 = adt.output(adt.initial_state(), get)
        out2 = adt.output(adt.initial_state(), get)
        assert (out1 is None) == (out2 is None)
