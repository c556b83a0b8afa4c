"""Tests for the Θ oracles (Definitions 3.5/3.6) and the Figure 6 walk."""

import math

import pytest

from repro.adt.sequential import TransitionTrace
from repro.blocktree.block import GENESIS, make_block
from repro.concurrent.protocol_a import build_protocol_a_system
from repro.oracle import theta
from repro.oracle.theta import (
    ConsumeToken,
    GetToken,
    ThetaADT,
    ThetaOracle,
    ThetaState,
)


def always_token_oracle(k, seed=1):
    """Oracle whose tapes grant a token on every cell (p = 1)."""
    return ThetaOracle(ThetaState(k=k, seed=seed, default_probability=1.0))


class TestGetToken:
    def test_token_granted_with_p1(self):
        oracle = always_token_oracle(k=1)
        tb = oracle.get_token(GENESIS, make_block(GENESIS, label="1"), "alice")
        assert tb is not None
        assert tb.holder_id == GENESIS.block_id
        assert tb.block.parent_id == GENESIS.block_id

    def test_token_denied_pops_tape(self):
        oracle = ThetaOracle(ThetaState(k=1, seed=1, probabilities=(("weak", 1e-9),)))
        tb = oracle.get_token(GENESIS, make_block(GENESIS, label="1"), "weak")
        assert tb is None
        assert oracle.state.position_of("weak") == 1
        assert oracle.state.consumed == ()

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
        assert bucket == (tb,)
        assert oracle.consumed_for(GENESIS.block_id) == (tb,)

    def test_consume_beyond_cap_rejected(self):
        oracle = always_token_oracle(k=1)
        d1 = make_block(GENESIS, label="1")
        d2 = make_block(GENESIS, label="2")
        tb1 = oracle.get_token(GENESIS, d1, "a")
        tb2 = oracle.get_token(GENESIS, d2, "a")
        oracle.consume_token(tb1)
        full = oracle.state
        bucket = oracle.consume_token(tb2)
        assert [t.block.label for t in bucket] == ["1"]  # unchanged
        assert oracle.state is full

    def test_duplicate_consume_is_noop(self):
        oracle = always_token_oracle(k=5)
        tb = oracle.get_token(GENESIS, make_block(GENESIS, label="1"), "a")
        oracle.consume_token(tb)
        once = oracle.state
        bucket = oracle.consume_token(tb)
        assert bucket == (tb,)
        assert oracle.state is once

    def test_prodigal_never_rejects(self):
        oracle = always_token_oracle(k=math.inf, seed=2)
        for i in range(20):
            tb = oracle.get_token(GENESIS, make_block(GENESIS, label=str(i)), "a")
            assert tb in oracle.consume_token(tb)
        assert len(oracle.consumed_for(GENESIS.block_id)) == 20
        assert oracle.state.k == math.inf

    def test_fork_coherence_invariant(self):
        for k in (1, 2, 3):
            oracle = always_token_oracle(k=k)
            for i in range(k + 3):
                tb = oracle.get_token(GENESIS, make_block(GENESIS, label=str(i)), "a")
                oracle.consume_token(tb)
            assert len(oracle.consumed_for(GENESIS.block_id)) == k
            assert oracle.check_fork_coherence()


class TestConstructors:
    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            ThetaState(k=0, seed=1)
        with pytest.raises(ValueError):
            ThetaState(k=1.5, seed=1)

    def test_frugal_and_prodigal_helpers(self):
        """Θ_F,k and Θ_P are one state type, told apart by ``k`` alone."""
        assert always_token_oracle(k=2).state.k == 2
        assert always_token_oracle(k=math.inf).state.k == math.inf


class TestOneTheta:
    """The transducer, the oracle and Protocol A's object share Θ's rules."""

    @pytest.mark.parametrize(
        "k, probabilities, default",
        [
            (0, (), 0.5),
            (1.5, (), 0.5),
            (1, (("m", 0.0),), 0.5),
            (1, (("m", 1.5),), 0.5),
            (1, (), 0.0),
            (1, (), -0.1),
        ],
    )
    def test_invalid_values_rejected_on_every_face(self, k, probabilities, default):
        def state():
            return ThetaState(
                k=k, seed=1, default_probability=default, probabilities=probabilities
            )

        for face in (state, lambda: ThetaADT(state()), lambda: ThetaOracle(state())):
            with pytest.raises(ValueError):
                face()

    @pytest.mark.parametrize("probability", [0.0, 1.5])
    def test_protocol_a_rejects_invalid_probability(self, probability):
        with pytest.raises(ValueError):
            build_protocol_a_system(2, probability=probability)

    def test_transducer_and_oracle_agree_on_an_unlisted_merit(self):
        state = ThetaState(k=1, seed=4, default_probability=0.5, probabilities=(("m", 1.0),))
        adt, oracle = ThetaADT(state), ThetaOracle(state)
        s = adt.initial_state()
        for i in range(16):
            get = GetToken(GENESIS.block_id, make_block(GENESIS, label=str(i)), "unlisted")
            assert adt.output(s, get) == oracle.get_token(GENESIS, get.descriptor, "unlisted")
            s = adt.transition(s, get)
        assert s == oracle.state
        assert s.position_of("unlisted") == 16

    def test_tokens_never_share_an_id_across_seeds_or_holders(self):
        descriptor = make_block(GENESIS, label="x")
        other = make_block(GENESIS, label="other").block_id
        ids = [
            always_token_oracle(k=1, seed=seed).get_token(holder, descriptor, "m").token.token_id
            for seed in (1, 2)
            for holder in (GENESIS.block_id, other)
        ]
        for seed in (1, 2):
            oracle = build_protocol_a_system(1, seed=seed).objects["oracle"]
            ids.append(oracle.apply("get_token", ("b0", descriptor, "p0")).token.token_id)
        assert len(set(ids)) == len(ids)


class TestThetaADTView:
    """Figure 6: a walk of the Θ transition system with value semantics."""

    def test_figure6_walk(self):
        adt = ThetaADT(ThetaState(k=1, seed=7, probabilities=(("alpha1", 1.0),)))
        descriptor = make_block(GENESIS, label="k")
        get = GetToken(GENESIS.block_id, descriptor, "alpha1")
        state0 = adt.initial_state()
        tokenized = adt.output(state0, get)
        assert tokenized is not None
        state1 = adt.transition(state0, get)
        assert state1.position_of("alpha1") == 1
        consume = ConsumeToken(tokenized)
        bucket = adt.output(state1, consume)
        assert bucket == (tokenized,)
        state2 = adt.transition(state1, consume)
        assert state2.bucket(GENESIS.block_id) == (tokenized,)

    def test_adt_consume_respects_cap(self):
        adt = ThetaADT(ThetaState(k=1, seed=7, probabilities=(("a", 1.0),)))
        d1 = make_block(GENESIS, label="1")
        d2 = make_block(GENESIS, label="2")
        s = adt.initial_state()
        t1 = adt.output(s, GetToken(GENESIS.block_id, d1, "a"))
        s = adt.transition(s, GetToken(GENESIS.block_id, d1, "a"))
        t2 = adt.output(s, GetToken(GENESIS.block_id, d2, "a"))
        s = adt.transition(s, GetToken(GENESIS.block_id, d2, "a"))
        s = adt.transition(s, ConsumeToken(t1))
        bucket = adt.output(s, ConsumeToken(t2))
        assert bucket == (t1,)  # cap reached, t2 rejected

    def test_transition_trace_over_theta(self):
        adt = ThetaADT(ThetaState(k=2, seed=3, probabilities=(("m", 1.0),)))
        d = make_block(GENESIS, label="x")
        get = GetToken(GENESIS.block_id, d, "m")
        trace = TransitionTrace.record(adt, [get])
        assert trace.states[0].position_of("m") == 0
        assert trace.states[1].position_of("m") == 1

    def test_transition_trace_steps_once_per_symbol(self, monkeypatch):
        """Recording one getToken symbol is one Θ step: one token minted."""
        minted = []
        mint = theta.mint_token

        def counting_mint(*args):
            minted.append(args)
            return mint(*args)

        monkeypatch.setattr(theta, "mint_token", counting_mint)
        adt = ThetaADT(ThetaState(k=2, seed=3, probabilities=(("m", 1.0),)))
        get = GetToken(GENESIS.block_id, make_block(GENESIS, label="x"), "m")
        trace = TransitionTrace.record(adt, [get])
        assert len(minted) == 1
        assert trace.operations[0].output.token == mint(*minted[0])

    def test_deterministic_replay(self):
        adt = ThetaADT(ThetaState(k=1, seed=11, probabilities=(("m", 0.5),)))
        d = make_block(GENESIS, label="x")
        get = GetToken(GENESIS.block_id, d, "m")
        out1 = adt.output(adt.initial_state(), get)
        out2 = adt.output(adt.initial_state(), get)
        assert out1 == out2
