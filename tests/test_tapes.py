"""Tests for merit tapes (Definition 3.5's pseudorandom token source).

A tape's cells are :func:`tape_cell`; its head is the position that
:class:`ThetaState` keeps for the merit.
"""

import pytest

from repro.blocktree.block import GENESIS, make_block
from repro.oracle.tapes import tape_cell
from repro.oracle.theta import ThetaState


def pop(state, merit_id):
    """One getToken for ``merit_id``: ``(next state, whether it won)``."""
    state, tokenized = state.get_token(GENESIS, make_block(GENESIS, label="d"), merit_id)
    return state, tokenized is not None


class TestMeritTape:
    def test_deterministic_cells(self):
        cells = [tape_cell(1, "alice", i, 0.5) for i in range(100)]
        assert cells == [tape_cell(1, "alice", i, 0.5) for i in range(100)]

    def test_different_merits_different_tapes(self):
        alice = [tape_cell(1, "alice", i, 0.5) for i in range(64)]
        bob = [tape_cell(1, "bob", i, 0.5) for i in range(64)]
        assert alice != bob

    def test_pop_advances_head_peeks(self):
        state = ThetaState(k=1, seed=1, probabilities=(("a", 0.5),))
        head = tape_cell(1, "a", state.position_of("a"), 0.5)
        state, won = pop(state, "a")
        assert won == head
        assert state.position_of("a") == 1

    def test_probability_controls_rate(self):
        n = 2000
        low_rate = sum(tape_cell(3, "m", i, 0.1) for i in range(n)) / n
        high_rate = sum(tape_cell(3, "m2", i, 0.9) for i in range(n)) / n
        assert low_rate == pytest.approx(0.1, abs=0.03)
        assert high_rate == pytest.approx(0.9, abs=0.03)

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            ThetaState(k=1, seed=1, probabilities=(("x", 0.0),))
        with pytest.raises(ValueError):
            ThetaState(k=1, seed=1, probabilities=(("x", 1.5),))

    def test_copy_is_independent_reader(self):
        once, _ = pop(ThetaState(k=1, seed=1), "a")
        twice, _ = pop(once, "a")
        assert once.position_of("a") == 1 and twice.position_of("a") == 2


class TestTapeSet:
    def test_register_and_fetch(self):
        state = ThetaState(k=1, seed=9, probabilities=(("a", 0.25),))
        assert state.probability_of("a") == 0.25

    def test_lazy_default_tape(self):
        state = ThetaState(k=1, seed=9, default_probability=0.7)
        assert state.probability_of("implicit") == 0.7
        assert state.position_of("implicit") == 0

    def test_copy_deep(self):
        state, _ = pop(ThetaState(k=1, seed=9), "a")
        clone, _ = pop(state, "a")
        assert state.position_of("a") == 1
        assert clone.position_of("a") == 2

    def test_freeze_reflects_positions(self):
        before = ThetaState(k=1, seed=9)
        after, _ = pop(before, "a")
        assert after != before and hash(after) != hash(before)
        assert after.positions == (("a", 1),)
