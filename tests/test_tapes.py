"""Tests for merit tapes (Definition 3.5's pseudorandom token source)."""

import pytest

from repro.oracle.tapes import MeritTape, TapeSet


class TestMeritTape:
    def test_deterministic_cells(self):
        t1 = MeritTape(seed=1, merit_id="alice", probability=0.5)
        t2 = MeritTape(seed=1, merit_id="alice", probability=0.5)
        assert [t1.cell(i) for i in range(100)] == [t2.cell(i) for i in range(100)]

    def test_different_merits_different_tapes(self):
        t1 = MeritTape(seed=1, merit_id="alice", probability=0.5)
        t2 = MeritTape(seed=1, merit_id="bob", probability=0.5)
        assert [t1.cell(i) for i in range(64)] != [t2.cell(i) for i in range(64)]

    def test_pop_advances_head_peeks(self):
        t = MeritTape(seed=1, merit_id="a", probability=0.5)
        head = t.head()
        assert t.pop() == head
        assert t.position == 1

    def test_probability_controls_rate(self):
        low = MeritTape(seed=3, merit_id="m", probability=0.1)
        high = MeritTape(seed=3, merit_id="m2", probability=0.9)
        n = 2000
        low_rate = sum(low.cell(i) for i in range(n)) / n
        high_rate = sum(high.cell(i) for i in range(n)) / n
        assert low_rate == pytest.approx(0.1, abs=0.03)
        assert high_rate == pytest.approx(0.9, abs=0.03)

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            MeritTape(seed=1, merit_id="x", probability=0.0)
        with pytest.raises(ValueError):
            MeritTape(seed=1, merit_id="x", probability=1.5)

    def test_copy_is_independent_reader(self):
        t = MeritTape(seed=1, merit_id="a", probability=0.5)
        t.pop()
        c = t.copy()
        c.pop()
        assert t.position == 1 and c.position == 2


class TestTapeSet:
    def test_register_and_fetch(self):
        ts = TapeSet(seed=9)
        tape = ts.register("a", 0.25)
        assert ts.tape("a") is tape

    def test_reregister_same_probability_ok(self):
        ts = TapeSet(seed=9)
        ts.register("a", 0.25)
        assert ts.register("a", 0.25).probability == 0.25

    def test_reregister_conflicting_probability_rejected(self):
        ts = TapeSet(seed=9)
        ts.register("a", 0.25)
        with pytest.raises(ValueError):
            ts.register("a", 0.5)

    def test_lazy_default_tape(self):
        ts = TapeSet(seed=9, default_probability=0.7)
        assert ts.tape("implicit").probability == 0.7

    def test_copy_deep(self):
        ts = TapeSet(seed=9)
        ts.tape("a").pop()
        clone = ts.copy()
        clone.tape("a").pop()
        assert ts.tape("a").position == 1
        assert clone.tape("a").position == 2

    def test_freeze_reflects_positions(self):
        ts = TapeSet(seed=9)
        before = ts.freeze()
        ts.tape("a").pop()
        assert ts.freeze() != before
