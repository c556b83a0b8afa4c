"""Tests for linearizable shared objects (repro.concurrent.objects)."""

import math

import pytest

from repro.blocktree.block import make_block
from repro.concurrent.objects import (
    AtomicRegister,
    AtomicSnapshotObject,
    CASRegister,
    ConsumeTokenObject,
)
from repro.oracle.theta import ThetaOracle, ThetaState


class TestAtomicRegister:
    def test_read_write(self):
        r = AtomicRegister()
        assert r.apply("read", ()) is None
        r.apply("write", (7,))
        assert r.apply("read", ()) == 7

    def test_snapshot_restore(self):
        r = AtomicRegister(1)
        snap = r.snapshot()
        r.apply("write", (2,))
        r.restore(snap)
        assert r.apply("read", ()) == 1

    def test_unknown_op(self):
        with pytest.raises(ValueError):
            AtomicRegister().apply("cas", (1, 2))


class TestCASRegister:
    def test_successful_cas_returns_previous(self):
        r = CASRegister()
        assert r.apply("cas", (None, "x")) is None
        assert r.apply("read", ()) == "x"

    def test_failed_cas_returns_previous_unchanged(self):
        r = CASRegister("a")
        assert r.apply("cas", ("b", "c")) == "a"
        assert r.apply("read", ()) == "a"

    def test_cas_race_semantics(self):
        r = CASRegister()
        assert r.apply("cas", (None, "first")) is None
        assert r.apply("cas", (None, "second")) == "first"
        assert r.apply("read", ()) == "first"

    def test_snapshot_restore(self):
        r = CASRegister()
        snap = r.snapshot()
        r.apply("cas", (None, 1))
        r.restore(snap)
        assert r.apply("read", ()) is None


class TestAtomicSnapshot:
    def test_update_scan(self):
        s = AtomicSnapshotObject(3)
        s.apply("update", (1, "b"))
        assert s.apply("scan", ()) == (None, "b", None)

    def test_scan_sees_all_prior_updates(self):
        s = AtomicSnapshotObject(2)
        s.apply("update", (0, "a"))
        s.apply("update", (1, "b"))
        assert s.apply("scan", ()) == ("a", "b")

    def test_snapshot_restore(self):
        s = AtomicSnapshotObject(2)
        snap = s.snapshot()
        s.apply("update", (0, "x"))
        s.restore(snap)
        assert s.apply("scan", ()) == (None, None)


class TestConsumeTokenObject:
    def test_k1_first_wins(self):
        ct = ConsumeTokenObject(k=1)
        assert ct.apply("consume", ("h", "a")) == ("a",)
        assert ct.apply("consume", ("h", "b")) == ("a",)
        assert ct.apply("get", ("h",)) == ("a",)

    def test_k2_two_slots(self):
        ct = ConsumeTokenObject(k=2)
        ct.apply("consume", ("h", "a"))
        assert ct.apply("consume", ("h", "b")) == ("a", "b")
        assert ct.apply("consume", ("h", "c")) == ("a", "b")

    def test_duplicate_value_not_double_inserted(self):
        ct = ConsumeTokenObject(k=3)
        ct.apply("consume", ("h", "a"))
        assert ct.apply("consume", ("h", "a")) == ("a",)

    def test_independent_holders(self):
        ct = ConsumeTokenObject(k=1)
        ct.apply("consume", ("h1", "a"))
        assert ct.apply("consume", ("h2", "b")) == ("b",)

    def test_infinite_k(self):
        ct = ConsumeTokenObject(k=math.inf)
        for i in range(10):
            ct.apply("consume", ("h", i))
        assert len(ct.apply("get", ("h",))) == 10

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            ConsumeTokenObject(k=0)

    def test_snapshot_restore(self):
        ct = ConsumeTokenObject(k=1)
        snap = ct.snapshot()
        ct.apply("consume", ("h", "a"))
        ct.restore(snap)
        assert ct.apply("get", ("h",)) == ()


class TestOracleObject:
    """The Θ oracle as the shared object of Protocol A."""

    @staticmethod
    def oracle(p):
        return ThetaOracle(ThetaState(k=1, seed=5, probabilities=(("m", p),)))

    def test_get_token_deterministic(self):
        blk = make_block("b0", label="blk")
        t1 = self.oracle(1.0).apply("get_token", ("b0", blk, "m"))
        t2 = self.oracle(1.0).apply("get_token", ("b0", blk, "m"))
        assert t1 == t2 and t1 is not None

    def test_get_token_can_fail(self):
        blk = make_block("b0", label="blk")
        assert self.oracle(1e-9).apply("get_token", ("b0", blk, "m")) is None

    def test_consume_cap(self):
        o = self.oracle(1.0)
        t1 = o.apply("get_token", ("b0", make_block("b0", label="x"), "m"))
        t2 = o.apply("get_token", ("b0", make_block("b0", label="y"), "m"))
        assert o.apply("consume_token", (t1,)) == (t1,)
        assert o.apply("consume_token", (t2,)) == (t1,)

    def test_snapshot_restore_roundtrip(self):
        o = self.oracle(1.0)
        snap = o.snapshot()
        tokenized = o.apply("get_token", ("b0", make_block("b0", label="x"), "m"))
        o.apply("consume_token", (tokenized,))
        assert o.snapshot() != snap
        o.restore(snap)
        assert o.state.position_of("m") == 0
        assert o.consumed_for("b0") == ()
