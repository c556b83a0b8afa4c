"""Tests for events, the history recorder, and the three orders of Def 2.4."""

import pytest

from repro.blocktree import Chain, GENESIS, make_block
from repro.histories import Continuation, ContinuationModel, GrowthMode, HistoryRecorder


def chain_of(*labels):
    blocks = [GENESIS]
    for lbl in labels:
        blocks.append(make_block(blocks[-1], label=lbl))
    return Chain.of(blocks)


class TestRecorder:
    def test_begin_end_produces_matched_op(self):
        rec = HistoryRecorder()
        op = rec.begin("p1", "read")
        rec.end("p1", op, "read", chain_of("1"))
        h = rec.history()
        ops = h.operations()
        assert len(ops) == 1 and ops[0].complete
        assert ops[0].result.height == 1

    def test_instant_op_single_op_two_events(self):
        rec = HistoryRecorder()
        rec.instant("p1", "send", ("b1",))
        h = rec.history()
        assert len(h.events) == 2
        assert len(h.sends()) == 1

    def test_eids_monotonic(self):
        rec = HistoryRecorder()
        rec.record_read("a", chain_of("1"))
        rec.record_append("b", "blk", True)
        h = rec.history()
        eids = [e.eid for e in h.events]
        assert eids == sorted(eids) and len(set(eids)) == len(eids)

    def test_convenience_recorders(self):
        rec = HistoryRecorder()
        rec.record_append("p", "blockid", True)
        rec.record_read("p", chain_of("1"))
        h = rec.history()
        assert len(h.successful_appends()) == 1
        assert len(h.reads()) == 1

    def test_history_snapshot_semantics(self):
        rec = HistoryRecorder()
        rec.record_read("p", chain_of("1"))
        h1 = rec.history()
        rec.record_read("p", chain_of("1", "2"))
        assert len(h1.reads()) == 1
        assert len(rec.history().reads()) == 2


class TestOrders:
    def _history(self):
        rec = HistoryRecorder()
        op_a = rec.begin("i", "read")           # eid 0
        rec.end("i", op_a, "read", chain_of("1"))  # eid 1
        op_b = rec.begin("j", "read")           # eid 2
        rec.end("j", op_b, "read", chain_of("1"))  # eid 3
        return rec.history()

    def test_process_order_same_proc_only(self):
        h = self._history()
        e0, e1, e2, _ = h.events
        assert h.process_order(e0, e1)
        assert not h.process_order(e0, e2)

    def test_operation_order_inv_resp(self):
        h = self._history()
        e0, e1, e2, e3 = h.events
        assert h.operation_order(e0, e1)       # inv before own resp
        assert h.operation_order(e1, e2)       # resp before later inv
        assert not h.operation_order(e0, e2)   # inv-inv unrelated

    def test_program_order_union(self):
        h = self._history()
        e0, e1, e2, e3 = h.events
        assert h.program_order(e0, e1)
        assert h.program_order(e1, e2)
        assert not h.program_order(e3, e0)
        assert not h.program_order(e0, e0)


class TestHistoryViews:
    def test_reads_of_and_last_chain(self):
        rec = HistoryRecorder()
        rec.record_read("i", chain_of("1"))
        rec.record_read("j", chain_of("1", "2"))
        rec.record_read("i", chain_of("1", "2", "3"))
        h = rec.history()
        assert len(h.reads_of("i")) == 2
        assert h.last_chain_of("i").height == 3
        assert h.last_chain_of("ghost") is None

    def test_returned_chain_type_guard(self):
        rec = HistoryRecorder()
        op = rec.begin("p", "read")
        rec.end("p", op, "read", "not a chain")
        h = rec.history()
        with pytest.raises(TypeError):
            h.returned_chain(h.reads()[0])

    def test_purged_removes_failed_appends(self):
        rec = HistoryRecorder()
        good = rec.record_append("p", "good", True)
        rec.record_append("p", "bad", False)
        pending = rec.begin("p", "append", ("pending",))
        h = rec.history()
        purged = h.purged()
        assert purged is not h
        assert purged.events == [e for e in h.events if e.op_id == good]
        assert len(purged.appends()) == 1
        assert purged.appends()[0].args[0] == "good"

    def test_purged_without_failed_appends_is_the_history_itself(self):
        rec = HistoryRecorder()
        rec.record_append("p", "good", True)
        rec.record_read("p", chain_of("1"))
        h = rec.history()
        assert h.purged() is h

    def test_restrict_to_procs(self):
        rec = HistoryRecorder()
        rec.record_read("i", chain_of("1"))
        rec.record_read("j", chain_of("1"))
        h = rec.history(continuation=ContinuationModel.all_growing(["i", "j"]))
        sub = h.restrict_to_procs(["i"])
        assert sub.procs() == ["i"]
        assert set(sub.continuation.per_process) == {"i"}

    def test_procs_sorted(self):
        rec = HistoryRecorder()
        rec.record_read("z", chain_of("1"))
        rec.record_read("a", chain_of("1"))
        assert rec.history().procs() == ["a", "z"]

    def test_describe_truncates(self):
        rec = HistoryRecorder()
        for _ in range(5):
            rec.record_read("p", chain_of("1"))
        text = rec.history().describe(limit=3)
        assert "more events" in text


class TestContinuationModel:
    def test_all_growing(self):
        m = ContinuationModel.all_growing(["a", "b"])
        assert m.of("a").mode is GrowthMode.GROWING
        assert m.of("a").group == m.of("b").group
        assert m.reads_forever_procs() == ["a", "b"]

    def test_diverging(self):
        m = ContinuationModel.diverging(["a", "b"])
        assert m.of("a").group != m.of("b").group

    def test_complete(self):
        m = ContinuationModel.complete(["a"])
        assert not m.of("a").reads_forever
        assert m.reads_forever_procs() == []

    def test_set_and_growing_procs(self):
        m = ContinuationModel()
        m.set("x", Continuation(True, GrowthMode.FROZEN, "none"))
        m.set("y", Continuation(True, GrowthMode.GROWING, "g"))
        assert m.growing_procs() == ["y"]
        assert m.of("zzz") is None
