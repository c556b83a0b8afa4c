"""Tests for the linearizability (sequential-embedding) checker."""



from repro.blocktree.block import GENESIS, make_block
from repro.blocktree.chain import Chain
from repro.blocktree.selection import LongestChain
from repro.consistency.embedding import linearize_bt_history
from repro.consistency.hierarchy import random_refinement_history
from repro.histories.builder import HistoryRecorder
from repro.paper.figures import figure2_history, figure3_history

SELECTION = LongestChain()


def record_sequential(ops):
    """ops: list of ('append', block) or ('read', chain) executed in order."""
    rec = HistoryRecorder()
    for kind, value in ops:
        if kind == "append":
            op = rec.begin("p", "append", (value.block_id, value.parent_id))
            rec.end("p", op, "append", True)
        else:
            rec.record_read("p", value)
    return rec.history()


class TestLinearizableHistories:
    def test_empty_history(self):
        assert linearize_bt_history(HistoryRecorder().history(), SELECTION).ok

    def test_sequential_chain_history(self):
        b1 = make_block(GENESIS, label="1")
        b2 = make_block(b1, label="2")
        h = record_sequential(
            [
                ("append", b1),
                ("read", Chain.of([GENESIS, b1])),
                ("append", b2),
                ("read", Chain.of([GENESIS, b1, b2])),
            ]
        )
        result = linearize_bt_history(h, SELECTION)
        assert result.ok and len(result.order) == 4

    def test_concurrent_reads_reorder(self):
        """Overlapping reads returning different prefixes still linearize."""
        b1 = make_block(GENESIS, label="1")
        rec = HistoryRecorder()
        op_a = rec.begin("i", "read")                  # starts before append
        ap = rec.begin("p", "append", (b1.block_id, b1.parent_id))
        rec.end("p", ap, "append", True)
        op_b = rec.begin("j", "read")
        rec.end("j", op_b, "read", Chain.of([GENESIS, b1]))
        rec.end("i", op_a, "read", Chain.genesis())    # saw the old state
        result = linearize_bt_history(rec.history(), SELECTION)
        assert result.ok

    def test_figure2_shape_linearizes_when_interleaved(self):
        """A faithfully interleaved Figure 2 history embeds into L(BT-ADT).

        (`figure2_history()` itself records all appends up front as a
        block-validity convenience, which deliberately breaks real-time
        linearizability — see the non-linearizable test below.)
        """
        b1 = make_block(GENESIS, label="1")
        b2 = make_block(b1, label="2")
        b3 = make_block(b2, label="3")
        rec = HistoryRecorder()
        ap = rec.begin("env", "append", (b1.block_id, b1.parent_id))
        rec.end("env", ap, "append", True)
        j_read = rec.begin("j", "read")  # overlaps the next append
        ap = rec.begin("env", "append", (b2.block_id, b2.parent_id))
        rec.end("env", ap, "append", True)
        rec.record_read("i", Chain.of([GENESIS, b1, b2]))
        rec.end("j", j_read, "read", Chain.of([GENESIS, b1]))
        ap = rec.begin("env", "append", (b3.block_id, b3.parent_id))
        rec.end("env", ap, "append", True)
        rec.record_read("i", Chain.of([GENESIS, b1, b2, b3]))
        rec.record_read("j", Chain.of([GENESIS, b1, b2, b3]))
        result = linearize_bt_history(rec.history(), SELECTION)
        assert result.ok, result.reason

    def test_figure2_as_recorded_is_not_linearizable(self):
        """The upfront-append recording of Figure 2 cannot linearize: all
        four appends really precede the first (height-2) read."""
        result = linearize_bt_history(figure2_history(), SELECTION)
        assert result.decided and not result.ok

    def test_k1_refinement_histories_linearize(self):
        for seed in range(4):
            run = random_refinement_history(k=1, seed=seed, n_ops=16)
            result = linearize_bt_history(run.history.purged(), SELECTION)
            assert result.ok, result.reason


class TestNonLinearizableHistories:
    def test_figure3_does_not_linearize(self):
        """The forked Figure 3 history has no sequential BT-ADT explanation."""
        result = linearize_bt_history(figure3_history(), SELECTION)
        assert result.decided and not result.ok

    def test_stale_read_after_growth_rejected(self):
        """A read that returns genesis *after* a read of height 1 completed
        (no overlap) violates real-time order."""
        b1 = make_block(GENESIS, label="1")
        h = record_sequential(
            [
                ("append", b1),
                ("read", Chain.of([GENESIS, b1])),
                ("read", Chain.genesis()),  # impossible this late
            ]
        )
        result = linearize_bt_history(h, SELECTION)
        assert result.decided and not result.ok

    def test_read_of_never_appended_block_rejected(self):
        ghost = make_block(GENESIS, label="ghost")
        rec = HistoryRecorder()
        rec.record_read("p", Chain.of([GENESIS, ghost]))
        result = linearize_bt_history(rec.history(), SELECTION)
        assert not result.ok

    def test_budget_exhaustion_reported_undecided(self):
        run = random_refinement_history(k=2, seed=3, n_ops=24)
        result = linearize_bt_history(run.history.purged(), SELECTION, max_nodes=3)
        if not result.ok:
            assert not result.decided or result.reason
