"""Tests for the individual consistency properties (Defs. 3.2/3.3/3.9)."""

from helpers import build_chain

from repro.blocktree.block import GENESIS, make_block
from repro.blocktree.score import LengthScore
from repro.consistency.properties import (
    check_block_validity,
    check_eventual_prefix,
    check_ever_growing_tree,
    check_k_fork_coherence,
    check_local_monotonic_read,
    check_strong_prefix,
    program_order_reaches,
)
from repro.histories.builder import HistoryRecorder
from repro.histories.continuation import Continuation, ContinuationModel, GrowthMode

SCORE = LengthScore()


def record_reads(reads, appends=None):
    """Build a history from [(proc, chain), ...] with appends auto-derived.

    Every block appearing in any chain gets a prior successful append with
    args (block_id, parent_id), so Block Validity holds by construction
    unless the caller passes appends=[] explicitly.
    """
    rec = HistoryRecorder()
    if appends is None:
        seen = set()
        for _, chain in reads:
            for b in chain.non_genesis():
                if b.block_id not in seen:
                    seen.add(b.block_id)
                    op = rec.begin("env", "append", (b.block_id, b.parent_id))
                    rec.end("env", op, "append", True)
    else:
        for proc, block in appends:
            op = rec.begin(proc, "append", (block.block_id, block.parent_id))
            rec.end(proc, op, "append", True)
    for proc, chain in reads:
        rec.record_read(proc, chain)
    return rec.history()


class TestBlockValidity:
    def test_holds_with_prior_appends(self):
        h = record_reads([("i", build_chain("1", "2"))])
        assert check_block_validity(h).ok

    def test_fails_without_append(self):
        h = record_reads([("i", build_chain("1"))], appends=[])
        result = check_block_validity(h)
        assert not result.ok
        assert "no prior append" in result.witness

    def test_fails_on_invalid_block(self):
        chain = build_chain("1")
        h = record_reads([("i", chain)])
        valid_ids = set()  # nothing is valid
        assert not check_block_validity(h, valid_block_ids=valid_ids).ok

    def test_holds_with_explicit_valid_set(self):
        chain = build_chain("1")
        h = record_reads([("i", chain)])
        valid_ids = {b.block_id for b in chain.non_genesis()}
        assert check_block_validity(h, valid_block_ids=valid_ids).ok

    def test_strict_order_mode(self):
        h = record_reads([("i", build_chain("1"))])
        assert check_block_validity(h, strict_order=True).ok

    def test_append_after_read_detected(self):
        rec = HistoryRecorder()
        chain = build_chain("1")
        rec.record_read("i", chain)
        b = chain.tip
        op = rec.begin("env", "append", (b.block_id, b.parent_id))
        rec.end("env", op, "append", True)
        assert not check_block_validity(rec.history()).ok


class TestProgramOrderReaches:
    def test_same_proc(self):
        rec = HistoryRecorder()
        rec.record_read("i", build_chain("1"))
        rec.record_read("i", build_chain("1", "2"))
        h = rec.history()
        assert program_order_reaches(h, h.events[0], h.events[3])

    def test_cross_proc_via_resp_inv(self):
        rec = HistoryRecorder()
        rec.record_read("i", build_chain("1"))   # events 0,1
        rec.record_read("j", build_chain("1"))   # events 2,3
        h = rec.history()
        assert program_order_reaches(h, h.events[1], h.events[2])
        assert program_order_reaches(h, h.events[0], h.events[3])

    def test_overlapping_ops_incomparable(self):
        rec = HistoryRecorder()
        a = rec.begin("i", "read")    # eid 0
        b = rec.begin("j", "read")    # eid 1
        rec.end("j", b, "read", build_chain("1"))  # eid 2
        rec.end("i", a, "read", build_chain("1"))  # eid 3
        h = rec.history()
        # i's inv (0) cannot reach j's resp (2): i's first response is eid 3.
        assert not program_order_reaches(h, h.events[0], h.events[2])

    def test_never_backward(self):
        rec = HistoryRecorder()
        rec.record_read("i", build_chain("1"))
        h = rec.history()
        assert not program_order_reaches(h, h.events[1], h.events[0])


class TestLocalMonotonicRead:
    def test_nondecreasing_ok(self):
        h = record_reads([("i", build_chain("1")), ("i", build_chain("1", "2"))])
        assert check_local_monotonic_read(h, SCORE).ok

    def test_equal_scores_ok(self):
        h = record_reads([("i", build_chain("1")), ("i", build_chain("2"))])
        assert check_local_monotonic_read(h, SCORE).ok

    def test_decreasing_fails(self):
        h = record_reads([("i", build_chain("1", "2")), ("i", build_chain("1"))])
        result = check_local_monotonic_read(h, SCORE)
        assert not result.ok and "process i" in result.witness

    def test_repeated_read_ok(self):
        h = record_reads([("i", build_chain("1")), ("i", build_chain("1"))])
        assert check_local_monotonic_read(h, SCORE).ok
        assert check_strong_prefix(h).ok

    def test_cross_process_not_constrained(self):
        h = record_reads([("i", build_chain("1", "2")), ("j", build_chain("1"))])
        assert check_local_monotonic_read(h, SCORE).ok


class TestStrongPrefix:
    def test_comparable_chains_ok(self):
        h = record_reads([("i", build_chain("1")), ("j", build_chain("1", "2"))])
        assert check_strong_prefix(h).ok

    def test_prefix_growth_ok(self):
        h = record_reads(
            [
                ("i", build_chain("1")),
                ("i", build_chain("1", "2")),
                ("i", build_chain("1", "2", "3")),
            ]
        )
        assert check_strong_prefix(h).ok

    def test_shorter_prefix_read_ok(self):
        # j reads a prefix of what i read before it: still comparable.
        h = record_reads([("i", build_chain("1", "2", "3")), ("j", build_chain("1"))])
        assert check_strong_prefix(h).ok

    def test_divergent_chains_fail(self):
        h = record_reads([("i", build_chain("1")), ("j", build_chain("2"))])
        result = check_strong_prefix(h)
        assert not result.ok and "diverging" in result.witness

    def test_witness_names_the_first_diverging_read(self):
        h = record_reads(
            [("i", build_chain("1")), ("j", build_chain("2")), ("k", build_chain("3"))]
        )
        first, second, _ = h.reads()
        witness = check_strong_prefix(h).witness
        assert f"reads {first.op_id}@i and {second.op_id}@j" in witness

    def test_continuation_divergent_limits_fail(self):
        h = record_reads([("i", build_chain("1")), ("j", build_chain("1"))])
        model = ContinuationModel.diverging(["i", "j"])
        # Observed chains identical but futures diverge: i grows branch of
        # its final chain, j grows its own → limits are both b0⌢1 here, so
        # this particular shape stays comparable.
        assert check_strong_prefix(h, model).ok

    def test_continuation_observed_chain_off_branch_fails(self):
        h = record_reads([("i", build_chain("2", "3")), ("j", build_chain("1"))])
        model = ContinuationModel(
            {
                "i": Continuation(True, GrowthMode.GROWING, "g"),
                "j": Continuation(True, GrowthMode.GROWING, "g"),
            }
        )
        assert not check_strong_prefix(h, model).ok

    def test_frozen_limit_comparable_ok(self):
        h = record_reads([("i", build_chain("1", "2"))])
        model = ContinuationModel({"i": Continuation(True, GrowthMode.FROZEN, "none")})
        assert check_strong_prefix(h, model).ok


class TestEverGrowingTree:
    def test_vacuous_without_continuation(self):
        h = record_reads([("i", build_chain("1"))])
        assert check_ever_growing_tree(h, SCORE).ok

    def test_all_growing_ok(self):
        h = record_reads([("i", build_chain("1"))])
        assert check_ever_growing_tree(h, SCORE, ContinuationModel.all_growing(["i"])).ok

    def test_frozen_reader_fails(self):
        h = record_reads([("i", build_chain("1"))])
        model = ContinuationModel({"i": Continuation(True, GrowthMode.FROZEN, "none")})
        result = check_ever_growing_tree(h, SCORE, model)
        assert not result.ok and "frozen" in result.witness

    def test_frozen_nonreader_ok(self):
        h = record_reads([("i", build_chain("1"))])
        model = ContinuationModel({"i": Continuation(False, GrowthMode.FROZEN, "none")})
        assert check_ever_growing_tree(h, SCORE, model).ok

    def test_uses_history_attached_continuation(self):
        h = record_reads([("i", build_chain("1"))])
        h.continuation = ContinuationModel(
            {"i": Continuation(True, GrowthMode.FROZEN, "none")}
        )
        assert not check_ever_growing_tree(h, SCORE).ok


class TestEventualPrefix:
    def test_vacuous_without_continuation(self):
        h = record_reads([("i", build_chain("1")), ("j", build_chain("2"))])
        assert check_eventual_prefix(h, SCORE).ok

    def test_single_growth_group_ok(self):
        h = record_reads([("i", build_chain("1")), ("j", build_chain("2"))])
        model = ContinuationModel.all_growing(["i", "j"])
        assert check_eventual_prefix(h, SCORE, model).ok

    def test_diverging_groups_fail(self):
        h = record_reads([("i", build_chain("1", "3")), ("j", build_chain("2", "4"))])
        model = ContinuationModel.diverging(["i", "j"])
        result = check_eventual_prefix(h, SCORE, model)
        assert not result.ok and "diverge forever" in result.witness

    def test_frozen_beside_growing_fails(self):
        h = record_reads([("i", build_chain("1", "2")), ("j", build_chain("1"))])
        model = ContinuationModel(
            {
                "i": Continuation(True, GrowthMode.GROWING, "g"),
                "j": Continuation(True, GrowthMode.FROZEN, "none"),
            }
        )
        result = check_eventual_prefix(h, SCORE, model)
        assert not result.ok and "frozen" in result.witness

    def test_all_frozen_converged_ok(self):
        final = build_chain("1", "2")
        h = record_reads([("i", final), ("j", final)])
        model = ContinuationModel(
            {
                "i": Continuation(True, GrowthMode.FROZEN, "none"),
                "j": Continuation(True, GrowthMode.FROZEN, "none"),
            }
        )
        assert check_eventual_prefix(h, SCORE, model).ok

    def test_all_frozen_diverged_fails(self):
        h = record_reads([("i", build_chain("1", "2")), ("j", build_chain("3", "4"))])
        model = ContinuationModel(
            {
                "i": Continuation(True, GrowthMode.FROZEN, "none"),
                "j": Continuation(True, GrowthMode.FROZEN, "none"),
            }
        )
        result = check_eventual_prefix(h, SCORE, model)
        assert not result.ok

    def test_no_readers_forever_ok(self):
        h = record_reads([("i", build_chain("1"))])
        model = ContinuationModel.complete(["i"])
        assert check_eventual_prefix(h, SCORE, model).ok


class TestKForkCoherence:
    def test_within_cap_ok(self):
        b1 = make_block(GENESIS, label="1")
        b2 = make_block(b1, label="2")
        rec = HistoryRecorder()
        for b in (b1, b2):
            op = rec.begin("i", "append", (b.block_id, b.parent_id))
            rec.end("i", op, "append", True)
        assert check_k_fork_coherence(rec.history(), k=1).ok

    def test_exceeding_cap_fails(self):
        b1 = make_block(GENESIS, label="1")
        b2 = make_block(GENESIS, label="2")
        rec = HistoryRecorder()
        for b in (b1, b2):
            op = rec.begin("i", "append", (b.block_id, b.parent_id))
            rec.end("i", op, "append", True)
        result = check_k_fork_coherence(rec.history(), k=1)
        assert not result.ok and "> k" in result.witness

    def test_appends_by_different_processes_share_the_cap(self):
        rec = HistoryRecorder()
        for proc, label in (("p", "1"), ("q", "2")):
            b = make_block(GENESIS, label=label)
            op = rec.begin(proc, "append", (b.block_id, b.parent_id))
            rec.end(proc, op, "append", True)
        result = check_k_fork_coherence(rec.history(), k=1)
        assert not result.ok and "> k" in result.witness

    def test_failed_appends_do_not_count(self):
        b1 = make_block(GENESIS, label="1")
        b2 = make_block(GENESIS, label="2")
        rec = HistoryRecorder()
        op = rec.begin("i", "append", (b1.block_id, b1.parent_id))
        rec.end("i", op, "append", True)
        op = rec.begin("i", "append", (b2.block_id, b2.parent_id))
        rec.end("i", op, "append", False)
        assert check_k_fork_coherence(rec.history(), k=1).ok

    def test_parent_map_from_read_chains(self):
        chain = build_chain("1", "2")
        rec = HistoryRecorder()
        for b in chain.non_genesis():
            op = rec.begin("i", "append", (b.block_id,))  # no parent in args
            rec.end("i", op, "append", True)
        rec.record_read("i", chain)
        assert check_k_fork_coherence(rec.history(), k=1).ok

    def test_explicit_parent_map(self):
        b1 = make_block(GENESIS, label="1")
        b2 = make_block(GENESIS, label="2")
        rec = HistoryRecorder()
        for b in (b1, b2):
            op = rec.begin("i", "append", (b.block_id,))
            rec.end("i", op, "append", True)
        parents = {
            b1.block_id: GENESIS.block_id,
            b2.block_id: GENESIS.block_id,
        }
        assert not check_k_fork_coherence(rec.history(), k=1, parent_of=parents).ok
        assert check_k_fork_coherence(rec.history(), k=2, parent_of=parents).ok
