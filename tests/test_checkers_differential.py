"""Differential tests: near-linear checkers vs the pairwise reference.

The batch checkers in :mod:`repro.consistency.properties` decide and
name their witness in one scan; the retained pairwise implementations in
:mod:`repro.consistency.reference` are the oracle.  Block Validity and
Eventual Prefix must return *identical* :class:`PropertyCheck` verdicts
— violation witnesses included; Strong Prefix must agree on the verdict
and the failing clause and name a pair that really is incomparable (the
running-maximum scan stops at a different valid pair than the oracle's
pairwise order) — on random refinement histories (forky and fork-free),
on crafted violating histories, and through the composed criteria.
"""

import math
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import build_chain

from repro.blocktree import (
    GENESIS,
    BlockTree,
    Chain,
    LengthScore,
    WorkScore,
    make_block,
    tuple_comparable,
)
from repro.consistency import (
    BTEventualConsistency,
    BTStrongConsistency,
    PropertyCheck,
    check_block_validity,
    check_eventual_prefix,
    check_strong_prefix,
    pairwise_check_block_validity,
    pairwise_check_eventual_prefix,
    pairwise_check_strong_prefix,
    random_refinement_history,
)
from repro.consistency import properties, reference
from repro.consistency.properties import _first_divergence
from repro.histories import Continuation, ContinuationModel, GrowthMode, HistoryRecorder

SCORE = LengthScore()
#: How each failing Strong Prefix clause opens its witness.
STRONG_PREFIX_CLAUSES = ("reads ", "limit chains of", "read ")


def _clause(check):
    """Which Strong Prefix clause a failing verdict reports."""
    (clause,) = [c for c in STRONG_PREFIX_CLAUSES if check.witness.startswith(c)]
    return clause


def _named_read_chains(history, check):
    """The chains of the two reads a ``"reads "`` witness names."""
    ids = re.match(r"reads (\d+)@\S+ and (\d+)@\S+ returned", check.witness).groups()
    by_id = {r.op_id: history.returned_chain(r) for r in history.reads()}
    return [by_id[int(i)] for i in ids]


def _continuations(history):
    """Continuation variants worth exercising on one history."""
    procs = sorted({e.proc for e in history.events})
    return [
        None,
        history.continuation,
        ContinuationModel.all_growing(procs),
        ContinuationModel.diverging(procs),
        ContinuationModel(
            {p: Continuation(True, GrowthMode.FROZEN, "none") for p in procs}
        ),
        ContinuationModel(
            {
                p: Continuation(
                    True,
                    GrowthMode.FROZEN if i % 2 else GrowthMode.GROWING,
                    "main",
                )
                for i, p in enumerate(procs)
            }
        ),
    ]


def _record(reads, appends=()):
    rec = HistoryRecorder()
    for proc, block in appends:
        op = rec.begin(proc, "append", (block.block_id, block.parent_id))
        rec.end(proc, op, "append", True)
    for proc, chain in reads:
        rec.record_read(proc, chain)
    return rec.history()


def _tree_views(parents, tips):
    """Chain views over a tree grown from ``parents`` (block i hangs off
    block ``parents[i] % (i + 1)``, 0 = genesis), one per entry of ``tips``."""
    tree = BlockTree()
    blocks = [GENESIS]
    for i, parent in enumerate(parents):
        block = make_block(blocks[parent % len(blocks)], label=f"n{i}")
        tree.add_block(block)
        blocks.append(block)
    return [tree.chain_to(blocks[t % len(blocks)].block_id) for t in tips]


class TestScanPrimitive:
    """``_first_divergence`` against the retained tuple algebra."""

    @settings(max_examples=200, deadline=None)
    @given(
        parents=st.lists(st.integers(0, 40), max_size=25),
        tips=st.lists(st.integers(0, 40), max_size=20),
    )
    def test_first_divergence_against_tuple_algebra(self, parents, tips):
        chains = _tree_views(parents, tips)
        m, j = _first_divergence(chains)
        history = _record([(f"p{i % 3}", c) for i, c in enumerate(chains)])
        assert (j is None) == pairwise_check_strong_prefix(history).ok
        if j is None:
            assert (m is None) == (not chains)
            assert all(tuple_comparable(c, chains[m]) for c in chains)
            assert all(len(c) <= len(chains[m]) for c in chains)
            return
        assert m < j
        assert not tuple_comparable(chains[m], chains[j])
        assert all(
            tuple_comparable(a, b) for i, a in enumerate(chains[:j]) for b in chains[:i]
        )
        assert all(len(c) <= len(chains[m]) for c in chains[:j])


class TestRandomRefinementHistories:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 5_000), k=st.sampled_from([1, 2, 3, math.inf]))
    def test_strong_prefix_identical(self, seed, k):
        history = random_refinement_history(k=k, seed=seed, n_ops=40).history
        for model in _continuations(history):
            fast = check_strong_prefix(history, model)
            slow = pairwise_check_strong_prefix(history, model)
            assert fast.ok == slow.ok
            assert fast.name == slow.name
            if not fast.ok:
                assert _clause(fast) == _clause(slow)
                if _clause(fast) == "reads ":
                    assert not tuple_comparable(*_named_read_chains(history, fast))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 5_000), k=st.sampled_from([1, 2, 3, math.inf]))
    def test_eventual_prefix_identical(self, seed, k):
        history = random_refinement_history(k=k, seed=seed, n_ops=40).history
        for score in (SCORE, WorkScore()):
            for model in _continuations(history):
                assert check_eventual_prefix(
                    history, score, model
                ) == pairwise_check_eventual_prefix(history, score, model)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 5_000), k=st.sampled_from([1, 2, math.inf]))
    def test_block_validity_identical(self, seed, k):
        run = random_refinement_history(k=k, seed=seed, n_ops=40)
        history = run.history
        all_ids = {
            b.block_id for r in history.reads()
            for b in history.returned_chain(r).non_genesis()
        }
        some_ids = set(sorted(all_ids)[: len(all_ids) // 2])  # forces violations
        for valid in (None, all_ids, some_ids, set()):
            assert check_block_validity(history, valid) == pairwise_check_block_validity(
                history, valid
            )

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2_000), k=st.sampled_from([1, 2, math.inf]))
    def test_criteria_reports_identical(self, seed, k):
        history = random_refinement_history(k=k, seed=seed, n_ops=30).history
        model = history.continuation
        sc = BTStrongConsistency(score=SCORE).check(history)
        ec = BTEventualConsistency(score=SCORE).check(history)
        validity = pairwise_check_block_validity(history, None, False)
        eventual = pairwise_check_eventual_prefix(history, SCORE, model)
        strong = pairwise_check_strong_prefix(history, model)
        assert sc.checks["block-validity"] == ec.checks["block-validity"] == validity
        assert ec.checks["eventual-prefix"] == eventual
        assert sc.checks["strong-prefix"].ok == strong.ok
        shared = ("local-monotonic-read", "ever-growing-tree")
        assert all(sc.checks[name] == ec.checks[name] for name in shared)
        rest_ok = validity.ok and all(sc.checks[name].ok for name in shared)
        assert sc.ok == (rest_ok and strong.ok)
        assert ec.ok == (rest_ok and eventual.ok)


class TestCraftedViolations:
    """Hand-built histories hitting every failing verdict, witnesses included."""

    def test_diverging_reads_witness_identical(self):
        a, b = build_chain("1", "2"), build_chain("1", "9")
        history = _record([("p0", a), ("p1", b), ("p2", a)])
        fast = check_strong_prefix(history)
        assert fast == pairwise_check_strong_prefix(history)
        assert fast == PropertyCheck(
            "strong-prefix",
            False,
            "reads 0@p0 and 1@p1 returned diverging chains "
            "[b0 ⌢ 1 ⌢ 2] vs [b0 ⌢ 1 ⌢ 9]",
        )

    def test_limit_divergence_witness_identical(self):
        # Every declared limit is some process's final read, so limits
        # that diverge are reads that diverge: the reads clause reports.
        a, b = build_chain("1"), build_chain("2")
        history = _record([("p0", a), ("p1", b)])
        model = ContinuationModel.diverging(["p0", "p1"])
        fast = check_strong_prefix(history, model)
        assert fast == pairwise_check_strong_prefix(history, model)
        assert fast == PropertyCheck(
            "strong-prefix",
            False,
            "reads 0@p0 and 1@p1 returned diverging chains [b0 ⌢ 1] vs [b0 ⌢ 2]",
        )

    def test_read_off_growing_branch_witness_identical(self):
        trunk = build_chain("1", "2")
        stray = build_chain("9")
        # p1's stray read diverges from p0's growing branch.
        history = _record([("p0", trunk), ("p1", trunk), ("p1", stray)])
        model = ContinuationModel(
            {
                "p0": Continuation(True, GrowthMode.GROWING, "main"),
                "p1": Continuation(True, GrowthMode.GROWING, "main"),
            }
        )
        fast = check_strong_prefix(history, model)
        slow = pairwise_check_strong_prefix(history, model)
        # Same clause, same diverging read; the scan pairs it with the
        # latest holder of the maximum (read 1), the oracle with read 0.
        assert slow.witness.startswith("reads 0@p0 and 2@p1 returned diverging")
        assert fast == PropertyCheck(
            "strong-prefix",
            False,
            "reads 1@p1 and 2@p1 returned diverging chains "
            "[b0 ⌢ 1 ⌢ 2] vs [b0 ⌢ 9]",
        )

    def test_read_past_growing_branch_witness_identical(self):
        trunk, beyond = build_chain("1"), build_chain("1", "2")
        # p1 (no declared continuation) read past the branch p0 grows on.
        history = _record([("p0", trunk), ("p1", beyond), ("p0", trunk)])
        growing = Continuation(True, GrowthMode.GROWING, "main")
        model = ContinuationModel({"p0": growing})
        fast = check_strong_prefix(history, model)
        assert fast == pairwise_check_strong_prefix(history, model)
        assert fast == PropertyCheck(
            "strong-prefix",
            False,
            "read 1@p1 chain [b0 ⌢ 1 ⌢ 2] diverges from growing branch of p0",
        )

    def test_declared_limit_clauses(self, monkeypatch):
        """The two limit templates ``_limit_chains`` cannot reach today
        (its limits are always reads): drive them with declared limits."""
        left, right = build_chain("1", "2", "3"), build_chain("1", "2", "4")
        history = _record([("p0", build_chain("1")), ("p1", build_chain("1", "2"))])
        for limits, witness in [
            (  # the oracle skips the same-group pair and names p0 and p2
                {"p0": ("main", left), "p1": ("main", left), "p2": ("<frozen>", right)},
                "limit chains of p1 and p2 diverge: "
                "[b0 ⌢ 1 ⌢ 2 ⌢ 3] vs [b0 ⌢ 1 ⌢ 2 ⌢ 4]",
            ),
            (
                {"p1": ("<frozen>", build_chain("1", "9"))},
                "read 1@p1 chain diverges from frozen limit of p1",
            ),
        ]:
            for module in (properties, reference):
                monkeypatch.setattr(module, "_limit_chains", lambda h, m, _l=limits: _l)
            model = ContinuationModel.all_growing(["p0", "p1"])
            fast = check_strong_prefix(history, model)
            slow = pairwise_check_strong_prefix(history, model)
            assert fast == PropertyCheck("strong-prefix", False, witness)
            assert not slow.ok and _clause(slow) == _clause(fast)

    def test_strong_prefix_failure_needs_no_block_id_tuples(self, monkeypatch):
        """Deciding and naming a fork costs two ``describe()`` calls — no
        per-read ``block_ids()`` materialisation on tree-backed views."""
        views = _tree_views([0, 1, 1, 2, 3], [1, 2, 4, 2, 5, 3])
        history = _record([(f"p{i % 2}", c) for i, c in enumerate(views)])

        def boom(self):
            raise AssertionError("check_strong_prefix materialised block ids")

        monkeypatch.setattr(Chain, "block_ids", boom)
        fast = check_strong_prefix(history)
        assert not fast.ok and _clause(fast) == "reads "

    def test_frozen_divergence_witness_identical(self):
        a, b = build_chain("1", "2", "3"), build_chain("1", "9")
        appends = [("p", blk) for c in (a, b) for blk in c.non_genesis()]
        history = _record([("p0", a), ("p1", b)], appends)
        model = ContinuationModel(
            {p: Continuation(True, GrowthMode.FROZEN, "none") for p in ("p0", "p1")}
        )
        fast = check_eventual_prefix(history, SCORE, model)
        slow = pairwise_check_eventual_prefix(history, SCORE, model)
        assert not fast.ok and fast == slow and "agree only up to score" in fast.witness

    def test_frozen_convergence_passes_identically(self):
        a = build_chain("1", "2")
        appends = [("p", blk) for blk in a.non_genesis()]
        history = _record([("p0", a), ("p1", a)], appends)
        model = ContinuationModel(
            {p: Continuation(True, GrowthMode.FROZEN, "none") for p in ("p0", "p1")}
        )
        fast = check_eventual_prefix(history, SCORE, model)
        slow = pairwise_check_eventual_prefix(history, SCORE, model)
        assert fast.ok and fast == slow

    def test_unappended_block_witness_identical(self):
        chain = build_chain("1", "2")
        # Only block "1" is ever appended; "2" appears out of thin air.
        appends = [("p", chain.non_genesis()[0])]
        history = _record([("p0", chain)], appends)
        fast = check_block_validity(history)
        slow = pairwise_check_block_validity(history)
        assert not fast.ok and fast == slow and "no prior append" in fast.witness

    def test_invalid_block_witness_identical(self):
        chain = build_chain("1", "2")
        appends = [("p", blk) for blk in chain.non_genesis()]
        history = _record([("p0", chain)], appends)
        valid = {chain.non_genesis()[0].block_id}  # "2" ∉ B′
        fast = check_block_validity(history, valid)
        slow = pairwise_check_block_validity(history, valid)
        assert not fast.ok and fast == slow and "∉ B′" in fast.witness

    def test_append_after_read_witness_identical(self):
        chain = build_chain("1")
        rec = HistoryRecorder()
        rec.record_read("p0", chain)  # read responds before any append
        op = rec.begin("p", "append", (chain.tip.block_id, GENESIS.block_id))
        rec.end("p", op, "append", True)
        history = rec.history()
        fast = check_block_validity(history)
        slow = pairwise_check_block_validity(history)
        assert not fast.ok and fast == slow

    def test_strict_order_routes_to_reference(self):
        """Exact ``ր`` reachability: every read is walked, verdicts equal
        the oracle's on a passing and on a failing history."""
        chain = build_chain("1")
        appends = [("p", chain.non_genesis()[0])]
        history = _record([("p0", chain)], appends)
        rec = HistoryRecorder()
        op = rec.begin("p", "append", (chain.tip.block_id, GENESIS.block_id))
        rec.record_read("p0", chain)  # responds while the append is still open
        rec.end("p", op, "append", True)
        concurrent = rec.history()
        for h, ok in ((history, True), (concurrent, False)):
            fast = check_block_validity(h, None, True)
            assert fast == pairwise_check_block_validity(h, None, True)
            assert fast.ok is ok
