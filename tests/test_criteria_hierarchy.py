"""Tests for the SC/EC criteria and the hierarchy experiments (Thms 3.1/3.3/3.4)."""

import math

from helpers import build_chain

from repro.blocktree.score import LengthScore
from repro.consistency.criteria import BTEventualConsistency, BTStrongConsistency
from repro.consistency.hierarchy import (
    hierarchy_edges,
    random_refinement_history,
    replay_appends,
)
from repro.histories.builder import HistoryRecorder
from repro.histories.continuation import ContinuationModel

SCORE = LengthScore()


def history_with(reads, continuation=None):
    rec = HistoryRecorder()
    seen = set()
    for _, chain in reads:
        for b in chain.non_genesis():
            if b.block_id not in seen:
                seen.add(b.block_id)
                op = rec.begin("env", "append", (b.block_id, b.parent_id))
                rec.end("env", op, "append", True)
    for proc, chain in reads:
        rec.record_read(proc, chain)
    return rec.history(continuation=continuation)


class TestCriteria:
    def test_sc_satisfied_on_prefix_history(self):
        h = history_with(
            [("i", build_chain("1")), ("j", build_chain("1", "2"))],
            ContinuationModel.all_growing(["i", "j"]),
        )
        report = BTStrongConsistency(score=SCORE).check(h)
        assert report.ok
        assert set(report.checks) == {
            "block-validity",
            "local-monotonic-read",
            "strong-prefix",
            "ever-growing-tree",
        }

    def test_ec_satisfied_on_forked_convergent_history(self):
        h = history_with(
            [("i", build_chain("2")), ("j", build_chain("1")),
             ("i", build_chain("1", "3")), ("j", build_chain("1", "3"))],
            ContinuationModel.all_growing(["i", "j"]),
        )
        assert not BTStrongConsistency(score=SCORE).check(h).ok
        assert BTEventualConsistency(score=SCORE).check(h).ok

    def test_neither_on_diverging_history(self):
        h = history_with(
            [("i", build_chain("2", "4")), ("j", build_chain("1", "3"))],
            ContinuationModel.diverging(["i", "j"]),
        )
        assert not BTStrongConsistency(score=SCORE).check(h).ok
        assert not BTEventualConsistency(score=SCORE).check(h).ok

    def test_report_describe_and_failures(self):
        h = history_with([("i", build_chain("1")), ("j", build_chain("2"))])
        report = BTStrongConsistency(score=SCORE).check(h)
        assert not report.ok
        assert "strong-prefix" in report.failures()
        assert "VIOLATED" in report.describe()

    def test_sc_implies_ec_theorem_3_1(self):
        """Theorem 3.1 on a batch of random refinement histories."""
        sc = BTStrongConsistency(score=SCORE)
        ec = BTEventualConsistency(score=SCORE)
        for seed in range(6):
            run = random_refinement_history(k=2, seed=seed, n_ops=25)
            h = run.history.purged()
            if sc.check(h).ok:
                assert ec.check(h).ok


class TestRandomRefinementHistory:
    def test_deterministic_under_seed(self):
        r1 = random_refinement_history(k=1, seed=7, n_ops=20)
        r2 = random_refinement_history(k=1, seed=7, n_ops=20)
        assert r1.refined.tree.freeze() == r2.refined.tree.freeze()
        assert len(r1.history.events) == len(r2.history.events)

    def test_k1_yields_chain(self):
        run = random_refinement_history(k=1, seed=3, n_ops=40)
        assert run.refined.tree.max_fork_degree() <= 1

    def test_k2_respects_cap(self):
        run = random_refinement_history(k=2, seed=3, n_ops=40)
        assert run.refined.tree.max_fork_degree() <= 2
        assert run.refined.check_fork_coherence()

    def test_prodigal_can_fork_wider(self):
        widths = [
            random_refinement_history(k=math.inf, seed=s, n_ops=50).refined.tree.max_fork_degree()
            for s in range(6)
        ]
        assert max(widths) >= 2

    def test_history_contains_final_reads(self):
        run = random_refinement_history(k=1, seed=3, n_procs=2, n_ops=10)
        assert all(run.history.reads_of(p) for p in ("p0", "p1"))


class TestHierarchy:
    def test_replay_frugal_into_prodigal(self):
        run = random_refinement_history(k=2, seed=11, n_ops=30)
        assert replay_appends(run, k=math.inf)

    def test_replay_k1_into_k2(self):
        run = random_refinement_history(k=1, seed=11, n_ops=30)
        assert replay_appends(run, k=2)

    def test_hierarchy_edges_all_verified(self):
        edges = hierarchy_edges(seed=500, samples=6)
        assert len(edges) == 3
        assert all(e.verified for e in edges)

    def test_hierarchy_strictness_witnesses(self):
        edges = hierarchy_edges(seed=500, samples=6)
        by_theorem = {e.theorem: e for e in edges}
        assert by_theorem["Theorem 3.3"].strict
        assert by_theorem["Theorem 3.4 (k1 ≤ k2)"].strict
