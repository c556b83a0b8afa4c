"""Tests for the paper's figure histories and theorem experiments."""


from repro.blocktree.score import LengthScore
from repro.consistency.criteria import BTEventualConsistency, BTStrongConsistency
from repro.consistency.properties import check_strong_prefix
from repro.paper.experiments import (
    EXPERIMENTS,
    lemma_4_4_counterexample,
    run_experiment,
    theorem_4_7_experiment,
    theorem_4_8_execution,
    theorem_4_8_report,
)
from repro.paper.figures import (
    figure13_history,
    figure2_history,
    figure3_history,
    figure4_history,
)

SCORE = LengthScore()


class TestFigure2:
    def test_satisfies_sc(self):
        report = BTStrongConsistency(score=SCORE).check(figure2_history())
        assert report.ok, report.describe()

    def test_satisfies_ec_by_theorem_3_1(self):
        assert BTEventualConsistency(score=SCORE).check(figure2_history()).ok

    def test_reads_match_paper_shape(self):
        h = figure2_history()
        lengths_i = [len(h.returned_chain(r)) - 1 for r in h.reads_of("i")]
        assert lengths_i == [2, 3, 4]


class TestFigure3:
    def test_violates_strong_prefix_exactly(self):
        h = figure3_history()
        report = BTStrongConsistency(score=SCORE).check(h)
        assert not report.ok
        assert not report.checks["strong-prefix"].ok
        # All other SC properties hold.
        assert report.checks["block-validity"].ok
        assert report.checks["local-monotonic-read"].ok
        assert report.checks["ever-growing-tree"].ok

    def test_satisfies_ec(self):
        report = BTEventualConsistency(score=SCORE).check(figure3_history())
        assert report.ok, report.describe()

    def test_witness_names_the_incomparable_chains(self):
        h = figure3_history()
        sp = check_strong_prefix(h, h.continuation)
        assert "diverging" in sp.witness


class TestFigure4:
    def test_violates_both_criteria(self):
        h = figure4_history()
        assert not BTStrongConsistency(score=SCORE).check(h).ok
        ec = BTEventualConsistency(score=SCORE).check(h)
        assert not ec.ok
        assert not ec.checks["eventual-prefix"].ok

    def test_ever_growing_tree_still_holds(self):
        """Both processes grow forever — only the prefix properties fail."""
        ec = BTEventualConsistency(score=SCORE).check(figure4_history())
        assert ec.checks["ever-growing-tree"].ok
        assert ec.checks["local-monotonic-read"].ok


class TestFigure13:
    def test_update_agreement_holds(self):
        from repro.net.broadcast import check_update_agreement

        checks = check_update_agreement(
            figure13_history(), correct_procs=["i", "j", "k"]
        )
        assert all(c.ok for c in checks.values())


class TestLemma44:
    def test_counterexample_violates_eventual_prefix(self):
        report = lemma_4_4_counterexample()
        assert report.ok, report.describe()


class TestTheorem47:
    def test_lrc_necessity(self):
        report = theorem_4_7_experiment()
        assert report.ok, report.describe()


class TestTheorem48:
    def test_fork_oracle_violates_strong_prefix(self):
        h = theorem_4_8_execution(k=2)
        assert not check_strong_prefix(h, h.continuation).ok

    def test_k1_oracle_preserves_strong_prefix(self):
        h = theorem_4_8_execution(k=1)
        assert check_strong_prefix(h, h.continuation).ok

    def test_k1_rejects_one_simultaneous_append(self):
        h = theorem_4_8_execution(k=1)
        results = [op.result for op in h.appends()]
        assert sorted(results) == [False, True]

    def test_full_report(self):
        assert theorem_4_8_report().ok

    def test_prodigal_also_violates(self):
        import math

        h = theorem_4_8_execution(k=math.inf)
        assert not check_strong_prefix(h, h.continuation).ok


class TestRegistry:
    def test_all_experiments_pass(self):
        for eid in EXPERIMENTS:
            report = run_experiment(eid)
            assert report.ok, report.describe()

    def test_describe_renders(self):
        text = run_experiment("figure-3").describe()
        assert "figure-3" in text and "✓" in text

    def test_registry_covers_section4(self):
        assert {"lemma-4.4", "theorem-4.7", "theorem-4.8"} <= set(EXPERIMENTS)
