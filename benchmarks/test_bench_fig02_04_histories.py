"""Figures 2, 3, 4 — the paper's three example histories, judged.

Regenerates each history block-for-block and checks the verdict matrix
the paper states:

==========  ===========  ===========
history     Strong (SC)  Eventual (EC)
==========  ===========  ===========
Figure 2    satisfied    satisfied
Figure 3    violated     satisfied
Figure 4    violated     violated
==========  ===========  ===========
"""

from repro.blocktree.score import LengthScore
from repro.consistency.criteria import BTEventualConsistency, BTStrongConsistency
from repro.paper.figures import figure2_history, figure3_history, figure4_history

SCORE = LengthScore()


def judge(history):
    sc = BTStrongConsistency(score=SCORE).check(history)
    ec = BTEventualConsistency(score=SCORE).check(history)
    return sc, ec


def test_bench_fig02_strong_history(benchmark, report):
    sc, ec = benchmark(lambda: judge(figure2_history()))
    report("Figure 2 — history satisfying BT Strong consistency",
           sc.describe() + "\n" + ec.describe())
    assert sc.ok and ec.ok
    benchmark.extra_info["SC"] = sc.ok
    benchmark.extra_info["EC"] = ec.ok


def test_bench_fig03_eventual_history(benchmark, report):
    sc, ec = benchmark(lambda: judge(figure3_history()))
    report("Figure 3 — history in EC \\ SC (fork, then convergence)",
           sc.describe() + "\n" + ec.describe())
    assert not sc.ok and ec.ok
    assert not sc.checks["strong-prefix"].ok  # the exact failing clause
    benchmark.extra_info["SC"] = sc.ok
    benchmark.extra_info["EC"] = ec.ok


def test_bench_fig04_no_consistency(benchmark, report):
    sc, ec = benchmark(lambda: judge(figure4_history()))
    report("Figure 4 — history satisfying no BT consistency criterion",
           sc.describe() + "\n" + ec.describe())
    assert not sc.ok and not ec.ok
    assert not ec.checks["eventual-prefix"].ok
    # Both processes keep growing: Ever-Growing Tree itself holds.
    assert ec.checks["ever-growing-tree"].ok
    benchmark.extra_info["SC"] = sc.ok
    benchmark.extra_info["EC"] = ec.ok
