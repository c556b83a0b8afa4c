"""Figures 13, 14 — the Section 4 necessity and impossibility experiments.

* Figure 13 / Theorems 4.6–4.7: the Update Agreement history is rebuilt
  and verified; then the same gossip protocol is run with and without a
  message-drop adversary — drops break R3/LRC-agreement and the EC
  checker reports the Eventual-Prefix violation (LRC is necessary).
* Figure 14 / Theorem 4.8: the two-process synchronous execution from
  the proof — with a fork-allowing oracle the reads diverge (Strong
  Prefix violated), with Θ_F,k=1 they cannot; the grayed-out hierarchy
  combinations are thereby exhibited.
"""

from repro.analysis.tables import render_table
from repro.consistency.properties import check_strong_prefix
from repro.paper.experiments import (
    lemma_4_4_counterexample,
    run_experiment,
    theorem_4_7_experiment,
    theorem_4_8_execution,
)


def test_bench_fig13_update_agreement(benchmark, report):
    def experiment():
        fig13 = run_experiment("figure-13")
        lemma = lemma_4_4_counterexample()
        thm47 = theorem_4_7_experiment()
        return fig13, lemma, thm47

    fig13, lemma, thm47 = benchmark.pedantic(experiment, rounds=1, iterations=1)
    body = "\n\n".join(r.describe() for r in (fig13, lemma, thm47))
    report("Figure 13 / Theorems 4.6–4.7 — Update Agreement & LRC necessity", body)
    assert fig13.ok and lemma.ok and thm47.ok
    benchmark.extra_info["verdicts"] = {
        "figure-13": fig13.ok,
        "lemma-4.4": lemma.ok,
        "theorem-4.7": thm47.ok,
    }


def test_bench_fig14_impossibility(benchmark, report):
    def experiment():
        rows = []
        for k, label in [(1, "Θ_F,k=1"), (2, "Θ_F,k=2"), (float("inf"), "Θ_P")]:
            history = theorem_4_8_execution(k=k)
            sp = check_strong_prefix(history, history.continuation)
            appends = [op.result for op in history.appends()]
            rows.append((label, appends.count(True), "holds" if sp.ok else "VIOLATED"))
        return rows

    rows = benchmark.pedantic(experiment, rounds=1, iterations=1)
    report(
        "Figure 14 / Theorem 4.8 — Strong Prefix vs oracle, the proof's execution",
        render_table(["oracle", "successful simultaneous appends", "Strong Prefix"], rows),
    )
    verdicts = {label: verdict for label, _n, verdict in rows}
    # The gray combinations of Figure 14: any fork-allowing oracle breaks SC.
    assert verdicts["Θ_F,k=1"] == "holds"
    assert verdicts["Θ_F,k=2"] == "VIOLATED"
    assert verdicts["Θ_P"] == "VIOLATED"
    benchmark.extra_info["verdicts"] = verdicts
