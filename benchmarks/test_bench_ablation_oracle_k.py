"""Ablation — the oracle cap ``k``: fork width and Strong Prefix verdicts.

Sweeps Θ_F,k over k ∈ {1, 2, 3, 5, ∞} on the randomized refinement
workload (processes appending onto stale views) and reports the realized
maximum fork degree, the k-Fork-Coherence verdict, and the SC checker's
Strong-Prefix verdict.  The paper's shape: k = 1 is the *only* cap that
yields fork-free (hence potentially strongly consistent) histories —
Theorem 4.8 / Corollary 4.8.1 in sweep form.
"""

import math

from repro.analysis.tables import render_table
from repro.consistency.hierarchy import random_refinement_history
from repro.consistency.properties import check_k_fork_coherence, check_strong_prefix


def sweep(samples=6):
    rows = []
    for k in (1, 2, 3, 5, math.inf):
        widths, sp_failures, coherence_ok = [], 0, True
        for seed in range(samples):
            run = random_refinement_history(k=k, seed=1000 + seed, n_ops=40, n_procs=4)
            widths.append(run.refined.tree.max_fork_degree())
            history = run.history.purged()
            if not check_strong_prefix(history, history.continuation).ok:
                sp_failures += 1
            parents = {
                b.block_id: b.parent_id
                for b in run.refined.tree.blocks()
                if not b.is_genesis
            }
            if k != math.inf and not check_k_fork_coherence(
                history, k=k, parent_of=parents
            ).ok:
                coherence_ok = False
        rows.append(
            (
                "∞" if k == math.inf else k,
                max(widths),
                "✓" if coherence_ok else "✗",
                f"{sp_failures}/{samples}",
            )
        )
    return rows


def test_bench_ablation_oracle_k(benchmark, report):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(
        "Ablation — oracle cap k vs fork width and Strong Prefix (6 runs each)",
        render_table(
            ["k", "max fork degree", "k-fork coherence", "SP violations"], rows
        ),
    )
    by_k = {str(r[0]): r for r in rows}
    # k = 1 never forks and never violates Strong Prefix.
    assert by_k["1"][1] == 1 and by_k["1"][3] == "0/6"
    # Fork width never exceeds k (Theorem 3.2) and grows with k.
    assert by_k["2"][1] <= 2 and by_k["3"][1] <= 3 and by_k["5"][1] <= 5
    assert all(r[2] == "✓" for r in rows)
    # Some fork-allowing cap produced a Strong Prefix violation.
    assert any(r[3] != "0/6" for r in rows[1:])
    benchmark.extra_info["rows"] = [tuple(map(str, r)) for r in rows]
