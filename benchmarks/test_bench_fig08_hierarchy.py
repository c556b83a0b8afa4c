"""Figure 8 — the hierarchy of refinements, verified by experiment.

Regenerates the containment diagram: Theorem 3.1 (SC ⊆ EC, strict),
Theorem 3.3 (frugal ⊆ prodigal, strict), Theorem 3.4 (k-monotone,
strict).  Each edge is checked on sampled histories (replay-based
inclusion + witness-based strictness) exactly as described in
repro.consistency.hierarchy.
"""

from repro.analysis.tables import render_table
from repro.consistency.hierarchy import hierarchy_edges


def test_bench_fig08_hierarchy(benchmark, report):
    edges = benchmark.pedantic(
        lambda: hierarchy_edges(seed=2024, samples=8), rounds=1, iterations=1
    )
    rows = [
        (e.subset, "⊆", e.superset, e.theorem,
         "verified" if e.verified else "FAILED",
         "strict" if e.strict else "–")
        for e in edges
    ]
    report(
        "Figure 8 — R(BT-ADT, Θ) hierarchy (inclusion edges, measured)",
        render_table(["subset", "", "superset", "theorem", "inclusion", "strictness"], rows),
    )
    assert all(e.verified for e in edges)
    # Strictness witnesses exist for the oracle-cap edges.
    by_theorem = {e.theorem: e for e in edges}
    assert by_theorem["Theorem 3.3"].strict
    assert by_theorem["Theorem 3.4 (k1 ≤ k2)"].strict
    benchmark.extra_info["edges"] = [e.theorem for e in edges]
