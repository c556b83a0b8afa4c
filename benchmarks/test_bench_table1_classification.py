"""Table 1 — mapping of existing systems, regenerated by measurement.

Runs all seven systems in the simulator and classifies each from its
recorded history (fork counting + SC/EC checkers).  The asserted shape is
the paper's table: Bitcoin and Ethereum land on R(BT-ADT_EC, Θ_P); the
five consensus-gated systems land on R(BT-ADT_SC, Θ_F,k=1).
"""

from dataclasses import replace

from repro.analysis.tables import render_table
from repro.protocols.classify import classify_all
from repro.workloads.scenarios import default_scenarios

EXPECTED = {
    "bitcoin": "R(BT-ADT_EC, Θ_P)",
    "ethereum": "R(BT-ADT_EC, Θ_P)",
    "algorand": "R(BT-ADT_SC, Θ_F,k=1)",
    "byzcoin": "R(BT-ADT_SC, Θ_F,k=1)",
    "peercensus": "R(BT-ADT_SC, Θ_F,k=1)",
    "redbelly": "R(BT-ADT_SC, Θ_F,k=1)",
    "hyperledger": "R(BT-ADT_SC, Θ_F,k=1)",
}


def test_bench_table1_classification(benchmark, report):
    scenarios = {
        name: replace(s, duration=min(s.duration, 250.0))
        for name, s in default_scenarios().items()
    }
    rows = benchmark.pedantic(lambda: classify_all(scenarios), rounds=1, iterations=1)
    table = [
        (
            r.protocol,
            r.oracle_declared,
            r.max_fork_degree,
            "✓" if r.sc_ok else "✗",
            "✓" if r.ec_ok else "✗",
            r.measured_refinement,
            r.expected_refinement,
            "yes" if r.matches_paper else "NO",
        )
        for r in rows
    ]
    report(
        "Table 1 — Mapping of existing systems (measured vs paper)",
        render_table(
            ["system", "oracle", "forks", "SC", "EC", "measured", "paper", "match"],
            table,
        ),
    )
    for r in rows:
        assert r.measured_refinement == EXPECTED[r.protocol], (
            f"{r.protocol}: measured {r.measured_refinement}, "
            f"paper says {EXPECTED[r.protocol]} — SC failures: {r.sc_failures}"
        )
        assert r.matches_paper
    # Shape assertions beyond the verdicts: PoW systems actually forked,
    # consensus systems never did.
    by_name = {r.protocol: r for r in rows}
    assert by_name["bitcoin"].max_fork_degree > 1
    assert by_name["ethereum"].max_fork_degree > 1
    for committee in ("algorand", "byzcoin", "peercensus", "redbelly", "hyperledger"):
        assert by_name[committee].max_fork_degree == 1
    benchmark.extra_info["matches"] = sum(r.matches_paper for r in rows)
