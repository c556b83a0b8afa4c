#!/usr/bin/env python
"""Regenerate the paper's Table 1 by measurement.

Runs all seven systems (Bitcoin, Ethereum, Algorand, ByzCoin, PeerCensus,
Red Belly, Hyperledger Fabric) in the discrete-event simulator, records
their BT-ADT histories, and classifies each by what the consistency
checkers and fork counters actually observe — then compares against the
paper's stated classification.

Run:  python examples/classify_protocols.py          (full scenarios, ~1 min)
      python examples/classify_protocols.py --quick  (shorter runs)
"""

import sys

from repro.analysis.tables import render_table
from repro.protocols.classify import classify_all
from repro.workloads.scenarios import default_scenarios


def main(quick: bool = False) -> None:
    scenarios = default_scenarios()
    if quick:
        from dataclasses import replace

        scenarios = {k: replace(s, duration=s.duration / 2) for k, s in scenarios.items()}
    rows = classify_all(scenarios)
    table_rows = [
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
    print(
        render_table(
            [
                "system",
                "oracle",
                "max forks",
                "SC",
                "EC",
                "measured",
                "paper (Table 1)",
                "match",
            ],
            table_rows,
            title="Table 1 — Mapping of existing systems (measured)",
        )
    )
    matches = sum(r.matches_paper for r in rows)
    print(f"\n{matches}/{len(rows)} systems classified exactly as the paper's Table 1.")


if __name__ == "__main__":
    main(quick="--quick" in sys.argv)
