"""Ablation — selection function ``f``: longest vs heaviest vs GHOST.

The paper leaves ``f`` generic "to suit the different blockchain
implementations"; this ablation quantifies what the choice changes on the
same mining workload: fork resolution (divergence depth), convergence
lag and chain growth.  The expected shape: all three converge (EC holds
either way), and GHOST tracks heaviest-work closely on these narrow
trees, while the fork *resolution dynamics* differ only in degree — the
consistency verdicts are invariant to ``f``.
"""

from repro.analysis.metrics import divergence_depth, fork_rate
from repro.analysis.tables import render_table
from repro.blocktree.score import LengthScore
from repro.blocktree.selection import GHOSTSelection, HeaviestChain, LongestChain
from repro.consistency.criteria import BTEventualConsistency
from repro.protocols.base import ProtocolRun
from repro.protocols.bitcoin import BitcoinNode
from repro.workloads.scenarios import ProtocolScenario


def run_with_selection(selection_cls, seed=21):
    scenario = ProtocolScenario(
        name="bitcoin",
        duration=250.0,
        mean_block_interval=8.0,
        channel_delta=3.0,
        seed=seed,
    )

    class Node(BitcoinNode):
        def __init__(self, name, sc):
            super().__init__(name, sc)
            self.selection = selection_cls()

    return ProtocolRun.execute(Node, scenario)


def sweep():
    rows = []
    for cls in (LongestChain, HeaviestChain, GHOSTSelection):
        run = run_with_selection(cls)
        ec = BTEventualConsistency(score=LengthScore()).check(run.history.purged())
        finals = run.final_chains()
        converged = len({c.tip.block_id for c in finals.values()}) == 1
        rows.append(
            (
                cls().name,
                f"{fork_rate(run):.3f}",
                divergence_depth(run),
                finals["p0"].height,
                "yes" if converged else "NO",
                "✓" if ec.ok else "✗",
            )
        )
    return rows


def test_bench_ablation_selection(benchmark, report):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(
        "Ablation — selection function f on the same PoW workload",
        render_table(
            ["f", "fork rate", "divergence depth", "height", "converged", "EC"],
            rows,
        ),
    )
    # Shape: every selection converges and satisfies EC.
    assert all(r[4] == "yes" for r in rows)
    assert all(r[5] == "✓" for r in rows)
    benchmark.extra_info["rows"] = [r[0] for r in rows]
