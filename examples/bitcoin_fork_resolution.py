#!/usr/bin/env python
"""Bitcoin under contention: forks, convergence, and why it is EC not SC.

Runs the §5.1 Bitcoin model (proof-of-work race → prodigal oracle,
heaviest-work selection, flooding gossip) in a deliberately contended
regime (fast blocks, slow network), then reports:

* fork rate and the deepest transient divergence;
* per-block convergence lag (the "finite interval" of Eventual Prefix);
* chain quality vs. hash-power share;
* the SC and EC checker verdicts with the SC counterexample.

Run:  python examples/bitcoin_fork_resolution.py
"""

from repro.analysis.metrics import (
    chain_quality,
    convergence_lags,
    divergence_depth,
    fork_rate,
)
from repro.analysis.tables import render_table
from repro.blocktree.score import LengthScore
from repro.consistency.criteria import BTEventualConsistency, BTStrongConsistency
from repro.protocols.bitcoin import run_bitcoin
from repro.workloads.scenarios import ProtocolScenario


def main() -> None:
    scenario = ProtocolScenario(
        name="bitcoin",
        n_nodes=5,
        duration=400.0,
        mean_block_interval=10.0,
        channel_delta=3.0,
        merits=(0.4, 0.25, 0.2, 0.1, 0.05),
        seed=2024,
    )
    print("Running Bitcoin:", scenario.n_nodes, "miners,",
          f"~{scenario.mean_block_interval}s blocks, δ={scenario.channel_delta}s network")
    run = run_bitcoin(scenario)

    final = run.final_chains()
    tips = {c.tip.block_id for c in final.values()}
    print(f"\nFinal chain height: {final['p0'].height}; "
          f"replicas agree on tip: {len(tips) == 1}")

    print(f"Fork rate: {fork_rate(run):.3f} "
          f"(max fork degree {run.max_fork_degree()})")
    print(f"Deepest transient divergence observed by a read: "
          f"{divergence_depth(run)} block(s)")
    lags = convergence_lags(run)
    if lags:
        print(f"Block convergence lag: mean {sum(lags)/len(lags):.2f}s, "
              f"max {max(lags):.2f}s (network δ = {scenario.channel_delta}s)")

    print("\nChain quality (share of main-chain blocks vs hash power):")
    shares = chain_quality(run)
    rows = [
        (name, f"{scenario.merit_of(int(name[1:])):.2f}", f"{share:.2f}")
        for name, share in shares.items()
    ]
    print(render_table(["miner", "hash power", "chain share"], rows))

    score = LengthScore()
    history = run.history.purged()
    sc = BTStrongConsistency(score=score).check(history)
    ec = BTEventualConsistency(score=score).check(history)
    print()
    print(sc.describe())
    print(ec.describe())
    print("\n-> Table 1, row 'Bitcoin': R(BT-ADT_EC, Θ_P) — eventual, not strong.")


if __name__ == "__main__":
    main()
