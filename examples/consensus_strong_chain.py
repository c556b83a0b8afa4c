#!/usr/bin/env python
"""Strong Prefix needs consensus — both halves of the paper's Section 4.

Part 1 (shared memory, Figures 9–11): Protocol A turns one Θ_F,k=1
oracle object into wait-free Consensus; the exhaustive model checker
certifies Agreement/Validity/Integrity over *every* interleaving for
n = 3, and the register-based attempt is shown to disagree on a concrete
schedule.

Part 2 (message passing, §5.7): a Hyperledger-style ordering service
builds a strongly consistent chain — every replica reads prefixes of one
chain, and the SC checker passes.

Run:  python examples/consensus_strong_chain.py
"""

from repro.blocktree.score import LengthScore
from repro.concurrent.modelcheck import explore
from repro.concurrent.protocol_a import build_protocol_a_system, protocol_a_validity
from repro.concurrent.register_consensus import build_register_consensus_system
from repro.consistency.criteria import BTStrongConsistency
from repro.protocols.hyperledger import run_hyperledger
from repro.workloads.scenarios import ProtocolScenario


def part1_protocol_a() -> None:
    print("== Protocol A (Figure 11): Consensus from Θ_F,k=1 ==")
    n = 3
    proposals = {f"p{i}": f"block-p{i}" for i in range(n)}

    def make():
        return build_protocol_a_system(n, seed=1, probability=1.0)

    def consensus_holds(run):
        return (
            run.agreement()
            and run.integrity()
            and run.all_correct_decided()
            and protocol_a_validity(run, proposals)
        )

    result = explore(make, consensus_holds, max_crashes=1)
    print(f"  exhaustive check, n={n}, ≤1 crash: "
          f"{result.terminal_runs} terminal runs, "
          f"{result.states_explored} states, violations: {len(result.violations)}")
    assert result.ok

    print("\n== The register-only attempt disagrees (Θ_P separation) ==")
    def make_bad():
        return build_register_consensus_system(v0=1, v1=0)

    bad = explore(make_bad, lambda r: r.agreement())
    schedule = bad.first_violation_schedule()
    print(f"  disagreement schedule found: {schedule}")
    assert not bad.ok


def part2_ordered_chain() -> None:
    print("\n== Hyperledger-style ordering service: a Strong-Prefix chain ==")
    scenario = ProtocolScenario(
        name="hyperledger", n_nodes=5, duration=200.0, round_length=15.0, seed=7
    )
    run = run_hyperledger(scenario)
    finals = run.final_chains()
    heights = {n: c.height for n, c in finals.items()}
    print(f"  final heights: {heights}")
    assert len({c.block_ids() for c in finals.values()}) == 1

    report = BTStrongConsistency(score=LengthScore()).check(run.history.purged())
    print(report.describe())
    print("\n-> Table 1, row 'Hyperledger': R(BT-ADT_SC, Θ_F,k=1).")


if __name__ == "__main__":
    part1_protocol_a()
    part2_ordered_chain()
