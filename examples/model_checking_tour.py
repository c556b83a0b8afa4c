#!/usr/bin/env python
"""A tour of the exhaustive model checker (Section 4.1's engine).

Shows the three kinds of verdicts the explorer produces on the paper's
shared-memory constructions:

1. **certification** — Protocol A (Fig. 11) and the CAS reduction
   (Fig. 10) hold on every interleaving;
2. **counterexample** — the register-only consensus attempt disagrees,
   and the explorer prints the exact schedule;
3. **boundary** — the snapshot-based prodigal consume (Fig. 12) is
   correct, yet k-capped behaviour is impossible for it: we show the
   first-scan/last-scan spread across schedules.

Run:  python examples/model_checking_tour.py
"""

from repro.concurrent.modelcheck import explore
from repro.concurrent.objects import AtomicSnapshotObject
from repro.concurrent.protocol_a import build_protocol_a_system
from repro.concurrent.reductions import SnapshotConsumeToken
from repro.concurrent.register_consensus import build_register_consensus_system
from repro.concurrent.scheduler import System


def certify_protocol_a() -> None:
    print("== 1. Certify: Protocol A over all schedules (n=3) ==")

    def make():
        return build_protocol_a_system(3, seed=1, probability=1.0)

    result = explore(make, lambda r: r.agreement() and r.integrity())
    print(f"  states explored: {result.states_explored}")
    print(f"  terminal runs:   {result.terminal_runs}")
    print(f"  violations:      {len(result.violations)}   -> consensus certified")
    assert result.ok


def counterexample_registers() -> None:
    print("\n== 2. Counterexample: consensus from registers alone ==")

    def make():
        return build_register_consensus_system(v0=1, v1=0)

    result = explore(make, lambda r: r.agreement())
    schedule, run = result.violations[0]
    print(f"  violating schedule: {' -> '.join(schedule)}")
    print(f"  decisions:          {run.decisions}")
    print("  -> the bivalence the Θ_P consensus-number-1 result predicts")
    assert not result.ok


def boundary_snapshot() -> None:
    print("\n== 3. Boundary: snapshot consume is prodigal by nature ==")

    def make():
        return System(
            objects={"snap": AtomicSnapshotObject(3)},
            programs={f"p{i}": SnapshotConsumeToken(i, f"tkn{i}") for i in range(3)},
        )

    sizes = set()

    def observe(run):
        for decided in run.decisions.values():
            sizes.add(len(decided))
        return True

    explore(make, observe)
    print(f"  observed scan sizes across all schedules: {sorted(sizes)}")
    print("  -> every token is always stored (k = ∞): no schedule caps the set,")
    print("     which is exactly why Θ_P cannot gate forks (Theorem 4.8).")


if __name__ == "__main__":
    certify_protocol_a()
    counterexample_registers()
    boundary_snapshot()
