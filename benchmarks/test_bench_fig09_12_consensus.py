"""Figures 9–12 — the consensus-number constructions, model-checked.

* Figures 9/10 (Theorem 4.1): Compare&Swap implemented by consumeToken
  (Θ_F,k=1) — all interleavings of 3 concurrent CAS attempts produce
  exactly one winner observing the empty previous value.
* Figure 11 (Theorem 4.2): Protocol A solves Consensus from Θ_F,k=1 —
  exhaustive for n = 2, 3 (plus crash branches); Agreement/Validity/
  Integrity/Termination on every schedule.
* Figure 12 (Theorem 4.3): the prodigal consumeToken from Atomic
  Snapshot — every process's scan contains its own token and scans chain
  under inclusion; and the register-only consensus attempt *disagrees*
  on a schedule the explorer exhibits (the separation's other half).
"""

from repro.analysis.tables import render_table
from repro.concurrent.modelcheck import explore
from repro.concurrent.objects import AtomicSnapshotObject, ConsumeTokenObject
from repro.concurrent.protocol_a import build_protocol_a_system, protocol_a_validity
from repro.concurrent.reductions import (
    CASFromConsumeToken,
    SnapshotConsumeToken,
    scans_totally_ordered,
)
from repro.concurrent.register_consensus import build_register_consensus_system
from repro.concurrent.scheduler import System


def test_bench_fig09_10_cas_from_ct(benchmark, report):
    def make():
        return System(
            objects={"ct": ConsumeTokenObject(k=1)},
            programs={
                "p0": CASFromConsumeToken("h", "a"),
                "p1": CASFromConsumeToken("h", "b"),
                "p2": CASFromConsumeToken("h", "c"),
            },
        )

    def predicate(run):
        winners = [p for p, d in run.decisions.items() if d == ()]
        if len(winners) != 1:
            return False
        winner_value = {"p0": "a", "p1": "b", "p2": "c"}[winners[0]]
        return all(
            d == (winner_value,) for p, d in run.decisions.items() if p != winners[0]
        )

    result = benchmark.pedantic(lambda: explore(make, predicate), rounds=1, iterations=1)
    report(
        "Figures 9/10 — CAS by consumeToken (Θ_F,k=1), exhaustive n=3",
        render_table(
            ["terminal runs", "states", "violations"],
            [(result.terminal_runs, result.states_explored, len(result.violations))],
        ),
    )
    assert result.ok and result.terminal_runs > 1
    benchmark.extra_info["terminal_runs"] = result.terminal_runs


def test_bench_fig11_protocol_a(benchmark, report):
    rows = []

    def full_check():
        for n, crashes in [(2, 1), (3, 0)]:
            proposals = {f"p{i}": f"block-p{i}" for i in range(n)}

            def make(n=n):
                return build_protocol_a_system(n, seed=1, probability=1.0)

            def predicate(run, proposals=proposals):
                return (
                    run.agreement()
                    and run.integrity()
                    and run.all_correct_decided()
                    and protocol_a_validity(run, proposals)
                )

            result = explore(make, predicate, max_crashes=crashes)
            rows.append(
                (n, crashes, result.terminal_runs, result.states_explored,
                 len(result.violations))
            )
        return rows

    rows = benchmark.pedantic(full_check, rounds=1, iterations=1)
    report(
        "Figure 11 / Theorem 4.2 — Protocol A: Consensus from Θ_F,k=1",
        render_table(["n", "max crashes", "terminal runs", "states", "violations"], rows),
    )
    assert all(v == 0 for *_rest, v in rows)
    benchmark.extra_info["configs"] = [(r[0], r[1]) for r in rows]


def test_bench_fig12_snapshot_ct(benchmark, report):
    def make_snapshot():
        return System(
            objects={"snap": AtomicSnapshotObject(3)},
            programs={
                f"p{i}": SnapshotConsumeToken(i, f"tkn{i}") for i in range(3)
            },
        )

    def snapshot_ok(run):
        own = all(f"tkn{p[1:]}" in d for p, d in run.decisions.items())
        return own and scans_totally_ordered(list(run.decisions.values()))

    def make_registers():
        return build_register_consensus_system(v0=1, v1=0)

    def both():
        good = explore(make_snapshot, snapshot_ok)
        bad = explore(make_registers, lambda r: r.agreement())
        return good, bad

    good, bad = benchmark.pedantic(both, rounds=1, iterations=1)
    report(
        "Figure 12 / Theorem 4.3 — Θ_P from Atomic Snapshot; registers disagree",
        render_table(
            ["experiment", "terminal runs", "violations"],
            [
                ("snapshot consumeToken (prodigal)", good.terminal_runs, len(good.violations)),
                ("register-only consensus attempt", bad.terminal_runs, len(bad.violations)),
            ],
        ),
    )
    assert good.ok                     # the Figure 12 construction is correct
    assert not bad.ok                  # and registers alone cannot agree
    assert bad.first_violation_schedule() is not None
    benchmark.extra_info["register_violation"] = " ".join(
        bad.first_violation_schedule()
    )
