"""Algorand's "SC w.h.p." annotation — agreement under desynchronization.

Table 1 marks Algorand ``R(BT-ADT_SC, Θ_F,k=1) SC w.h.p.``: BA* commits a
unique block per round only when the network is strongly synchronous for
its step structure.  The bench sweeps the BA* step time against a fixed
network delay and reports, per configuration over several seeds: rounds
decided, liveness stalls, and safety violations (disagreements).

Expected shape: with λ ≫ δ every round decides and replicas agree
(SC behaviour); as λ shrinks below the network delay, *liveness* degrades
(rounds stall and retry) while disagreements remain rare-to-absent —
Algorand loses progress, not safety, in our crash-free runs.
"""

from repro.analysis.tables import render_table
from repro.protocols.algorand import run_algorand
from repro.workloads.scenarios import ProtocolScenario


def sweep(seeds=(1, 2, 3)):
    rows = []
    for round_length, label in [(25.0, "λ=5δ (sync)"), (10.0, "λ=2δ"), (4.0, "λ<δ (desync)")]:
        decided, stalls, disagreements = 0, 0, 0
        for seed in seeds:
            scenario = ProtocolScenario(
                name="algorand",
                round_length=round_length,
                channel_delta=2.5,
                duration=150.0,
                seed=seed,
            )
            run = run_algorand(scenario)
            finals = run.final_chains()
            heights = {c.height for c in finals.values()}
            tips = {c.tip.block_id for c in finals.values()}
            rounds_attempted = int(scenario.duration / round_length)
            decided += min(heights)
            stalls += max(rounds_attempted - max(heights), 0)
            if len(tips) > 1:
                disagreements += 1
        rows.append((label, round_length, decided, stalls, disagreements))
    return rows


def test_bench_algorand_whp(benchmark, report):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(
        "Algorand 'SC w.h.p.' — BA* step time vs progress and agreement "
        "(3 seeds per row)",
        render_table(
            ["regime", "round length", "blocks decided", "stalled rounds",
             "disagreements"],
            rows,
        ),
    )
    sync_row, _, desync_row = rows
    # Shape: synchronous rounds decide essentially every round and never
    # disagree; desynchronized rounds lose throughput.
    assert sync_row[4] == 0
    assert sync_row[2] > 0
    per_round_sync = sync_row[2] / (150.0 / sync_row[1])
    per_round_desync = desync_row[2] / (150.0 / desync_row[1])
    assert per_round_desync < per_round_sync
    benchmark.extra_info["rows"] = [tuple(map(str, r)) for r in rows]
