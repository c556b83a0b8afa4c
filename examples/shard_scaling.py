#!/usr/bin/env python
"""Aggregate throughput scaling across sharded sub-community chains.

One blocktree is one BT-ADT; ``repro.shard`` runs K of them side by
side — users PRF-hashed to shards, every replica running one full
chain/mempool/UTXO facet per shard, and 5% of transfers
crossing shards through the two-phase LOCK → COMMIT/ABORT → RELEASE
protocol carried inside ordinary block payloads.

This example sweeps K ∈ {1, 2, 4, 8} on 8 replicas under the uniform
sharded workload (the ``shard-uniform`` campaign preset; the client
rate is *per shard*, so the offered load scales with K too) and prints
the aggregate committed tx/s curve next to the cross-shard
lock/commit/abort counters.  Because each shard chain runs at the full
block tempo, throughput should scale near-linearly — the gate in
``benchmarks/test_bench_shard.py`` requires K=8 to clear 0.7× ideal — while the
composed atomicity check stays clean at every K.

Run:  python examples/shard_scaling.py          (four runs, ~seconds)
      python examples/shard_scaling.py --full   (the benched horizon)
"""

import sys

from repro.shard.run import execute_sharded
from repro.workloads.scenarios import ProtocolScenario
from repro.workloads.traffic import shard_traffic_presets


def run_sweep_point(shards: int, duration: float):
    """One K: (committed txs, tx/s, cross-shard counters, atomicity ok)."""
    traffic = shard_traffic_presets(duration, n_shards=shards)["shard-uniform"]
    scenario = ProtocolScenario(
        name=f"shard-sweep-{shards}",
        n_nodes=8,
        duration=duration,
        mean_block_interval=12.0,
        shards=shards,
        traffic=traffic,
    )
    run = execute_sharded(scenario)
    if shards == 1:
        committed = run.mempool_stats()["committed"]
        return committed["txs"], committed["tx_per_s"], None, True
    stats = run.shard_stats()
    aggregate = stats["aggregate"]
    return (
        aggregate["committed_txs"],
        aggregate["tx_per_s"],
        aggregate["cross_shard"],
        stats["atomicity"]["ok"],
    )


def main(duration: float = 180.0) -> None:
    print(f"Sharded Bitcoin, 8 replicas, {duration:.0f} time units, "
          "shard-uniform traffic (5% cross-shard)\n")
    header = (
        f"{'K':>2} {'committed':>9} {'tx/s':>7} {'vs K=1':>7} "
        f"{'locks':>6} {'commits':>8} {'aborts':>7} {'abort rate':>10} "
        f"{'atomic':>7}"
    )
    print(header)
    print("-" * len(header))
    baseline = None
    for shards in (1, 2, 4, 8):
        txs, tps, cross, atomic = run_sweep_point(shards, duration)
        if baseline is None:
            baseline = tps or 1.0
        if cross is None:
            locks = commits = aborts = "-"
            abort_rate = "-"
        else:
            locks, commits, aborts = (
                cross["locks"], cross["commits"], cross["aborts"],
            )
            abort_rate = f"{cross['abort_rate']:.2f}"
        print(
            f"{shards:>2} {txs:>9} {tps:>7.3f} {tps / baseline:>6.1f}x "
            f"{locks:>6} {commits:>8} {aborts:>7} {abort_rate:>10} "
            f"{'yes' if atomic else 'NO':>7}"
        )
    print()
    print(
        "Each shard chain keeps the full block tempo, so aggregate "
        "committed throughput grows with K while every cross-shard "
        "transfer still settles atomically (locks either commit on the "
        "destination shard or time out, abort, and release the escrow)."
    )


if __name__ == "__main__":
    main(duration=240.0 if "--full" in sys.argv else 180.0)
