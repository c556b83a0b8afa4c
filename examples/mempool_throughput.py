#!/usr/bin/env python
"""Transaction throughput under steady client traffic vs a spam flood.

The transaction pipeline (client → pool → gossip → packer → chain →
reap) gives every protocol run a throughput axis: committed tx/sec,
confirmation latency, pool occupancy.  This example drives the same
Bitcoin model with two client-traffic presets and shows how they
diverge:

* ``steady`` — honest open-loop load; the pool stays shallow and
  confirmation latency tracks the block interval;
* ``spam-flood`` — half the submissions are zero-fee double-spending
  duplicates; replicas filter and evict them, honest transactions still
  commit, but pool pressure and confirmation latency rise.

Run:  python examples/mempool_throughput.py          (two runs, ~seconds)
      python examples/mempool_throughput.py --full   (longer horizon)
"""

import sys

from repro.protocols.bitcoin import run_bitcoin
from repro.workloads.scenarios import ProtocolScenario
from repro.workloads.traffic import traffic_presets


def run_preset(preset: str, duration: float):
    scenario = ProtocolScenario(
        name=f"bitcoin-{preset}",
        n_nodes=4,
        duration=duration,
        mean_block_interval=10.0,
        tx_per_block=6,
        traffic=traffic_presets()[preset],
    )
    return run_bitcoin(scenario).mempool_stats()


def main(duration: float = 240.0) -> None:
    rows = []
    for preset in ("steady", "spam-flood"):
        stats = run_preset(preset, duration)
        committed = stats["committed"]
        pools = stats["per_node"].values()
        rows.append(
            (
                preset,
                committed["txs"],
                committed["tx_per_s"],
                committed["latency"]["p50"],
                committed["latency"]["p90"],
                sum(n["rejected_invalid"] + n["rejected_duplicate"] for n in pools),
                sum(n["evicted"] for n in pools),
                max(n["peak_occupancy"] for n in pools),
                stats["duplicate_relay_ratio"],
            )
        )
    header = (
        f"{'preset':<12} {'committed':>9} {'tx/s':>7} {'lat p50':>8} "
        f"{'lat p90':>8} {'rejected':>8} {'evicted':>8} {'peak pool':>9} "
        f"{'dup relay':>9}"
    )
    print(f"Bitcoin, {duration:.0f} time units of client traffic\n")
    print(header)
    print("-" * len(header))
    for name, txs, tps, p50, p90, rejected, evicted, peak, dup in rows:
        print(
            f"{name:<12} {txs:>9} {tps:>7.2f} {p50:>8.1f} {p90:>8.1f} "
            f"{rejected:>8} {evicted:>8} {peak:>9} {dup:>9.2f}"
        )
    steady, spam = rows
    print()
    print(
        f"spam flood: {spam[5]} transactions rejected and {spam[6]} evicted "
        f"across replicas while honest throughput stays within "
        f"{abs(spam[2] - steady[2]) / steady[2]:.0%} of steady"
        if steady[2]
        else ""
    )


if __name__ == "__main__":
    main(duration=480.0 if "--full" in sys.argv else 240.0)
