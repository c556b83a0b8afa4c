"""Sharding gates: K-scaling and cross-shard atomicity under faults.

Not a paper figure — these gate the ``repro.shard`` layer (K
sub-community chains per replica with two-phase cross-shard transfers):

* **scaling gate** — the shard-uniform workload (5% cross-shard) swept
  over K ∈ {1, 2, 4, 8} on 8 replicas.  Each shard chain runs at the
  scenario's block tempo, so aggregate committed throughput must scale
  near-linearly: K=8 must clear ``0.7 × 8 ×`` the K=1 rate, and every
  sharded cell must compose atomically (zero violations).
* **atomicity gate** — K=4 under partition / churn / crash fault
  presets on both gossip transports: the composed cross-shard verdict
  must report zero atomicity violations (timeout-driven aborts and
  still-pending pipelines are fine; a LOCK that neither commits nor
  aborts, double-decides or leaks value is not).

K=1 ≡ single chain (``tests/test_shard_property.py``) and serial ≡
parallel shard campaigns (``tests/test_campaign.py``) are tier-1 tests.
"""

import dataclasses
import json

from repro.shard.run import execute_sharded
from repro.workloads.scenarios import ProtocolScenario, adversarial_scenarios
from repro.workloads.traffic import shard_traffic_presets

_DURATION = 240.0

_SWEEP = (1, 2, 4, 8)
_SCALING_GATE = 0.7  # K=8 aggregate tx/s vs 8 × the K=1 rate
_FAULT_PRESETS = ("partition-heal", "node-churn", "crash-rejoin")


def _sweep_scenario(shards: int) -> ProtocolScenario:
    """The shard-uniform workload at one K (rate is per shard)."""
    traffic = shard_traffic_presets(_DURATION, n_shards=shards)["shard-uniform"]
    return ProtocolScenario(
        name=f"shard-sweep-{shards}",
        n_nodes=8,
        duration=_DURATION,
        mean_block_interval=12.0,
        shards=shards,
        traffic=traffic,
    )


def test_bench_shard_scaling(report):
    """Gate: K=8 aggregate tx/s ≥ 0.7 × (8 × K=1), zero violations."""
    rows = []
    for shards in _SWEEP:
        run = execute_sharded(_sweep_scenario(shards))
        if shards == 1:
            stats = run.mempool_stats()
            row = {
                "shards": 1,
                "duration": _DURATION,
                "committed_txs": stats["committed"]["txs"],
                "tx_per_s": round(stats["committed"]["tx_per_s"], 4),
                "cross_shard": None,
                "atomicity_ok": True,
            }
        else:
            stats = run.shard_stats()
            row = {
                "shards": shards,
                "duration": _DURATION,
                "committed_txs": stats["aggregate"]["committed_txs"],
                "tx_per_s": round(stats["aggregate"]["tx_per_s"], 4),
                "cross_shard": stats["aggregate"]["cross_shard"],
                "atomicity_ok": stats["atomicity"]["ok"],
            }
        rows.append(row)
    report(
        "Aggregate committed throughput over the K sweep "
        f"(gate: K=8 ≥ {_SCALING_GATE} × 8 × K=1, every cell atomic)",
        json.dumps(rows, indent=2),
    )
    by_k = {row["shards"]: row for row in rows}
    for row in rows:
        assert row["committed_txs"] > 0, f"K={row['shards']} committed nothing"
        assert row["atomicity_ok"], f"K={row['shards']} violated atomicity"
    assert by_k[8]["tx_per_s"] >= _SCALING_GATE * 8 * by_k[1]["tx_per_s"], (
        f"K=8 at {by_k[8]['tx_per_s']} tx/s misses the "
        f"{_SCALING_GATE} × 8 × {by_k[1]['tx_per_s']} scaling gate"
    )
    # Cross-shard traffic actually ran: the sweep is not a degenerate
    # all-local workload.
    assert by_k[8]["cross_shard"]["locks"] > 0


def test_bench_cross_shard_atomicity(report):
    """Gate: zero violations under partition/churn/crash, both transports."""
    presets = adversarial_scenarios(n_nodes=4, duration=_DURATION)
    base = presets["shard-uniform"]
    rows = []
    for fault in _FAULT_PRESETS:
        fault_preset = presets[fault]
        for gossip in ("flood", "reconcile"):
            scenario = dataclasses.replace(
                base,
                name=f"shard-{fault}",
                gossip=gossip,
                partitions=fault_preset.partitions,
                churn=fault_preset.churn,
                crashes=fault_preset.crashes,
            )
            run = execute_sharded(scenario)
            stats = run.shard_stats()
            rows.append(
                {
                    "fault": fault,
                    "transport": gossip,
                    "shards": scenario.shards,
                    "duration": _DURATION,
                    "committed_txs": stats["aggregate"]["committed_txs"],
                    "cross_shard": stats["aggregate"]["cross_shard"],
                    "violations": stats["atomicity"]["violations"],
                    "ok": stats["atomicity"]["ok"],
                }
            )
    report(
        "Composed cross-shard atomicity under faults "
        "(gate: zero violations on every fault × transport cell)",
        json.dumps(rows, indent=2),
    )
    for row in rows:
        assert row["ok"] and not row["violations"], (
            f"{row['fault']}/{row['transport']}: {row['violations']}"
        )
        assert row["committed_txs"] > 0, f"{row['fault']} committed nothing"
        assert row["cross_shard"]["locks"] > 0, f"{row['fault']} issued no locks"
