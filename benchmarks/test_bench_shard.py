"""Sharding acceptance gates: K-scaling, atomicity, identity, determinism.

Not a paper figure — these gate the ``repro.shard`` layer (K
sub-community chains per replica with two-phase cross-shard transfers)
and populate ``BENCH_shard.json`` (schema registered in
:mod:`repro.analysis.bench_schema`, documented in
``docs/benchmarks.md``, regenerated by ``make bench-shard``):

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
* **identity gate** — ``execute_sharded`` at K=1 must reproduce the
  single-chain Bitcoin pipeline byte-identically (same committed block
  ids at every replica as ``ProtocolRun.execute``).
* **determinism gate** — the shard campaign presets run serially and
  on a worker pool produce identical matrices including per-cell
  ``CellResult.shard`` stats.

``BENCH_SHARD_DURATION`` rescales the runs; the committed JSON is the
240-time-unit horizon.
"""

import dataclasses
import json
import os

from repro.campaign import CampaignGrid, run_campaign
from repro.protocols.base import ProtocolRun
from repro.protocols.bitcoin import BitcoinNode
from repro.shard.run import execute_sharded
from repro.workloads.scenarios import ProtocolScenario, adversarial_scenarios
from repro.workloads.traffic import shard_traffic_presets

_RESULTS = {"bench": "shard"}
_JSON_PATH = "BENCH_shard.json"
_DURATION = float(os.environ.get("BENCH_SHARD_DURATION", "240"))

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
    _RESULTS["scaling"] = rows


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
    _RESULTS["atomicity"] = rows


def test_bench_k1_identity(report):
    """Gate: K=1 sharded execution ≡ the single-chain pipeline."""
    scenario = _sweep_scenario(1)
    sharded = execute_sharded(scenario)
    direct = ProtocolRun.execute(BitcoinNode, scenario)

    def chains(run):
        return {
            node.name: tuple(
                block.block_id
                for block in node.selection.select(node.tree).blocks
            )
            for node in run.nodes
        }

    identical = chains(sharded) == chains(direct)
    heights = sorted(len(c) - 1 for c in chains(sharded).values())
    row = {
        "n_nodes": scenario.n_nodes,
        "identical": identical,
        "committed_heights": heights,
    }
    report(
        "K=1 identity, execute_sharded vs ProtocolRun.execute "
        "(gate: byte-identical adopted chains at every replica)",
        json.dumps(row, indent=2),
    )
    assert identical, "K=1 sharded run diverged from the single-chain pipeline"
    assert min(heights) > 1, "identity run committed (almost) nothing"
    _RESULTS["identity"] = row


def test_bench_shard_campaign_determinism(report):
    """Gate: serial ≡ parallel shard campaign incl. CellResult.shard."""
    grid = CampaignGrid(
        protocols=("bitcoin",),
        scenarios=("shard-uniform", "shard-hot"),
        seeds=(2024,),
        n_nodes=4,
        duration=_DURATION,
    )
    serial = run_campaign(grid, workers=1)
    parallel = run_campaign(grid, workers=2)
    identical = serial.to_dict(include_timing=False) == parallel.to_dict(
        include_timing=False
    )
    shard_cells = [
        cell for cell in serial.cells if cell.shard is not None
    ]
    row = {
        "cells": grid.size(),
        "shard_cells": len(shard_cells),
        "identical": identical,
    }
    report(
        "Shard campaign determinism, serial vs 2 workers "
        "(gate: identical matrices incl. per-cell shard stats)",
        json.dumps(row, indent=2),
    )
    assert identical, "serial and parallel shard matrices diverged"
    assert len(shard_cells) == grid.size(), "a shard cell lost its shard stats"
    for cell in shard_cells:
        assert cell.shard["atomicity"]["ok"], cell.cell_id
    _RESULTS["determinism"] = row


def test_emit_bench_json():
    """Write BENCH_shard.json (schema: repro.analysis.bench_schema)."""
    # Refuse to emit a hollow trajectory: a partial run (-k filter, an
    # earlier gate failure) must not overwrite the artifact.
    required = {"scaling", "atomicity", "identity", "determinism"}
    assert required <= set(_RESULTS), (
        "sections missing — run the whole file, not a subset"
    )
    payload = dict(_RESULTS, emitted_by="benchmarks/test_bench_shard.py")
    from repro.analysis.bench_schema import validate_payload

    assert validate_payload("BENCH_shard.json", payload) == []
    with open(_JSON_PATH, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, ensure_ascii=False)
    assert os.path.getsize(_JSON_PATH) > 0
