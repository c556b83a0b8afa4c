"""Dissemination-transport acceptance gates: flood vs set reconciliation.

Not a paper figure — these gate the Erlay-style reconciliation layer
(``gossip="reconcile"``) and populate ``BENCH_gossip.json`` (schema
registered in :mod:`repro.analysis.bench_schema`, documented in
``docs/benchmarks.md``, regenerated by ``make bench-gossip``):

* **relay gate** — Bitcoin under the steady client-traffic preset at
  fan-out 4/8/16 (5/9/17 nodes), both transports.  Forward-once
  flooding wastes ~``(n-2)/(n-1)`` of all tx receives on duplicates;
  periodic set reconciliation (pull only the sketch difference) must
  hold ``duplicate_relay_ratio ≤ 0.15`` at fan-out ≥ 8 while flooding
  sits ≥ 0.5, and must spend fewer relayed tx bytes per committed
  transaction than flooding at fan-out 16.  The reconcile cells run at
  ``recon_interval=20``: round pacing is the Erlay bandwidth/latency
  dial, and this is the operating point the gate certifies.
* **identity gate** — the transport must be observationally
  transparent: Hyperledger (no simulator randomness in the protocol)
  over a constant-delay channel commits byte-identical chains at every
  node under flood and reconcile.
* **determinism gate** — a reconcile campaign grid run serially and on
  a worker pool produces identical matrices including per-cell
  ``mempool_stats``.

``BENCH_GOSSIP_DURATION`` rescales the relay axis; the committed JSON
is the 240-time-unit run.
"""

import dataclasses
import json
import os

from repro.campaign import CampaignGrid, run_campaign
from repro.net.channels import ChannelModel
from repro.protocols.base import ProtocolRun
from repro.protocols.bitcoin import run_bitcoin
from repro.protocols.hyperledger import HyperledgerNode
from repro.workloads.scenarios import ProtocolScenario
from repro.workloads.traffic import traffic_presets

_RESULTS = {"bench": "gossip"}
_JSON_PATH = "BENCH_gossip.json"
_DURATION = float(os.environ.get("BENCH_GOSSIP_DURATION", "240"))

_FANOUTS = (4, 8, 16)  # peers per node → 5/9/17-node cliques
_RECON_INTERVAL = 20.0
_DUP_GATE_RECONCILE = 0.15
_DUP_GATE_FLOOD = 0.5


@dataclasses.dataclass
class _ConstantChannel(ChannelModel):
    """Fixed delay, zero rng draws — keeps the two identity runs'
    random streams equal regardless of how many messages each sends."""

    delta: float = 0.7

    def delay(self, src, dst, message, rng, now):
        return self.delta


def _relay_scenario(fanout: int, gossip: str) -> ProtocolScenario:
    return ProtocolScenario(
        name=f"gossip-relay-{fanout}",  # same name per fan-out: same traffic
        n_nodes=fanout + 1,
        duration=_DURATION,
        mean_block_interval=10.0,
        tx_per_block=6,
        gossip=gossip,
        recon_interval=_RECON_INTERVAL,
        traffic=traffic_presets(_DURATION)["steady"],
    )


def test_bench_relay_redundancy(report):
    """Gate: reconcile dup ratio ≤ 0.15 at fan-out ≥ 8, flood ≥ 0.5."""
    rows = []
    for fanout in _FANOUTS:
        for gossip in ("flood", "reconcile"):
            run = run_bitcoin(_relay_scenario(fanout, gossip))
            stats = run.mempool_stats()
            totals = run.gossip_stats()["totals"]
            committed = stats["committed"]["txs"]
            rows.append(
                {
                    "fanout": fanout,
                    "transport": gossip,
                    "duration": _DURATION,
                    "committed_txs": committed,
                    "duplicate_relay_ratio": round(
                        stats["duplicate_relay_ratio"], 4
                    ),
                    "messages_sent": totals["messages_sent"],
                    "tx_bytes_sent": totals["tx_bytes_sent"],
                    "block_bytes_sent": totals["block_bytes_sent"],
                    "tx_bytes_per_committed_tx": round(
                        totals["tx_bytes_sent"] / max(1, committed)
                    ),
                }
            )
    report(
        "Relay redundancy, flood vs reconcile "
        f"(gates: reconcile ≤ {_DUP_GATE_RECONCILE} at fan-out ≥ 8, "
        f"flood ≥ {_DUP_GATE_FLOOD})",
        json.dumps(rows, indent=2),
    )
    by = {(r["fanout"], r["transport"]): r for r in rows}
    for row in rows:
        assert row["committed_txs"] > 0, f"{row} committed nothing"
    for fanout in _FANOUTS:
        assert by[(fanout, "flood")]["duplicate_relay_ratio"] >= _DUP_GATE_FLOOD
        if fanout >= 8:
            dup = by[(fanout, "reconcile")]["duplicate_relay_ratio"]
            assert dup <= _DUP_GATE_RECONCILE, (
                f"reconcile dup ratio {dup} over the {_DUP_GATE_RECONCILE} "
                f"gate at fan-out {fanout}"
            )
    # Bandwidth gate at the widest fan-out: fewer relayed tx bytes per
    # committed transaction than flooding.
    wide = max(_FANOUTS)
    assert (
        by[(wide, "reconcile")]["tx_bytes_per_committed_tx"]
        < by[(wide, "flood")]["tx_bytes_per_committed_tx"]
    )
    _RESULTS["relay"] = rows


def test_bench_transport_identity(report):
    """Gate: byte-identical committed chains across transports."""
    chains = {}
    for gossip in ("flood", "reconcile"):
        scenario = ProtocolScenario(
            name="gossip-identity",  # same name: same per-replica streams
            n_nodes=5,
            duration=120.0,
            mean_block_interval=10.0,
            tx_per_block=4,
            gossip=gossip,
            round_length=15.0,
        )
        run = ProtocolRun.execute(
            HyperledgerNode, scenario, channel=_ConstantChannel()
        )
        chains[gossip] = {
            node.name: tuple(
                block.block_id
                for block in node.selection.select(node.tree).blocks
            )
            for node in run.nodes
        }
    identical = chains["flood"] == chains["reconcile"]
    heights = sorted(len(c) - 1 for c in chains["flood"].values())
    row = {
        "protocol": "hyperledger",
        "n_nodes": 5,
        "identical": identical,
        "committed_heights": heights,
    }
    report(
        "Transport identity, hyperledger over a constant-delay channel "
        "(gate: byte-identical committed chains flood vs reconcile)",
        json.dumps(row, indent=2),
    )
    assert identical, "transports are not observationally transparent"
    assert min(heights) > 1, "identity run committed (almost) nothing"
    _RESULTS["identity"] = row


def test_bench_reconcile_campaign_determinism(report):
    """Gate: serial ≡ parallel reconcile campaign incl. mempool_stats."""
    grid = CampaignGrid(
        protocols=("bitcoin", "byzcoin"),
        scenarios=("client-steady", "partition-heal"),
        seeds=(2024,),
        n_nodes=4,
        duration=240.0,
        gossip="reconcile",
    )
    serial = run_campaign(grid, workers=1)
    parallel = run_campaign(grid, workers=2)
    identical = serial.to_dict(include_timing=False) == parallel.to_dict(
        include_timing=False
    )
    row = {
        "cells": grid.size(),
        "gossip": "reconcile",
        "identical": identical,
    }
    report(
        "Reconcile campaign determinism, serial vs 2 workers "
        "(gate: identical matrices incl. mempool_stats)",
        json.dumps(row, indent=2),
    )
    assert identical, "serial and parallel reconcile matrices diverged"
    assert all(cell.scenario.gossip == "reconcile" for cell in grid.expand())
    _RESULTS["determinism"] = row


def test_emit_bench_json():
    """Write BENCH_gossip.json (schema: repro.analysis.bench_schema)."""
    # Refuse to emit a hollow trajectory: a partial run (-k filter, an
    # earlier gate failure) must not overwrite the artifact.
    required = {"relay", "identity", "determinism"}
    assert required <= set(_RESULTS), (
        "sections missing — run the whole file, not a subset"
    )
    payload = dict(_RESULTS, emitted_by="benchmarks/test_bench_gossip.py")
    from repro.analysis.bench_schema import validate_payload

    assert validate_payload("BENCH_gossip.json", payload) == []
    with open(_JSON_PATH, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, ensure_ascii=False)
    assert os.path.getsize(_JSON_PATH) > 0
