"""Dissemination-transport gate: relay redundancy, flood vs reconciliation.

Not a paper figure — this gates the Erlay-style reconciliation layer
(``gossip="reconcile"``).  Bitcoin under the steady client-traffic
preset at fan-out 4/8/16 (5/9/17 nodes), both transports.  Forward-once
flooding wastes ~``(n-2)/(n-1)`` of all tx receives on duplicates;
periodic set reconciliation (pull only the sketch difference) must hold
``duplicate_relay_ratio ≤ 0.15`` at fan-out ≥ 8 while flooding sits
≥ 0.5, and must spend fewer relayed tx bytes per committed transaction
than flooding at fan-out 16.  The reconcile cells run at
``recon_interval=20``: round pacing is the Erlay bandwidth/latency dial,
and this is the operating point the gate certifies.

Flood ≡ reconcile chain identity and serial ≡ parallel reconcile
campaigns are tier-1 tests (``tests/test_reconcile.py``,
``tests/test_campaign.py``).
"""

import json

from repro.protocols.bitcoin import run_bitcoin
from repro.workloads.scenarios import ProtocolScenario
from repro.workloads.traffic import traffic_presets

_DURATION = 240.0
_FANOUTS = (4, 8, 16)  # peers per node → 5/9/17-node cliques
_RECON_INTERVAL = 20.0
_DUP_GATE_RECONCILE = 0.15
_DUP_GATE_FLOOD = 0.5


def _relay_scenario(fanout: int, gossip: str) -> ProtocolScenario:
    return ProtocolScenario(
        name=f"gossip-relay-{fanout}",  # same name per fan-out: same traffic
        n_nodes=fanout + 1,
        duration=_DURATION,
        mean_block_interval=10.0,
        tx_per_block=6,
        gossip=gossip,
        recon_interval=_RECON_INTERVAL,
        traffic=traffic_presets()["steady"],
    )


def test_bench_relay_redundancy(report):
    """Gate: reconcile dup ratio ≤ 0.15 at fan-out ≥ 8, flood ≥ 0.5."""
    rows = []
    for fanout in _FANOUTS:
        for gossip in ("flood", "reconcile"):
            run = run_bitcoin(_relay_scenario(fanout, gossip))
            stats = run.mempool_stats()
            committed = stats["committed"]["txs"]
            rows.append(
                {
                    "fanout": fanout,
                    "transport": gossip,
                    "committed_txs": committed,
                    "duplicate_relay_ratio": round(
                        stats["duplicate_relay_ratio"], 4
                    ),
                    "tx_bytes_per_committed_tx": round(
                        run.gossip_stats()["totals"]["tx_bytes_sent"]
                        / max(1, committed)
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
