"""Transaction-pipeline acceptance gates: ingest throughput, tx/sec, determinism.

Not a paper figure — these gate the mempool subsystem claims and
populate ``BENCH_mempool.json`` (schema registered in
:mod:`repro.analysis.bench_schema`, documented in ``docs/benchmarks.md``,
regenerated by ``make bench-mempool``):

* **batched-ingest gate** — ``Mempool.add_batch`` (one chain sync per
  batch, O(1) set ops per transaction) must ingest ``BENCH_MEMPOOL_SCALE``
  (default 100k) transactions ≥10× faster than the retained per-transaction
  path (``ingest_per_tx``: one ``ChainValidator.block_valid_in_context``
  full-prefix scan per transaction).  The baseline is timed on an
  evenly-sized sample and extrapolated linearly (its per-transaction cost
  is constant in the batch), so the recorded speedup is exact up to
  sampling noise, not an upper bound.
* **end-to-end gate** — two Table 1 protocols (bitcoin, byzcoin) driven
  by the steady client-traffic preset must commit transactions through
  the full submit → pool → gossip → pack → commit → reap pipeline;
  committed tx/sec and the confirmation-latency distribution are
  recorded per protocol.
* **campaign determinism gate** — a (2 protocols × client-steady/spam-flood)
  campaign grid run serially and on a worker pool must produce identical
  matrices *including per-cell ``mempool_stats``* (timing excluded).

``BENCH_MEMPOOL_SCALE`` rescales the ingest gate; the committed JSON is
the 100k run.
"""

import json
import os
import time

from repro.campaign import CampaignGrid, run_campaign
from repro.mempool import Mempool, ingest_per_tx
from repro.blocktree.block import GENESIS, make_block
from repro.blocktree.chain import Chain
from repro.protocols.classify import RUNNERS
from repro.workloads.scenarios import ProtocolScenario
from repro.workloads.traffic import traffic_presets
from repro.workloads.transactions import Transaction

_RESULTS = {"bench": "mempool"}
_JSON_PATH = "BENCH_mempool.json"
_N_TX = int(os.environ.get("BENCH_MEMPOOL_SCALE", "100000"))
_DURATION = float(os.environ.get("BENCH_MEMPOOL_DURATION", "400"))

_INGEST_GATE = 10.0
_CHAIN_BLOCKS = 20
_TX_PER_CHAIN_BLOCK = 10


def _load_universe(n_tx):
    """A chain prefix + ``n_tx`` single-spend transactions to ingest.

    The universe is sized so every transaction is independently valid
    (no intra-batch dependencies) — the two ingestion paths must then
    accept *identical* sets, which the gate asserts; ~10% duplicates
    and ~5% double spends exercise the filters on both sides.
    """
    chain_spends = _CHAIN_BLOCKS * _TX_PER_CHAIN_BLOCK
    genesis_coins = tuple(f"genesis-coin-load-{i}" for i in range(n_tx + chain_spends))
    parent = GENESIS
    blocks = [GENESIS]
    coin = 0
    for _ in range(_CHAIN_BLOCKS):
        payload = []
        for _ in range(_TX_PER_CHAIN_BLOCK):
            payload.append(
                Transaction.make(
                    (genesis_coins[coin],), (f"chain-out-{coin}",), "chain"
                )
            )
            coin += 1
        parent = make_block(parent, label=f"ctx{coin}", payload=tuple(payload))
        blocks.append(parent)
    chain = Chain.of(blocks)
    txs = []
    for i in range(n_tx):
        if i % 10 == 3 and txs:  # duplicate of an earlier submission
            txs.append(txs[i - 3])
            continue
        if i % 20 == 7:  # double spend of a chain-consumed coin
            txs.append(
                Transaction.make(
                    (genesis_coins[i % chain_spends],), (f"ds-{i}",), "load"
                )
            )
            continue
        txs.append(
            Transaction.make(
                (genesis_coins[chain_spends + i],), (f"load-out-{i}",), "load"
            )
        )
    return genesis_coins, chain, txs


def test_bench_batched_ingest_speedup(report):
    """Gate: add_batch ≥10× over per-tx chain validation at scale."""
    genesis_coins, chain, txs = _load_universe(_N_TX)

    sample = max(1000, _N_TX // 10)
    start = time.perf_counter()
    ref_accepted = ingest_per_tx(chain, txs[:sample], genesis_coins)
    ref_sample_s = time.perf_counter() - start
    ref_s = ref_sample_s * (len(txs) / sample)

    # Identical accept decisions on the shared sample (untimed).
    ref_ids = {tx.tx_id for tx in ref_accepted}
    sample_pool = Mempool(genesis_coins=genesis_coins, capacity=0)
    sample_ids = {tx.tx_id for tx in sample_pool.add_batch(txs[:sample], chain=chain)}

    pool = Mempool(genesis_coins=genesis_coins, capacity=0)
    start = time.perf_counter()
    accepted = []
    for lo in range(0, len(txs), 1024):
        accepted.extend(pool.add_batch(txs[lo : lo + 1024], chain=chain))
    batched_s = time.perf_counter() - start

    speedup = ref_s / batched_s if batched_s > 0 else 0.0
    row = {
        "n_tx": len(txs),
        "chain_blocks": _CHAIN_BLOCKS,
        "chain_txs": _CHAIN_BLOCKS * _TX_PER_CHAIN_BLOCK,
        "ref_sample": sample,
        "ref_sample_s": round(ref_sample_s, 4),
        "ref_extrapolated_s": round(ref_s, 4),
        "batched_s": round(batched_s, 4),
        "speedup": round(speedup, 1),
        "gate": _INGEST_GATE,
        "accepted": len(accepted),
        "rejected_duplicate": pool.rejected_duplicate,
        "rejected_invalid": pool.rejected_invalid,
        "tx_per_s_batched": round(len(txs) / batched_s) if batched_s else 0,
    }
    report(
        f"Batched ingest vs per-tx validation at {len(txs)} tx "
        f"(gate: ≥{_INGEST_GATE}×)",
        json.dumps(row, indent=2),
    )
    assert ref_ids == sample_ids, "paths diverged on accepted transactions"
    assert pool.rejected_duplicate > 0 and pool.rejected_invalid > 0
    assert speedup >= _INGEST_GATE, (
        f"batched ingest speedup {speedup:.1f}× below the {_INGEST_GATE}× gate"
    )
    _RESULTS["ingest"] = row


def _traffic_scenario(protocol: str) -> ProtocolScenario:
    return ProtocolScenario(
        name=f"{protocol}-steady",
        n_nodes=4,
        duration=_DURATION,
        mean_block_interval=12.0,
        tx_per_block=8,
        traffic=traffic_presets(_DURATION)["steady"],
    )


def test_bench_end_to_end_committed_tx_per_s(report):
    """Gate: the full pipeline commits transactions on ≥2 protocols."""
    rows = []
    for protocol in ("bitcoin", "byzcoin"):
        run = RUNNERS[protocol](_traffic_scenario(protocol))
        stats = run.mempool_stats()
        committed = stats["committed"]
        rows.append(
            {
                "protocol": protocol,
                "duration": _DURATION,
                "submitted": committed["submitted"],
                "committed_txs": committed["txs"],
                "committed_tx_per_s": round(committed["tx_per_s"], 4),
                "latency_p50": round(committed["latency"]["p50"], 2),
                "latency_p90": round(committed["latency"]["p90"], 2),
                "duplicate_relay_ratio": round(
                    stats["duplicate_relay_ratio"], 4
                ),
                "unknown_append_resolutions": run.unknown_append_resolutions(),
            }
        )
    report(
        "End-to-end committed throughput, steady client traffic "
        "(gate: committed txs > 0 on both protocols)",
        json.dumps(rows, indent=2),
    )
    for row in rows:
        assert row["committed_txs"] > 0, f"{row['protocol']} committed nothing"
        assert row["committed_tx_per_s"] > 0
        assert row["unknown_append_resolutions"] == 0
    _RESULTS["end_to_end"] = rows


def test_bench_campaign_mempool_determinism(report):
    """Gate: serial ≡ parallel campaign matrices incl. mempool_stats."""
    grid = CampaignGrid(
        protocols=("bitcoin", "byzcoin"),
        scenarios=("client-steady", "spam-flood"),
        seeds=(2024,),
        n_nodes=4,
        duration=240.0,
    )
    serial = run_campaign(grid, workers=1)
    parallel = run_campaign(grid, workers=2)
    identical = serial.to_dict(include_timing=False) == parallel.to_dict(
        include_timing=False
    )
    cells = []
    for cell in serial.cells:
        assert cell.mempool is not None, f"{cell.cell_id} carries no mempool stats"
        cells.append(
            {
                "cell": cell.cell_id,
                "committed_txs": cell.mempool["committed"]["txs"],
                "evicted": sum(
                    node["evicted"] for node in cell.mempool["per_node"].values()
                ),
                "rejected_invalid": sum(
                    node["rejected_invalid"]
                    for node in cell.mempool["per_node"].values()
                ),
            }
        )
    row = {
        "cells": grid.size(),
        "identical": identical,
        "per_cell": cells,
    }
    report(
        "Campaign mempool determinism, serial vs 2 workers "
        "(gate: identical matrices incl. mempool_stats)",
        json.dumps(row, indent=2),
    )
    assert identical, "serial and parallel mempool matrices diverged"
    # The spam flood must actually exercise the rejection machinery.
    spam_cells = [c for c in cells if "spam-flood" in c["cell"]]
    assert any(c["rejected_invalid"] > 0 for c in spam_cells)
    _RESULTS["campaign_determinism"] = row


def test_emit_bench_json():
    """Write BENCH_mempool.json (schema: repro.analysis.bench_schema)."""
    # Refuse to emit a hollow trajectory: a partial run (-k filter, an
    # earlier gate failure) must not overwrite the artifact.
    required = {"ingest", "end_to_end", "campaign_determinism"}
    assert required <= set(_RESULTS), (
        "sections missing — run the whole file, not a subset"
    )
    payload = dict(_RESULTS, emitted_by="benchmarks/test_bench_mempool.py")
    from repro.analysis.bench_schema import validate_payload

    assert validate_payload("BENCH_mempool.json", payload) == []
    with open(_JSON_PATH, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, ensure_ascii=False)
    assert os.path.getsize(_JSON_PATH) > 0
