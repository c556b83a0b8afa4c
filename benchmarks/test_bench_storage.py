"""Storage-subsystem acceptance gates: backends, prune lifecycle, 1M run.

Not a paper figure — these gate the PR-3 storage claims and populate
``BENCH_storage.json`` (schema documented in ``docs/benchmarks.md``;
regenerated by ``make bench-storage``):

* **append gate** — raw ``put`` throughput per backend (pre-generated
  blocks, one flush at the end).  Floors are ~5-10× below measured dev
  numbers so only structural regressions (per-put fsync, per-put seek
  flushes, autocommit) trip them.
* **cold-read gate** — reopen a durable store and time random ``get``\\ s:
  one seek + CRC-checked decode (log) / one indexed SELECT (sqlite).
* **replay gate** — crash-recovery speed: reopen a 100k-block log
  (index rebuild) and ``BlockTree.replay`` it back into a full tree.
* **bounded-hot-set gate** (the acceptance criterion) — a 1M-block
  ``TreeScenario`` on ``AppendOnlyLogStore`` with a ``PrunePolicy``
  completes with ``peak_resident ≤ hot_cap`` while its fork-choice
  reads stay **byte-identical** to the all-in-RAM ``InMemoryStore``
  run, sampled every ~1k blocks.  ``BENCH_STORAGE_SCALE`` rescales the
  run (CI uses a smaller tier; the committed JSON is the 1M run).

The parametrized benches honor the ``--store`` knob
(``pytest benchmarks/ --store log``); the JSON artifact is only emitted
on unfiltered runs so a partial pass never overwrites the trajectory.
"""

import json
import os
import random
import time

import pytest

from repro.blocktree import GENESIS, BlockTree, LongestChain, PrunePolicy, make_block
from repro.storage import AppendOnlyLogStore, InMemoryStore, open_store
from repro.workloads.scenarios import TreeScenario

_RESULTS = {
    "bench": "storage",
    "append": [],
    "cold_read": [],
    "recovery": {},
    "bounded_hot_set": {},
}
_JSON_PATH = "BENCH_storage.json"
_SCALE = int(os.environ.get("BENCH_STORAGE_SCALE", "1000000"))

#: Raw-append floors (blocks/s), ~5-10× below measured dev-box numbers.
_APPEND_GATES = {"memory": 200_000, "log": 50_000, "sqlite": 10_000}
_COLD_READ_GATE_US = 1_000.0  # mean µs per cold get (measured ~6-12 µs)
_REPLAY_GATE = 25_000  # blocks/s through store reopen + tree rebuild


def _linear_blocks(n):
    """A pre-generated n-deep chain (so timings exclude block hashing)."""
    blocks = []
    parent = GENESIS
    for i in range(n):
        block = make_block(parent, label=str(i), payload=(i, "tx"))
        blocks.append(block)
        parent = block
    return blocks


def _open(store_kind, tmp_path, name):
    if store_kind == "memory":
        return InMemoryStore()
    suffix = "btlog" if store_kind == "log" else "db"
    return open_store(store_kind, path=str(tmp_path / f"{name}.{suffix}"))


def test_bench_append_throughput(report, store_kind, tmp_path):
    """Gate: raw put throughput per backend (floors in _APPEND_GATES)."""
    n = 50_000
    blocks = _linear_blocks(n)
    store = _open(store_kind, tmp_path, "append")
    start = time.perf_counter()
    for block in blocks:
        store.put(block)
    store.flush()
    elapsed = time.perf_counter() - start
    store.close()
    rate = n / elapsed
    row = {
        "store": store_kind,
        "blocks": n,
        "seconds": round(elapsed, 4),
        "blocks_per_s": round(rate),
        "gate_blocks_per_s": _APPEND_GATES[store_kind],
    }
    _RESULTS["append"].append(row)
    report(
        f"Append throughput, {store_kind} store "
        f"(gate: ≥{_APPEND_GATES[store_kind]:,}/s)",
        json.dumps(row, indent=2),
    )
    assert rate >= _APPEND_GATES[store_kind], (
        f"{store_kind} append throughput {rate:,.0f}/s below the gate"
    )


def test_bench_cold_read_latency(report, store_kind, tmp_path):
    """Gate: mean cold ``get`` after reopen ≤ 1 ms (durable backends)."""
    if store_kind == "memory":
        pytest.skip("cold reads need a durable backend")
    n, probes = 100_000, 2_000
    blocks = _linear_blocks(n)
    store = _open(store_kind, tmp_path, "cold")
    for block in blocks:
        store.put(block)
    store.close()
    reopened = _open(store_kind, tmp_path, "cold")
    rng = random.Random(2024)
    wanted = [blocks[rng.randrange(n)] for _ in range(probes)]
    start = time.perf_counter()
    for block in wanted:
        got = reopened.get(block.block_id)
    mean_us = (time.perf_counter() - start) / probes * 1e6
    assert got == wanted[-1]  # value-identical round-trip
    reopened.close()
    row = {
        "store": store_kind,
        "stored_blocks": n,
        "probes": probes,
        "mean_us": round(mean_us, 2),
        "gate_us": _COLD_READ_GATE_US,
    }
    _RESULTS["cold_read"].append(row)
    report(
        f"Cold-read latency, {store_kind} store (gate: ≤{_COLD_READ_GATE_US:.0f}µs mean)",
        json.dumps(row, indent=2),
    )
    assert mean_us <= _COLD_READ_GATE_US, (
        f"{store_kind} cold read {mean_us:.1f}µs above the gate"
    )


def test_bench_replay_recovery(report, tmp_path):
    """Gate: log reopen + BlockTree.replay ≥ 25k blocks/s."""
    n = 100_000
    path = str(tmp_path / "replay.btlog")
    scenario = TreeScenario(name="replay", n_blocks=n, fork_rate=0.02)
    tree = scenario.build(store=AppendOnlyLogStore(path))
    expected = LongestChain().select(tree)
    tree._store.close()

    start = time.perf_counter()
    reopened = AppendOnlyLogStore(path)
    rebuilt = BlockTree.replay(reopened)
    elapsed = time.perf_counter() - start
    rate = n / elapsed
    recovered = LongestChain().select(rebuilt)
    assert (recovered.tip_id, recovered.height) == (expected.tip_id, expected.height)
    assert len(rebuilt) == n + 1
    reopened.close()
    row = {
        "blocks": n,
        "seconds": round(elapsed, 4),
        "blocks_per_s": round(rate),
        "gate_blocks_per_s": _REPLAY_GATE,
    }
    _RESULTS["recovery"] = row
    report(
        f"Crash-recovery replay, 100k-block log (gate: ≥{_REPLAY_GATE:,}/s)",
        json.dumps(row, indent=2),
    )
    assert rate >= _REPLAY_GATE, f"replay {rate:,.0f} blocks/s below the gate"


def test_bench_bounded_hotset_gate(report, tmp_path):
    """THE acceptance gate: 1M blocks, bounded hot set, identical reads.

    Runs the same forky ``TreeScenario`` twice — all-in-RAM
    ``InMemoryStore`` vs ``AppendOnlyLogStore`` under a ``PrunePolicy``
    — selecting the longest chain after every append and sampling the
    verdict every 997 blocks.  Asserts the sampled (tip id, height)
    sequences are identical, that the pruned run's peak resident Block
    count never exceeded the configured cap, and that every block
    reached the log.
    """
    n = _SCALE
    cap = max(5_000, n // 20)
    scenario = TreeScenario(name="bounded", n_blocks=n, fork_rate=0.02, fork_window=8)
    select = LongestChain().select

    def run(tree):
        samples = []
        start = time.perf_counter()
        for i, block in enumerate(scenario.blocks()):
            tree.add_block(block)
            chain = select(tree)
            if i % 997 == 0:
                samples.append((chain.tip_id, chain.height))
        samples.append((chain.tip_id, chain.height))
        return samples, time.perf_counter() - start

    ram_samples, ram_s = run(BlockTree(store=InMemoryStore()))

    store = AppendOnlyLogStore(str(tmp_path / "bounded.btlog"))
    policy = PrunePolicy(hot_cap=cap, recent_reads=8, finality_margin=32)
    pruned_tree = BlockTree(store=store, prune=policy)
    log_samples, log_s = run(pruned_tree)
    stats = pruned_tree.stats()
    stored = len(store)
    log_bytes = os.path.getsize(store.path)
    store.close()

    row = {
        "blocks": n,
        "hot_cap": cap,
        "peak_resident": stats["peak_resident"],
        "resident_final": stats["resident"],
        "prune_count": stats["prune_count"],
        "evicted_total": stats["evicted_total"],
        "fault_count": stats["fault_count"],
        "checkpoint_height": stats["checkpoint_height"],
        "reads_sampled": len(log_samples),
        "reads_identical": log_samples == ram_samples,
        "memory_s": round(ram_s, 2),
        "log_s": round(log_s, 2),
        "log_overhead": round(log_s / ram_s, 2),
        "log_mb": round(log_bytes / 1e6, 1),
    }
    _RESULTS["bounded_hot_set"] = row
    report(
        f"Bounded hot set, {n:,}-block TreeScenario on the log store "
        f"(gate: peak resident ≤ {cap:,}, byte-identical reads)",
        json.dumps(row, indent=2),
    )
    assert log_samples == ram_samples, "fork-choice reads diverged across backends"
    assert stats["peak_resident"] <= cap, (
        f"peak resident {stats['peak_resident']:,} exceeded the {cap:,} cap"
    )
    assert stats["evicted_total"] > 0, "prune lifecycle never ran"
    assert stored == n, f"log store holds {stored:,} of {n:,} blocks"


def test_emit_bench_json(pytestconfig):
    """Write BENCH_storage.json (schema: docs/benchmarks.md)."""
    if pytestconfig.getoption("--store") != "all":
        pytest.skip("--store filter active: not overwriting the trajectory")
    # Refuse to emit a hollow trajectory: a partial run (-k filter, an
    # earlier gate failure) must not overwrite the artifact with empty
    # sections that look like a measured result.
    assert {row["store"] for row in _RESULTS["append"]} == {"memory", "log", "sqlite"}
    assert {row["store"] for row in _RESULTS["cold_read"]} == {"log", "sqlite"}
    assert _RESULTS["recovery"] and _RESULTS["bounded_hot_set"], (
        "recovery/bounded sections missing — run the whole file, not a subset"
    )
    payload = dict(_RESULTS, emitted_by="benchmarks/test_bench_storage.py")
    with open(_JSON_PATH, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    assert os.path.getsize(_JSON_PATH) > 0
