"""Storage-subsystem gates: append, cold-read and replay speed.

Not a paper figure — these gate the block-store layer:

* **append gate** — raw ``put`` throughput per backend (pre-generated
  blocks, one flush at the end).  Floors are ~5-10× below measured dev
  numbers so only structural regressions (per-put fsync, per-put seek
  flushes) trip them.
* **cold-read gate** — reopen the log store and time random ``get``\\ s:
  one seek + CRC-checked decode each.
* **replay gate** — crash-recovery speed: reopen a 100k-block log
  (index rebuild) and ``BlockTree.replay`` it back into a full tree.
"""

import json
import random
import time

import pytest

from repro.blocktree.block import GENESIS, make_block
from repro.blocktree.selection import LongestChain
from repro.blocktree.tree import BlockTree
from repro.storage import open_store
from repro.storage.logstore import AppendOnlyLogStore
from repro.storage.memory import InMemoryStore
from repro.workloads.scenarios import TreeScenario

#: Raw-append floors (blocks/s), ~5-10× below measured dev-box numbers.
_APPEND_GATES = {"memory": 200_000, "log": 50_000}
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
    return open_store(store_kind, path=str(tmp_path / f"{name}.btlog"))


@pytest.mark.parametrize("store_kind", ("memory", "log"))
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
    report(
        f"Append throughput, {store_kind} store "
        f"(gate: ≥{_APPEND_GATES[store_kind]:,}/s)",
        json.dumps(row, indent=2),
    )
    assert rate >= _APPEND_GATES[store_kind], (
        f"{store_kind} append throughput {rate:,.0f}/s below the gate"
    )


def test_bench_cold_read_latency(report, tmp_path):
    """Gate: mean cold ``get`` after reopen ≤ 1 ms (the log store)."""
    n, probes = 100_000, 2_000
    blocks = _linear_blocks(n)
    path = str(tmp_path / "cold.btlog")
    store = AppendOnlyLogStore(path)
    for block in blocks:
        store.put(block)
    store.close()
    reopened = AppendOnlyLogStore(path)
    rng = random.Random(2024)
    wanted = [blocks[rng.randrange(n)] for _ in range(probes)]
    start = time.perf_counter()
    for block in wanted:
        got = reopened.get(block.block_id)
    mean_us = (time.perf_counter() - start) / probes * 1e6
    assert got == wanted[-1]  # value-identical round-trip
    reopened.close()
    row = {
        "store": "log",
        "stored_blocks": n,
        "probes": probes,
        "mean_us": round(mean_us, 2),
        "gate_us": _COLD_READ_GATE_US,
    }
    report(
        f"Cold-read latency, log store (gate: ≤{_COLD_READ_GATE_US:.0f}µs mean)",
        json.dumps(row, indent=2),
    )
    assert mean_us <= _COLD_READ_GATE_US, (
        f"log cold read {mean_us:.1f}µs above the gate"
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
    report(
        f"Crash-recovery replay, 100k-block log (gate: ≥{_REPLAY_GATE:,}/s)",
        json.dumps(row, indent=2),
    )
    assert rate >= _REPLAY_GATE, f"replay {rate:,.0f} blocks/s below the gate"
