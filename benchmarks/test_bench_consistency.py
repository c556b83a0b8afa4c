"""Ancestry-index acceptance gates: batch checking and the prefix algebra.

Not a paper figure — these gate the ancestry index and the batch
checkers built on it:

* **batch gate** — Strong Prefix + Eventual Prefix checking on a
  100k-read scenario history must beat the retained pairwise reference
  by ≥10×.  The reference is O(reads²·|C|), so running it on the full
  100k reads is infeasible by construction; it is timed on an
  evenly-spaced *subsample* of the same history instead, which is a
  strict **lower bound** on its full cost (a subset of the chains is a
  subset of the pairs).  Verdict identity is asserted twice: fast vs
  reference on the subsample (PropertyCheck equality, witnesses and
  all, for Eventual Prefix; the verdict for Strong Prefix, whose scan
  names its own pair), and fast(full) must hold.
* **violating row** — the same measurement on a forked history shaped
  like the ``lifecycle-signed-n8`` workload (≥500 distinct chains, ≥5k
  reads): the path a prodigal-oracle run actually takes, where the
  fast checkers decide *and* name the witness (``"violating": true``;
  the reference exits at its first diverging pair, so the ratio is
  reported, not gated).
* **prefix gate** — ``Chain.is_prefix_of`` on 50k-deep chains must beat
  the retained tuple comparison by ≥20×, with identical verdicts and an
  identical ``common_prefix`` chain.
* **memory row** — per-block footprint of a 200k-block tree
  (``tracemalloc``), guarding the ``__slots__``/interning satellite.
"""

import json
import sys
import time
import tracemalloc

from repro.blocktree.block import GENESIS, make_block
from repro.blocktree.reference import tuple_common_prefix, tuple_is_prefix_of
from repro.blocktree.score import LengthScore
from repro.blocktree.tree import BlockTree
from repro.consistency.properties import check_eventual_prefix, check_strong_prefix
from repro.consistency.reference import (
    pairwise_check_eventual_prefix,
    pairwise_check_strong_prefix,
)
from repro.histories.builder import HistoryRecorder
from repro.histories.continuation import Continuation, ContinuationModel, GrowthMode
from repro.histories.history import ConcurrentHistory

SCORE = LengthScore()


def _scenario_history(n_reads, depth=3000, n_procs=48):
    """One growing trunk read ``n_reads`` times by ``n_procs`` replicas.

    Appends are spread evenly through the read stream; every proc issues
    a final read of the full chain (the observable frozen limit), and the
    continuation declares everyone frozen — exercising the Eventual
    Prefix pairwise branch of the reference.
    """
    tree = BlockTree()
    rec = HistoryRecorder()
    procs = [f"p{i}" for i in range(n_procs)]
    parent = GENESIS
    reads_per_append = max(1, n_reads // depth)
    body_reads = n_reads - n_procs
    appended = 0
    for i in range(body_reads):
        if i % reads_per_append == 0 and appended < depth:
            block = make_block(parent, label=str(appended))
            op = rec.begin("env", "append", (block.block_id, block.parent_id))
            tree.add_block(block)
            rec.end("env", op, "append", True)
            parent = block
            appended += 1
        rec.record_read(procs[i % n_procs], tree.chain_to(parent.block_id))
    while appended < depth:
        block = make_block(parent, label=str(appended))
        op = rec.begin("env", "append", (block.block_id, block.parent_id))
        tree.add_block(block)
        rec.end("env", op, "append", True)
        parent = block
        appended += 1
    for proc in procs:  # final reads: the frozen limit chains
        rec.record_read(proc, tree.chain_to(parent.block_id))
    continuation = ContinuationModel(
        {p: Continuation(True, GrowthMode.FROZEN, "none") for p in procs}
    )
    return rec.history(continuation), tree


def _forked_history(n_reads, depth, n_procs, fork_every=8):
    """A trunk with a one-block stale fork at every ``fork_every``-th
    height, read ``n_reads`` times: while a fork is open the odd procs
    read the stale tip, the even ones the winning tip.  Everyone ends on
    the full trunk; the continuation declares everyone frozen."""
    tree = BlockTree()
    rec = HistoryRecorder()
    procs = [f"p{i}" for i in range(n_procs)]
    reads_per_block = (n_reads - n_procs) // depth
    parent, reads = GENESIS, 0

    def append(block):
        op = rec.begin("env", "append", (block.block_id, block.parent_id))
        tree.add_block(block)
        rec.end("env", op, "append", True)

    for height in range(depth):
        block = make_block(parent, label=str(height))
        append(block)
        stale = None
        if height % fork_every == fork_every - 1:
            stale = make_block(parent, label=f"stale{height}")
            append(stale)
        for _ in range(reads_per_block):
            tip = stale if stale is not None and reads % 2 else block
            rec.record_read(procs[reads % n_procs], tree.chain_to(tip.block_id))
            reads += 1
        parent = block
    for proc in procs:
        rec.record_read(proc, tree.chain_to(parent.block_id))
    continuation = ContinuationModel(
        {p: Continuation(True, GrowthMode.FROZEN, "none") for p in procs}
    )
    return rec.history(continuation)


def _subsample(history, m):
    """Every ⌈n/m⌉-th read (plus each proc's final read) of ``history``.

    Keeps all append events, so pairwise over the sample is a strict
    subset of the reference's work on the full history.
    """
    reads = history.reads()
    n_procs = len(history.continuation.per_process)
    step = max(1, len(reads) // m)
    keep_ops = {r.op_id for r in reads[::step]}
    keep_ops.update(r.op_id for r in reads[-n_procs:])
    read_ops = {r.op_id for r in reads}
    kept = [e for e in history.events if e.op_id not in read_ops or e.op_id in keep_ops]
    return ConcurrentHistory(events=kept, continuation=history.continuation)


def _time(fn, repeat=1):
    start = time.perf_counter()
    for _ in range(repeat):
        result = fn()
    return (time.perf_counter() - start) / repeat, result


def _run_batch_row(history, sample_reads, violating=False, **shape):
    sample = _subsample(history, sample_reads)
    model = history.continuation

    new_strong_s, fast_strong = _time(lambda: check_strong_prefix(history, model))
    new_eventual_s, fast_eventual = _time(
        lambda: check_eventual_prefix(history, SCORE, model)
    )
    ref_strong_s, ref_strong = _time(
        lambda: pairwise_check_strong_prefix(sample, model)
    )
    ref_eventual_s, ref_eventual = _time(
        lambda: pairwise_check_eventual_prefix(sample, SCORE, model)
    )
    # Same verdicts on the very same (sub-sampled) history: the Strong
    # Prefix scan names its own pair, Eventual Prefix is held to dataclass
    # equality (witness included).
    assert check_strong_prefix(sample, model).ok == ref_strong.ok
    assert check_eventual_prefix(sample, SCORE, model) == ref_eventual
    # A violating row is EC-not-SC, like the protocols it stands for.
    assert fast_eventual.ok and ref_eventual.ok
    assert fast_strong.ok is ref_strong.ok is not violating
    assert bool(fast_strong.witness) is violating

    new_s = new_strong_s + new_eventual_s
    ref_s = ref_strong_s + ref_eventual_s
    row = {
        "n_reads": len(history.reads()),
        **shape,
        "new_strong_s": round(new_strong_s, 6),
        "new_eventual_s": round(new_eventual_s, 6),
        "ref_sample_reads": len(sample.reads()),
        "ref_strong_s": round(ref_strong_s, 6),
        "ref_eventual_s": round(ref_eventual_s, 6),
        "speedup_lower_bound": round(ref_s / new_s, 2),
    }
    if violating:
        row["violating"] = True
    return row


def _run_scenario_row(n_reads, sample_reads):
    shape = {"depth": 3000, "n_procs": 48}
    history, _tree = _scenario_history(n_reads, **shape)
    return _run_batch_row(history, sample_reads, **shape)


def test_bench_batch_checkers_10k(report):
    row = _run_scenario_row(10_000, sample_reads=256)
    report(
        "Batch consistency checking, 10k-read history (new vs pairwise sample)",
        json.dumps(row, indent=2),
    )


def test_bench_batch_checkers_100k_gate(report):
    """Acceptance gate: ≥10× on 100k reads vs the pairwise reference.

    The reference time is measured on ~512 evenly-spaced reads of the
    same history — a strict lower bound on its 100k cost (≈ (100k/512)²
    ≈ 38000× more pairs) — so the asserted ratio is wildly conservative.
    """
    row = _run_scenario_row(100_000, sample_reads=512)
    speedup = row["speedup_lower_bound"]
    report(
        "Batch consistency checking, 100k-read history (gate: ≥10×)",
        json.dumps(row, indent=2),
    )
    assert speedup >= 10.0, (
        f"batch checking speedup lower bound {speedup:.1f}× below the 10× gate"
    )


def test_bench_batch_checkers_violating(report):
    """The failure path is the normal path for EC-not-SC protocols."""
    shape = {"depth": 600, "n_procs": 8}
    history = _forked_history(n_reads=6_000, **shape)
    chains = {history.returned_chain(r).tip.block_id for r in history.reads()}
    assert len(chains) >= 500 and len(history.reads()) >= 5_000
    row = _run_batch_row(history, sample_reads=256, violating=True, **shape)
    report(
        f"Batch consistency checking, forked history ({len(chains)} distinct "
        "chains): decide + witness vs pairwise sample",
        json.dumps(row, indent=2),
    )


def test_bench_prefix_algebra_50k_gate(report):
    """Acceptance gate: ⊑ on 50k-deep chains ≥20× vs tuple comparison."""
    tree = BlockTree()
    parent = GENESIS
    mid = None
    for i in range(50_000):
        block = make_block(parent, label=str(i))
        tree.add_block(block)
        parent = block
        if i == 24_999:
            mid = block
    shorter = tree.chain_to(mid.block_id)
    longer = tree.chain_to(parent.block_id)
    # Warm the materialization (the tuple oracle's input representation),
    # so its timing measures the original zip walk, not tuple building.
    shorter.blocks, longer.blocks

    new_s, new_verdict = _time(lambda: shorter.is_prefix_of(longer), repeat=2000)
    old_s, old_verdict = _time(lambda: tuple_is_prefix_of(shorter, longer), repeat=20)
    # Identical verdicts and identical common-prefix chains.
    assert new_verdict is True and old_verdict is True
    assert shorter.is_prefix_of(longer) == tuple_is_prefix_of(shorter, longer)
    assert longer.is_prefix_of(shorter) == tuple_is_prefix_of(longer, shorter)
    fast_cp = shorter.common_prefix(longer)
    oracle_cp = tuple_common_prefix(shorter, longer)
    assert fast_cp.block_ids() == oracle_cp.block_ids()

    speedup = old_s / new_s
    report(
        "Chain.is_prefix_of on 50k-deep chains (gate: ≥20×)",
        f"ancestry index {new_s * 1e6:8.2f}µs   tuple walk {old_s * 1e6:10.1f}µs   "
        f"speedup {speedup:8.0f}×",
    )
    assert speedup >= 20.0, f"prefix speedup {speedup:.1f}× below the 20× gate"


def test_bench_block_memory(report):
    """Per-block memory of a large tree (guards __slots__ + interning)."""
    n = 200_000

    def build():
        tree = BlockTree()
        parent = GENESIS
        for i in range(n):
            block = make_block(parent, label=str(i))
            tree.add_block(block)
            parent = block
        return tree, parent

    tracemalloc.start()
    before, _ = tracemalloc.get_traced_memory()
    tree, tip = build()
    after, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    per_block = (after - before) / n

    # __slots__: no per-instance dict on blocks.
    assert not hasattr(tip, "__dict__")
    # Interning: the tree's indices and the block share one id object.
    assert tree.get(tip.block_id).block_id is sys.intern(tip.block_id)
    report(
        "Per-block memory, 200k-block tree (Block __slots__ + interned ids)",
        f"traced {per_block:7.1f} B/block (blocks + all tree indices)   "
        f"sys.getsizeof(Block) = {sys.getsizeof(tip)} B",
    )
    # Generous ceiling: catches a reintroduced __dict__ (+~100 B/block)
    # or accidental per-block chain materialization, not allocator noise.
    assert per_block < 1500, f"per-block memory {per_block:.0f} B looks regressed"
