"""Incremental fork-choice gates: repeated ``read()`` on a growing tree.

Not a paper figure — repeated ``read()`` on a growing 100k-block
scenario tree must beat the full-rescan baseline (kept in
:mod:`repro.blocktree.reference`) by at least 5× (longest, heaviest) or
2× (GHOST) while returning byte-identical chains.  Per-layer timings of
the substrate (tree appends, selection, checkers, the event loop) come
from ``python3 bench/run.py --trace 1``.
"""

import time

from repro.blocktree.reference import rescan_ghost, rescan_heaviest, rescan_longest
from repro.blocktree.selection import GHOSTSelection, HeaviestChain, LongestChain
from repro.blocktree.tree import BlockTree
from repro.workloads.scenarios import tree_scenarios


def _grow_and_time_reads(tree, blocks, select, read_every):
    """Append ``blocks``; time a ``select`` read every ``read_every``."""
    spent = 0.0
    reads = 0
    for i, block in enumerate(blocks):
        tree.add_block(block)
        if i % read_every == 0:
            start = time.perf_counter()
            select(tree)
            spent += time.perf_counter() - start
            reads += 1
    return spent / reads


_WARM_TREE_CACHE = {}


def _warm_100k_scenario():
    """The shared 95k-block warm tree + 5k grow tail (built once)."""
    if not _WARM_TREE_CACHE:
        scenario = tree_scenarios()["forky-10k"].at_scale(100_000)
        stream = list(scenario.blocks())
        base, grow = stream[:95_000], stream[95_000:]
        warm = BlockTree()
        for block in base:
            warm.add_block(block)
        _WARM_TREE_CACHE["warm"] = warm
        _WARM_TREE_CACHE["grow"] = grow
    return _WARM_TREE_CACHE["warm"], _WARM_TREE_CACHE["grow"]


def _speedup_on_growing_tree(select_incremental, select_rescan, read_every_rescan):
    """Grow the same 100k-block scenario twice: incremental vs rescan reads."""
    warm, grow = _warm_100k_scenario()
    incremental_tree = warm.copy()
    rescan_tree = warm.copy()

    incr_avg = _grow_and_time_reads(
        incremental_tree, grow, select_incremental, read_every=50
    )
    rescan_avg = _grow_and_time_reads(
        rescan_tree, grow, select_rescan, read_every=read_every_rescan
    )
    # Byte-identical selection on the completed 100k tree.
    assert (
        select_incremental(incremental_tree).block_ids()
        == select_rescan(rescan_tree).block_ids()
    )
    return incr_avg, rescan_avg


def test_bench_incremental_read_speedup_growing_100k(report):
    """Acceptance gate: repeated read() on a growing 100k tree, ≥5×.

    ``read()`` is the longest-chain selection by default; the heaviest
    rule shares the same best-leaf index machinery and is gated too.
    """
    rows = []
    for name, rule, rescan in (
        ("longest", LongestChain(), rescan_longest),
        ("heaviest", HeaviestChain(), rescan_heaviest),
    ):
        incr_avg, rescan_avg = _speedup_on_growing_tree(
            rule.select, rescan, read_every_rescan=500
        )
        speedup = rescan_avg / incr_avg
        rows.append(
            f"{name:>8}: incremental {incr_avg * 1e6:9.1f}µs/read   "
            f"rescan {rescan_avg * 1e6:9.1f}µs/read   speedup {speedup:7.1f}×"
        )
        assert speedup >= 5.0, f"{name} speedup {speedup:.1f}× below the 5× gate"
    report("Incremental fork-choice: repeated read() on a growing 100k tree", "\n".join(rows))


def test_bench_incremental_ghost_read_growing_100k(report):
    """GHOST pays a lazy subtree-weight flush per read burst; it must
    still beat the full-rescan walk (gated at 2×, typically more)."""
    incr_avg, rescan_avg = _speedup_on_growing_tree(
        GHOSTSelection().select, rescan_ghost, read_every_rescan=500
    )
    speedup = rescan_avg / incr_avg
    report(
        "Incremental fork-choice: GHOST on a growing 100k tree",
        f"incremental {incr_avg * 1e3:7.2f}ms/read   "
        f"rescan {rescan_avg * 1e3:7.2f}ms/read   speedup {speedup:5.1f}×",
    )
    assert speedup >= 2.0, f"GHOST speedup {speedup:.1f}× below the 2× gate"
