#!/usr/bin/env python
"""Quickstart: the BlockTree ADT, token oracles, and consistency checking.

Walks the core public API end to end:

1. drive the BT-ADT of Definition 3.1 directly (append/read semantics);
2. refine it with a frugal/prodigal token oracle (Definition 3.7) and
   watch the k-fork cap in action;
3. record a concurrent history of two processes and judge it with the
   Strong/Eventual consistency checkers;
4. grow a large tree through a durable block-store backend, replay the
   log into a new tree as a restarted replica would, and watch it answer
   reads byte-identically to the all-in-RAM tree.

Run:  python examples/quickstart.py
"""

import math
import os
import tempfile

from repro.blocktree.block import GENESIS, AlwaysValid, make_block
from repro.blocktree.bt_adt import BTADT, Append, Read
from repro.blocktree.score import LengthScore
from repro.blocktree.selection import LongestChain
from repro.consistency.criteria import BTEventualConsistency, BTStrongConsistency
from repro.histories.builder import HistoryRecorder
from repro.histories.continuation import ContinuationModel
from repro.oracle.refinement import RefinedBTADT
from repro.oracle.theta import ThetaOracle, ThetaState


def demo_bt_adt() -> None:
    print("== 1. The BT-ADT (Definition 3.1) ==")
    adt = BTADT(selection=LongestChain(), validity=AlwaysValid())
    state = adt.initial_state()
    for label in ("1", "2", "3"):
        state, ok = adt.apply(state, Append(make_block(GENESIS, label=label)))
        print(f"  append({label}) -> {ok}")
    chain = adt.output(state, Read())
    print(f"  read() -> {chain.describe()}  (height {chain.height})")


def demo_oracle_refinement() -> None:
    print("\n== 2. R(BT-ADT, Θ): oracles cap forks (Theorem 3.2) ==")
    for k, name in [(1, "Θ_F,k=1 (frugal)"), (2, "Θ_F,k=2"), (math.inf, "Θ_P (prodigal)")]:
        oracle = ThetaOracle(ThetaState(k=k, seed=42, default_probability=1.0))
        refined = RefinedBTADT(selection=LongestChain(), oracle=oracle)
        genesis = refined.tree.genesis
        # Three processes race to append onto the same (stale) holder.
        outcomes = [
            refined.append_at(genesis, make_block(genesis, label=f"c{i}"), f"p{i}").success
            for i in range(3)
        ]
        print(
            f"  {name:18s} simultaneous appends -> {outcomes}, "
            f"forks at genesis: {refined.tree.fork_degree(genesis.block_id)}"
        )


def demo_consistency_checking() -> None:
    print("\n== 3. Judging a concurrent history (Definitions 3.2/3.4) ==")
    # Two branches: the even branch wins; process i briefly read the loser.
    b1 = make_block(GENESIS, label="1")
    b2 = make_block(GENESIS, label="2")
    b4 = make_block(b2, label="4")
    from repro.blocktree.chain import Chain

    rec = HistoryRecorder()
    for b in (b1, b2, b4):
        op = rec.begin("env", "append", (b.block_id, b.parent_id))
        rec.end("env", op, "append", True)
    rec.record_read("i", Chain.of([GENESIS, b1]))        # i saw the odd branch
    rec.record_read("j", Chain.of([GENESIS, b2]))        # j saw the even branch
    rec.record_read("i", Chain.of([GENESIS, b2, b4]))    # i converges
    rec.record_read("j", Chain.of([GENESIS, b2, b4]))
    history = rec.history(continuation=ContinuationModel.all_growing(["i", "j"]))

    score = LengthScore()
    sc = BTStrongConsistency(score=score).check(history)
    ec = BTEventualConsistency(score=score).check(history)
    print(sc.describe())
    print(ec.describe())
    print("\n  -> exactly the paper's Figure 3 situation: EC holds, SC does not.")


def demo_store_backends() -> None:
    print("\n== 4. Block stores + crash recovery by replay ==")
    from repro.blocktree.selection import LongestChain
    from repro.blocktree.tree import BlockTree
    from repro.storage import open_store
    from repro.workloads.scenarios import TreeScenario

    scenario = TreeScenario(name="quickstart", n_blocks=20_000, fork_rate=0.04)
    read = lambda tree, block: LongestChain().select(tree)  # noqa: E731

    # Baseline: the default "memory" store.
    plain = scenario.build(store=open_store("memory"), on_block=read)

    # Durable: every block is also appended to a log.  The tree keeps
    # every block either way; the log is what survives a crash.
    workdir = tempfile.TemporaryDirectory(prefix="repro-quickstart-")
    log_path = os.path.join(workdir.name, "blocks.btlog")
    logged = scenario.build(store=open_store("log", path=log_path), on_block=read)
    logged._store.close()

    # A restarted replica reopens its log and replays it into a new tree.
    reopened = open_store("log", path=log_path)
    recovered = BlockTree.replay(reopened)
    a, b = LongestChain().select(plain), LongestChain().select(recovered)
    print(f"  blocks grown        : {plain.stats()['blocks'] - 1:,} (+ genesis)")
    print(f"  log file            : {os.path.getsize(log_path) / 1e6:.1f} MB")
    print(f"  replayed blocks     : {len(reopened):,}")
    print(f"  reads identical     : {(a.tip_id, a.height) == (b.tip_id, b.height)}")
    print(f"  trees identical     : {recovered.freeze() == plain.freeze()}")
    reopened.close()
    workdir.cleanup()


if __name__ == "__main__":
    demo_bt_adt()
    demo_oracle_refinement()
    demo_consistency_checking()
    demo_store_backends()
