"""Constructive experiments for the Section 4 theorems + the registry.

Each impossibility/necessity proof in the paper *constructs* a bad
execution; these functions execute those constructions and hand the
result to the checkers:

* :func:`lemma_4_4_counterexample` — a process updates without sending
  (R1 broken): the deprived process reads a frozen chain forever and the
  Eventual Prefix checker reports the violation.
* :func:`theorem_4_7_experiment` — LRC necessity: the same gossip run
  twice, with and without a message-drop adversary; dropping even one
  block's deliveries to one process breaks R3/LRC-agreement and EC.
* :func:`theorem_4_8_execution` — the two-process synchronous execution
  of the proof: simultaneous appends on both replicas with a
  fork-allowing oracle (k ≥ 2) produce crossed updates and incomparable
  reads (Strong Prefix violated); the same schedule under Θ_F,k=1 lets
  only one consume succeed, and Strong Prefix holds.

``EXPERIMENTS`` maps every figure/table id to a callable returning a
human-readable report — the per-experiment index of DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro.blocktree.block import GENESIS, make_block
from repro.blocktree.score import LengthScore
from repro.blocktree.selection import LongestChain
from repro.blocktree.tree import BlockTree
from repro.consistency.criteria import BTEventualConsistency, BTStrongConsistency
from repro.consistency.properties import check_strong_prefix
from repro.histories.builder import HistoryRecorder
from repro.histories.continuation import (
    Continuation,
    ContinuationModel,
    GrowthMode,
)
from repro.histories.history import ConcurrentHistory
from repro.oracle.tapes import TapeSet
from repro.oracle.theta import ThetaOracle

__all__ = [
    "ExperimentReport",
    "lemma_4_4_counterexample",
    "theorem_4_7_experiment",
    "theorem_4_8_execution",
    "EXPERIMENTS",
    "run_experiment",
]

SCORE = LengthScore()


@dataclass
class ExperimentReport:
    """Outcome of one registered experiment."""

    experiment_id: str
    description: str
    verdicts: Dict[str, bool] = field(default_factory=dict)
    details: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every verdict matched the paper's expectation."""
        return all(self.verdicts.values())

    def describe(self) -> str:
        lines = [f"[{self.experiment_id}] {self.description}"]
        for name, good in self.verdicts.items():
            lines.append(f"  {'✓' if good else '✗'} {name}")
        lines.extend(f"  · {d}" for d in self.details)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Lemma 4.4 — R1/R2 necessity for Eventual Prefix.
# ---------------------------------------------------------------------------


def lemma_4_4_counterexample() -> ExperimentReport:
    """Process ``i`` updates without ever sending; ``j`` starves at b0."""
    rec = HistoryRecorder()
    tree_i = BlockTree()
    parent = GENESIS
    # i appends and reads a growing chain, never sending any update (¬R1).
    for step in range(3):
        block = make_block(parent, label=f"i{step}")
        op = rec.begin("i", "append", (block.block_id, block.parent_id))
        rec.end("i", op, "append", True)
        rec.instant("i", "update", (block.parent_id, block.block_id, "i"))
        tree_i.add_block(block)
        rec.record_read("i", tree_i.chain_to(block.block_id))
        parent = block
        # j reads between i's updates: always the genesis chain.
        rec.record_read("j", tree_i.chain_to(GENESIS.block_id))
    continuation = ContinuationModel(
        {
            "i": Continuation(True, GrowthMode.GROWING, "i-branch"),
            "j": Continuation(True, GrowthMode.FROZEN, "none"),
        }
    )
    history = rec.history(continuation=continuation)
    ec = BTEventualConsistency(score=SCORE).check(history)
    from repro.net.broadcast import check_update_agreement

    ua = check_update_agreement(history, correct_procs=["i", "j"])
    return ExperimentReport(
        experiment_id="lemma-4.4",
        description="update without send (¬R1) ⇒ Eventual Prefix violated",
        verdicts={
            "R1 violated as constructed": not ua["R1"].ok,
            "Eventual Prefix violated": not ec.checks["eventual-prefix"].ok,
            "Ever-Growing Tree violated at starved reader": not ec.checks[
                "ever-growing-tree"
            ].ok,
        },
        details=[ec.checks["eventual-prefix"].witness],
    )


# ---------------------------------------------------------------------------
# Theorem 4.7 — LRC necessity for EC (message-passing).
# ---------------------------------------------------------------------------


def theorem_4_7_experiment(seed: int = 5) -> ExperimentReport:
    """Run Bitcoin-style gossip with and without a single-victim drop rule."""
    from repro.net.broadcast import check_lrc, check_update_agreement
    from repro.net.channels import LossyChannel, SynchronousChannel
    from repro.net.faults import MessageDropAdversary
    from repro.protocols.bitcoin import BitcoinNode
    from repro.protocols.base import ProtocolRun
    from repro.workloads.scenarios import ProtocolScenario

    scenario = ProtocolScenario(
        name="bitcoin", n_nodes=4, duration=150.0, mean_block_interval=12.0, seed=seed
    )
    clean = ProtocolRun.execute(BitcoinNode, scenario)
    correct = clean.node_names
    clean_lrc = check_lrc(clean.history, correct)
    clean_ec = BTEventualConsistency(score=SCORE).check(clean.history.purged())

    # Adversary: p3 never receives any block gossip — its replica freezes.
    adversary = MessageDropAdversary(
        matcher=lambda s, d, m: d == "p3" and m[:1] == ("block-gossip",)
    )
    lossy = LossyChannel(SynchronousChannel(delta=scenario.channel_delta), adversary)
    lossy_run = ProtocolRun.execute(BitcoinNode, scenario, channel=lossy)
    # p3 still mines alone: its branch and the others' diverge forever.
    deprived_continuation = ContinuationModel(
        {
            "p0": Continuation(True, GrowthMode.GROWING, "main"),
            "p1": Continuation(True, GrowthMode.GROWING, "main"),
            "p2": Continuation(True, GrowthMode.GROWING, "main"),
            "p3": Continuation(True, GrowthMode.GROWING, "isolated"),
        }
    )
    lossy_ec = BTEventualConsistency(score=SCORE).check(
        lossy_run.history.purged(), deprived_continuation
    )
    lossy_lrc = check_lrc(lossy_run.history, correct)
    lossy_ua = check_update_agreement(lossy_run.history, correct)
    return ExperimentReport(
        experiment_id="theorem-4.7",
        description="LRC is necessary for BT Eventual Consistency",
        verdicts={
            "clean run satisfies LRC": all(c.ok for c in clean_lrc.values()),
            "clean run satisfies EC": clean_ec.ok,
            "drops break LRC agreement": not lossy_lrc["agreement"].ok,
            "drops break Update Agreement R3": not lossy_ua["R3"].ok,
            "drops break EC": not lossy_ec.ok,
        },
        details=[f"messages dropped: {adversary.dropped}"],
    )


# ---------------------------------------------------------------------------
# Theorem 4.8 — Strong Prefix impossible with fork-allowing oracles.
# ---------------------------------------------------------------------------


def theorem_4_8_execution(k: float = 2, seed: int = 3) -> ConcurrentHistory:
    """The proof's execution: simultaneous appends, crossed updates.

    Two correct processes ``i`` and ``j`` hold replicas ``bt_i = bt_j =
    b0``; at ``t0`` both invoke ``append`` with ``f`` selecting ``b0`` on
    both sides; with cap ``k`` the oracle consumes up to ``k`` of the two
    tokens.  Updates cross over synchronous channels; before ``t0 + δ``
    each process reads its own replica: with ``k ≥ 2`` the reads return
    ``b0⌢bi`` vs ``b0⌢bj`` — incomparable.  With ``k = 1`` the second
    consume is refused and no fork exists.
    """
    tapes = TapeSet(seed=seed, default_probability=1.0)
    oracle = ThetaOracle(k=k, tapes=tapes)
    rec = HistoryRecorder()
    selection = LongestChain()
    tree_i, tree_j = BlockTree(), BlockTree()

    b_i = make_block(GENESIS, label="bi")
    b_j = make_block(GENESIS, label="bj")
    # Simultaneous refined appends at t0 (both f(bt) = b0).
    ti = oracle.get_token(GENESIS, b_i, "i")
    tj = oracle.get_token(GENESIS, b_j, "j")
    op_i = rec.begin("i", "append", (ti.block.block_id, GENESIS.block_id))
    op_j = rec.begin("j", "append", (tj.block.block_id, GENESIS.block_id))
    bucket_after_i = oracle.consume_token(ti)
    ok_i = any(b.block_id == ti.block.block_id for b in bucket_after_i)
    bucket_after_j = oracle.consume_token(tj)
    ok_j = any(b.block_id == tj.block.block_id for b in bucket_after_j)
    rec.end("i", op_i, "append", ok_i)
    rec.end("j", op_j, "append", ok_j)
    # Local updates first, crossed remote updates delivered within δ.
    if ok_i:
        tree_i.add_block(ti.block)
        rec.instant("i", "update", (GENESIS.block_id, ti.block.block_id, "i"))
    if ok_j:
        tree_j.add_block(tj.block)
        rec.instant("j", "update", (GENESIS.block_id, tj.block.block_id, "j"))
    # Reads at t < t0 + δ — before the crossed updates arrive.
    rec.record_read("i", selection.select(tree_i))
    rec.record_read("j", selection.select(tree_j))
    # The crossed deliveries then arrive (completing LRC).
    if ok_i:
        rec.instant("j", "receive", (GENESIS.block_id, ti.block.block_id, "i"))
        tree_j.add_block(ti.block)
        rec.instant("j", "update", (GENESIS.block_id, ti.block.block_id, "i"))
    if ok_j:
        rec.instant("i", "receive", (GENESIS.block_id, tj.block.block_id, "j"))
        tree_i.add_block(tj.block)
        rec.instant("i", "update", (GENESIS.block_id, tj.block.block_id, "j"))
    rec.record_read("i", selection.select(tree_i))
    rec.record_read("j", selection.select(tree_j))
    return rec.history(continuation=ContinuationModel.all_growing(["i", "j"]))


def theorem_4_8_report() -> ExperimentReport:
    """Both halves of Theorem 4.8 / Corollary 4.8.1."""
    forked = theorem_4_8_execution(k=2)
    fork_sp = check_strong_prefix(forked, forked.continuation)
    chained = theorem_4_8_execution(k=1)
    chain_sp = check_strong_prefix(chained, chained.continuation)
    chain_appends = [op.result for op in chained.appends()]
    return ExperimentReport(
        experiment_id="theorem-4.8",
        description="Strong Prefix impossible with fork-allowing oracles",
        verdicts={
            "k=2 execution violates Strong Prefix": not fork_sp.ok,
            "k=1 execution preserves Strong Prefix": chain_sp.ok,
            "k=1 refuses the second simultaneous append": chain_appends.count(False) == 1,
        },
        details=[fork_sp.witness],
    )


# ---------------------------------------------------------------------------
# Registry.
# ---------------------------------------------------------------------------


def _figure_reports() -> Dict[str, Callable[[], ExperimentReport]]:
    from repro.paper.figures import (
        figure13_history,
        figure2_history,
        figure3_history,
        figure4_history,
    )

    def fig2() -> ExperimentReport:
        h = figure2_history()
        sc = BTStrongConsistency(score=SCORE).check(h)
        ec = BTEventualConsistency(score=SCORE).check(h)
        return ExperimentReport(
            "figure-2",
            "history satisfying BT Strong consistency",
            {"SC satisfied": sc.ok, "EC satisfied (Thm 3.1)": ec.ok},
        )

    def fig3() -> ExperimentReport:
        h = figure3_history()
        sc = BTStrongConsistency(score=SCORE).check(h)
        ec = BTEventualConsistency(score=SCORE).check(h)
        return ExperimentReport(
            "figure-3",
            "history in EC \\ SC (fork then convergence)",
            {"EC satisfied": ec.ok, "SC violated": not sc.ok},
            details=[sc.checks["strong-prefix"].witness],
        )

    def fig4() -> ExperimentReport:
        h = figure4_history()
        sc = BTStrongConsistency(score=SCORE).check(h)
        ec = BTEventualConsistency(score=SCORE).check(h)
        return ExperimentReport(
            "figure-4",
            "history satisfying no BT consistency criterion",
            {"SC violated": not sc.ok, "EC violated": not ec.ok},
        )

    def fig13() -> ExperimentReport:
        from repro.net.broadcast import check_update_agreement

        h = figure13_history()
        ua = check_update_agreement(h, correct_procs=["i", "j", "k"])
        return ExperimentReport(
            "figure-13",
            "history satisfying Update Agreement R1/R2/R3",
            {name: check.ok for name, check in ua.items()},
        )

    return {"figure-2": fig2, "figure-3": fig3, "figure-4": fig4, "figure-13": fig13}


EXPERIMENTS: Dict[str, Callable[[], ExperimentReport]] = {
    **_figure_reports(),
    "lemma-4.4": lemma_4_4_counterexample,
    "theorem-4.7": theorem_4_7_experiment,
    "theorem-4.8": theorem_4_8_report,
}


def run_experiment(experiment_id: str) -> ExperimentReport:
    """Run one registered experiment by id."""
    return EXPERIMENTS[experiment_id]()
