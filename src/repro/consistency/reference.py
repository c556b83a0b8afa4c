"""Pairwise reference implementations of the batch consistency checkers.

These are the pre-ancestry-index algorithms, kept verbatim as the
*oracle* the near-linear checkers in
:mod:`repro.consistency.properties` are differentially tested against
(``tests/test_checkers_differential.py``) and as the baseline the
consistency benches compare against
(``benchmarks/test_bench_consistency.py``):

* **Strong Prefix** compares every unordered pair of returned chains —
  O(reads² · chain length);
* **Eventual Prefix** takes the minimum over all pairwise maximal
  common-prefix scores of the frozen limit chains;
* **Block Validity** re-scans every chain of every read against the
  append log.

All prefix decisions go through the retained tuple-walking algebra of
:mod:`repro.blocktree.reference`, so this module exercises none of the
ancestry index it is the oracle for.  Nothing under ``src/repro`` calls
it (``tests/test_reference_isolation.py``): the near-linear checkers
state their own witnesses.  The differential tests hold Block Validity
and Eventual Prefix to :class:`PropertyCheck` equality with this
module — witness included — and Strong Prefix to the same verdict and
failing clause, with a named pair that is incomparable under
``tuple_comparable`` (the running-maximum scan stops at a different,
equally valid pair than the ``for i: for j > i`` order here).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro._util import pairwise_unordered
from repro.blocktree.reference import (
    tuple_comparable,
    tuple_is_prefix_of,
    tuple_mcps,
)
from repro.blocktree.score import ScoreFunction
from repro.consistency.properties import (
    PropertyCheck,
    _limit_chains,
    program_order_reaches,
)
from repro.histories.continuation import ContinuationModel
from repro.histories.events import Event
from repro.histories.history import ConcurrentHistory

__all__ = [
    "pairwise_check_block_validity",
    "pairwise_check_strong_prefix",
    "pairwise_check_eventual_prefix",
]


def pairwise_check_block_validity(
    history: ConcurrentHistory,
    valid_block_ids: Optional[Set[str]] = None,
    strict_order: bool = False,
):
    """Block Validity by full per-read chain rescan (the original)."""
    append_invocations: Dict[str, List[Event]] = {}
    for op in history.appends():
        if op.args:
            append_invocations.setdefault(str(op.args[0]), []).append(op.invocation)
    for read in history.reads():
        chain = history.returned_chain(read)
        for block in chain.non_genesis():
            if valid_block_ids is not None and block.block_id not in valid_block_ids:
                return PropertyCheck(
                    "block-validity",
                    False,
                    f"read {read.op_id} at {read.proc} returned invalid block "
                    f"{block.short()} (∉ B′)",
                )
            invs = append_invocations.get(block.block_id, [])
            if strict_order:
                ordered = any(
                    program_order_reaches(history, inv, read.response) for inv in invs
                )
            else:
                ordered = any(inv.eid < read.resp_eid for inv in invs)
            if not ordered:
                return PropertyCheck(
                    "block-validity",
                    False,
                    f"read {read.op_id} at {read.proc} returned block "
                    f"{block.short()} with no prior append invocation",
                )
    return PropertyCheck("block-validity", True)


def pairwise_check_strong_prefix(
    history: ConcurrentHistory, continuation: Optional[ContinuationModel] = None
):
    """Strong Prefix by comparing all unordered read pairs (the original)."""
    reads = history.reads()
    chains = [(r, history.returned_chain(r)) for r in reads]
    for (r1, c1), (r2, c2) in pairwise_unordered(chains):
        if not tuple_comparable(c1, c2):
            return PropertyCheck(
                "strong-prefix",
                False,
                f"reads {r1.op_id}@{r1.proc} and {r2.op_id}@{r2.proc} returned "
                f"diverging chains [{c1.describe()}] vs [{c2.describe()}]",
            )
    if continuation is not None:
        limits = _limit_chains(history, continuation)
        limit_items = sorted(limits.items())
        for (p1, (g1, l1)), (p2, (g2, l2)) in pairwise_unordered(limit_items):
            if g1 == g2 and g1 != "<frozen>":
                continue  # same growing branch
            if not tuple_comparable(l1, l2):
                return PropertyCheck(
                    "strong-prefix",
                    False,
                    f"limit chains of {p1} and {p2} diverge: "
                    f"[{l1.describe()}] vs [{l2.describe()}]",
                )
        for read, chain in chains:
            for proc, (group, limit) in limit_items:
                if group != "<frozen>":
                    # A growing branch extends forever: every observed chain
                    # must be a prefix of (or equal to) the branch to remain
                    # comparable with its unbounded extensions.
                    if not tuple_is_prefix_of(chain, limit):
                        return PropertyCheck(
                            "strong-prefix",
                            False,
                            f"read {read.op_id}@{read.proc} chain "
                            f"[{chain.describe()}] diverges from growing branch "
                            f"of {proc}",
                        )
                elif not tuple_comparable(chain, limit):
                    return PropertyCheck(
                        "strong-prefix",
                        False,
                        f"read {read.op_id}@{read.proc} chain diverges from "
                        f"frozen limit of {proc}",
                    )
    return PropertyCheck("strong-prefix", True)


def pairwise_check_eventual_prefix(
    history: ConcurrentHistory,
    score: ScoreFunction,
    continuation: Optional[ContinuationModel] = None,
):
    """Eventual Prefix via all pairwise limit-chain mcps (the original)."""
    model = continuation if continuation is not None else history.continuation
    if model is None:
        return PropertyCheck("eventual-prefix", True, "complete history (vacuous)")
    limits = _limit_chains(history, model)
    if not limits:
        return PropertyCheck("eventual-prefix", True, "no process reads forever")
    growing = {p: gl for p, gl in limits.items() if gl[0] != "<frozen>"}
    frozen = {p: gl for p, gl in limits.items() if gl[0] == "<frozen>"}
    if growing:
        groups = {g for g, _ in growing.values()}
        if len(groups) > 1:
            g1, g2 = sorted(groups)[:2]
            return PropertyCheck(
                "eventual-prefix",
                False,
                f"growth groups {g1!r} and {g2!r} diverge forever: future read "
                "scores grow unboundedly past their fixed common prefix",
            )
        if frozen:
            fp = sorted(frozen)[0]
            return PropertyCheck(
                "eventual-prefix",
                False,
                f"process {fp} is frozen while others grow: growing reads "
                "eventually score past the fixed common prefix with "
                f"{fp}'s final chain",
            )
        return PropertyCheck("eventual-prefix", True)
    # All reads-forever processes frozen: the minimal pairwise common-prefix
    # score must cover every score ever read (observed or final).
    chains = [c for _, c in frozen.values()]
    min_pair = float("inf")
    for c1, c2 in pairwise_unordered(chains):
        min_pair = min(min_pair, tuple_mcps(c1, c2, score))
    observed = [score(history.returned_chain(r)) for r in history.reads()]
    observed.extend(score(c) for c in chains)
    s_max = max(observed, default=score.genesis_score)
    if min_pair < s_max:
        return PropertyCheck(
            "eventual-prefix",
            False,
            f"frozen limit chains agree only up to score {min_pair} but a read "
            f"scored {s_max}",
        )
    return PropertyCheck("eventual-prefix", True)
