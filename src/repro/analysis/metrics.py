"""Metrics over protocol runs and histories.

These are the Garay-et-al-flavoured chain metrics the paper's §5.1 cites
(chain quality, common prefix) plus the convergence
quantities the Eventual Prefix property talks about, measured rather than
checked: how long until everyone holds an update, and how deep transient
divergences go.
"""

from __future__ import annotations

from typing import Dict, List

from repro.blocktree.block import creator_name
from repro.protocols.base import ProtocolRun

__all__ = [
    "fork_rate",
    "convergence_lags",
    "divergence_depth",
    "chain_quality",
]


def fork_rate(run: ProtocolRun) -> float:
    """Fraction of non-genesis blocks that lost a sibling race.

    0.0 means a perfect chain (every block has a unique child position);
    higher values mean the oracle consumed concurrent tokens — prodigal
    behaviour under network contention.
    """
    node = run.nodes[0]
    total = max(len(node.tree) - 1, 1)
    forked = 0
    for block in node.tree.blocks():
        extra = max(node.tree.fork_degree(block.block_id) - 1, 0)
        forked += extra
    return forked / total


def convergence_lags(run: ProtocolRun) -> List[float]:
    """Per-block lag between its first and last ``update`` across replicas.

    Only blocks updated at every replica count (the converged ones); the
    lag is how long the network stayed heterogeneous for that block — the
    "finite interval of time" of the Eventual Prefix discussion.
    """
    first: Dict[str, float] = {}
    last: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for op in run.history.updates():
        block_id = str(op.args[1])
        t = op.invocation.time
        first.setdefault(block_id, t)
        last[block_id] = max(last.get(block_id, t), t)
        counts[block_id] = counts.get(block_id, 0) + 1
    n = len(run.nodes)
    return [last[b] - first[b] for b, c in sorted(counts.items()) if c >= n]


def divergence_depth(run: ProtocolRun) -> int:
    """The deepest observed divergence from the final common prefix.

    For every recorded read, count how many of its blocks are *not* on
    the final selected chain; the maximum over reads is how deep a stale
    branch ever got — 0 for fork-free (Strong Prefix) runs.
    """
    final = run.final_chains()[run.nodes[0].name]
    final_ids = set(final.block_ids())
    worst = 0
    for read in run.history.reads():
        chain = run.history.returned_chain(read)
        off = sum(1 for b in chain.non_genesis() if b.block_id not in final_ids)
        worst = max(worst, off)
    return worst


def chain_quality(run: ProtocolRun) -> Dict[str, float]:
    """Share of main-chain blocks per creator (vs. merit = fairness).

    Blocks without a creator (consensus-constructed) are grouped under
    ``"<service>"``.
    """
    final = run.final_chains()[run.nodes[0].name]
    counts: Dict[str, int] = {}
    for block in final.non_genesis():
        name = creator_name(block) or "<service>"
        counts[name] = counts.get(name, 0) + 1
    total = max(sum(counts.values()), 1)
    return {name: c / total for name, c in sorted(counts.items())}
