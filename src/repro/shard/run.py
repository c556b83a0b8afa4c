"""Sharded execution: the K>1 inputs of the one run surface.

:func:`execute_sharded` hands :meth:`repro.protocols.base.ProtocolRun
.execute` one :class:`~repro.shard.node.ShardedNode` per replica on the
*real* network, each hosting one Bitcoin facet per shard and
recording into one :class:`HistoryRecorder` — hence one
:class:`ConcurrentHistory` — per shard, so the per-shard consistency
checkers judge each sub-community chain as an independent BT-ADT.  The
executor, and every ``ProtocolRun`` measurement, only ever see the
hosts' chain pipelines; with ``shards == 1`` the pipelines are the
``BitcoinNode`` replicas themselves, so a K=1 "sharded" run *is* the
single-chain run (the identity the sharding bench gates).

:class:`ShardedRun` adds what only a partitioned chain has: the
composed cross-shard atomicity verdict of
:func:`repro.shard.atomicity.check_atomicity`, and
:meth:`ShardedRun.shard_stats` packaging it with the per-shard
throughput.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, Optional

from repro.histories.builder import HistoryRecorder
from repro.protocols.base import ProtocolRun
from repro.protocols.bitcoin import BitcoinNode
from repro.shard.atomicity import AtomicityReport, check_atomicity
from repro.shard.node import ShardedNode
from repro.shard.records import parse_record
from repro.workloads.scenarios import ProtocolScenario

__all__ = ["ShardedRun", "execute_sharded"]


class ShardedRun(ProtocolRun):
    """Outcome of one sharded simulation (``scenario.shards > 1``)."""

    def atomicity(self, grace: Optional[float] = None) -> AtomicityReport:
        """The composed cross-shard verdict on the final majority chains.

        Block production stops at ``scenario.duration``, so that — not
        the end of the settle window — is the deadline a decision or
        release could still have made it on-chain; the default grace
        excuses transfers whose LOCK expired within one coordinator
        pipeline (notice tick + decision mined + ``RELEASE_DEPTH``
        confirmations + release mined ≈ 8 block intervals) of it.
        """
        if grace is None:
            node = self.nodes[0]
            grace = 8.0 * self.scenario.mean_block_interval + node.tick_interval
        in_flight = set()
        for node in self.nodes:
            in_flight |= node.in_flight_records()
        # A LOCK committed on *some* replica's adopted source chain but
        # absent from the majority view is a frozen fork tie (mining
        # stopped before the shard converged), not value minted from
        # thin air: whichever branch wins, the lock either stays
        # committed or is re-pooled and re-mined.  Count it as
        # in-flight evidence for the composed check.
        for k in range(self.shards):
            for chain in self.shard_chains(k).values():
                for block in chain.blocks:
                    for tx in block.payload:
                        meta = parse_record(tx)
                        if (
                            meta is not None
                            and meta.kind == "lock"
                            and meta.src_shard == k
                        ):
                            in_flight.add(("lock", meta.tid))
        return check_atomicity(
            self.final_majority_chains(),
            end_time=self.scenario.duration,
            grace=grace,
            in_flight=in_flight,
        )

    def shard_stats(self) -> Dict[str, Any]:
        """Per-shard throughput + the composed atomicity verdict.

        Deterministic (simulated time and chain contents only); shard
        keys are strings so the dict round-trips through JSON unchanged
        — the serial≡parallel campaign identity covers it.
        """
        mempool = self.mempool_stats()
        report = self.atomicity()
        counts = report.counts
        return {
            "shards": self.shards,
            "per_shard": mempool.get("per_shard", {}),
            "aggregate": {
                "committed_txs": mempool.get("committed", {}).get("txs", 0),
                "tx_per_s": mempool.get("committed", {}).get("tx_per_s", 0.0),
                "cross_shard": {
                    "locks": counts.get("locks", 0),
                    "commits": counts.get("commits", 0),
                    "aborts": counts.get("aborts", 0),
                    "releases": counts.get("releases", 0),
                    "pending": counts.get("pending", 0),
                    "abort_rate": report.abort_rate,
                },
            },
            "atomicity": {
                "ok": report.ok,
                "violations": list(report.violations),
                "counts": dict(counts),
            },
        }


def execute_sharded(scenario: ProtocolScenario, settle: float = 120.0) -> ProtocolRun:
    """Build, run and package a (possibly sharded) Bitcoin simulation.

    ``shards == 1`` is the single-chain pipeline itself; ``shards > 1``
    returns a :class:`ShardedRun` over one :class:`ShardedNode` per
    replica, all sharing one history recorder per shard.
    """
    if scenario.shards <= 1:
        return ProtocolRun.execute(BitcoinNode, scenario, settle=settle)
    recorders = {k: HistoryRecorder() for k in range(scenario.shards)}
    host = partial(ShardedNode, recorders=recorders)
    return ShardedRun.execute(host, scenario, settle=settle)
