"""One benchmark cell: scenario → verdict in a fresh process.

``bench/run.py`` starts this file once per cell (cold caches, GC at
defaults, single thread) and reads one JSON object from its last stdout
line.  Phases are timed from outside the program through its public
functions: **build** is the runner call (its ``wall_clock_s``, the time
inside ``Simulator.run``, is the *run* phase; the rest plus interpreter
start and imports is *setup*), **judge** is ``classify_run``, **stats** is
the run object's ``*_stats`` surfaces.  Validity guards and the
``sim_digest`` are computed after the clock stops.
"""

from __future__ import annotations

import time

_PROCESS_START = time.monotonic()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from typing import Any, Dict, List, Tuple  # noqa: E402

_HERE = os.path.dirname(os.path.abspath(__file__))

#: ``Simulator.run``'s default ``max_events``: reaching it means the run
#: was silently truncated.
MAX_EVENTS = 10_000_000

#: Table 1 rows whose blocks are decided by a ``repro.consensus`` component.
CONSENSUS_PROTOCOLS = ("algorand", "byzcoin", "peercensus", "redbelly", "hyperledger")


class GuardError(RuntimeError):
    """A validity guard tripped: the cell's numbers must not be reported."""


def _chain_tx_count(chain: Any) -> int:
    return sum(len(block.payload) for block in chain.blocks if not block.is_genesis)


def _histories(run: Any) -> List[Any]:
    if getattr(run, "shards", 1) > 1:
        return [run.histories[k] for k in sorted(run.histories)]
    return [run.history]


def _final_tips(run: Any) -> List[Tuple[str, int, str, int]]:
    """``(node, shard, tip id, height)`` for every replica chain."""
    if getattr(run, "shards", 1) > 1:
        return [
            (name, shard, chain.tip_id, chain.height)
            for shard in range(run.shards)
            for name, chain in sorted(run.shard_chains(shard).items())
        ]
    return [
        (name, 0, chain.tip_id, chain.height)
        for name, chain in sorted(run.final_chains().items())
    ]


def _majority_chains(run: Any) -> List[Any]:
    from repro.protocols.classify import majority_view

    if getattr(run, "shards", 1) > 1:
        return list(run.final_majority_chains().values())
    return [majority_view(run.final_chains())]


def _sum_per_node(stats: Dict[str, Any]) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for node_stats in stats.get("per_node", {}).values():
        for key, value in node_stats.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                totals[key] = totals.get(key, 0) + value
    return totals


def measure(args: argparse.Namespace) -> Dict[str, Any]:
    tracer = None
    if args.trace:
        from trace import Tracer

        tracer = Tracer()

    def phase(name: str) -> Any:
        return tracer.span(f"phase.{name}") if tracer else nullcontext()

    with phase("imports"):
        sys.path.insert(0, os.path.join(_HERE, os.pardir, "src"))
        from repro.protocols.classify import classify_run
        from repro.workloads.scenarios import derive_seed
        from workloads import SMOKE_DIVISOR, WORKLOADS

    if tracer:
        tracer.install()
    workload = WORKLOADS[args.workload]
    duration = workload.duration / (SMOKE_DIVISOR if args.smoke else 1.0)
    seed = derive_seed(args.seed, workload.name, args.index)

    with phase("build"):
        runs = [
            (protocol, runner(scenario))
            for protocol, runner, scenario in workload.build(
                workload.name, seed, duration, args.tmp
            )
        ]
    built = time.monotonic()
    with phase("judge"):
        rows = [classify_run(protocol, run) for protocol, run in runs]
    judged = time.monotonic()
    with phase("stats"):
        stats = [
            {
                "mempool": run.mempool_stats(),
                "sync": run.sync_stats(),
                "auth": run.auth_stats(),
                "shard": run.shard_stats() if hasattr(run, "shard_stats") else {},
            }
            for _, run in runs
        ]
    done = time.monotonic()

    run_s = sum(run.wall_clock_s for _, run in runs)
    result: Dict[str, Any] = {
        "workload": workload.name,
        "index": args.index,
        "cell_seed": seed,
        "traced": bool(tracer),
        "wall": {
            "setup_s": built - args.spawned_at - run_s,
            "run_s": run_s,
            "judge_s": judged - built,
            "stats_s": done - judged,
            "cell_s": done - args.spawned_at,
            "interpreter_s": _PROCESS_START - args.spawned_at,
        },
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    result.update(summarize(workload, duration, runs, rows, stats))
    if tracer:
        result["trace"] = tracer.report()
    return result


def summarize(
    workload: Any,
    duration: float,
    runs: List[Tuple[str, Any]],
    rows: List[Any],
    stats: List[Dict[str, Any]],
) -> Dict[str, Any]:
    """Counts, simulated-time metrics, guards and digest (not timed)."""
    events = sum(run.events_executed for _, run in runs)
    reads = history_events = appends_begun = appends_failed = 0
    for _, run in runs:
        for history in _histories(run):
            history_events += len(history.events)
            for event in history.events:
                if event.kind.name != "RESPONSE":
                    continue
                if event.op_name == "read":
                    reads += 1
                elif event.op_name == "append":
                    appends_begun += 1
                    appends_failed += event.result is not True
    chains = [chain for _, run in runs for chain in _majority_chains(run)]
    blocks_committed = sum(chain.height for chain in chains)

    mempool = [s["mempool"] for s in stats if s["mempool"]]
    if workload.traffic:
        committed_tx = sum(m["committed"]["txs"] for m in mempool)
        submitted_tx = sum(m["committed"]["submitted"] for m in mempool)
        failed_share = (submitted_tx - committed_tx) / submitted_tx
    else:
        committed_tx = sum(_chain_tx_count(chain) for chain in chains)
        submitted_tx = 0
        failed_share = appends_failed / appends_begun if appends_begun else 0.0
    latency = mempool[0]["committed"]["latency"] if mempool else {}
    sync_totals = [s["sync"]["totals"] for s in stats if s["sync"]]
    auth_totals = [s["auth"]["totals"] for s in stats if s["auth"]]
    shard_stats = [s["shard"] for s in stats if s["shard"]]
    auth_rejects = sum(
        value
        for totals in auth_totals
        for key, value in totals.items()
        if key.startswith(("block:", "tx:"))
    )

    # -- validity guards ------------------------------------------------------
    for (protocol, run), row in zip(runs, rows):
        if run.events_executed >= MAX_EVENTS:
            raise GuardError(f"{protocol}: run truncated at max_events={MAX_EVENTS}")
        if run.unknown_append_resolutions() != 0:
            raise GuardError(f"{protocol}: unknown append resolutions")
        if not row.ec_ok:
            raise GuardError(f"{protocol}: Eventual Consistency fails")
        if workload.name == "table1-default" and not row.matches_paper:
            raise GuardError(
                f"{protocol}: measured {row.measured_refinement}, "
                f"paper says {row.expected_refinement}"
            )
    for shard in shard_stats:
        if not shard["atomicity"]["ok"]:
            raise GuardError(f"atomicity: {shard['atomicity']['violations'][:3]}")
        if shard["aggregate"]["cross_shard"]["locks"] == 0:
            raise GuardError("no cross-shard transfer was locked")
    if workload.name == "lifecycle-signed-n8":
        if sum(t["syncs_completed"] for t in sync_totals) < 2:
            raise GuardError("fewer than 2 fast syncs completed")
        if auth_rejects:
            raise GuardError(f"{auth_rejects} signature rejects in an honest run")

    digest = hashlib.sha256(
        json.dumps(
            {
                "events": [run.events_executed for _, run in runs],
                "messages": [run.network.messages_sent for _, run in runs],
                "tips": [_final_tips(run) for _, run in runs],
                "rows": [list(row.as_tuple()) for row in rows],
                "committed_tx": committed_tx,
            },
            sort_keys=True,
        ).encode()
    ).hexdigest()

    # -- per-layer counters from the program's own stats surfaces -------------
    pool = [_sum_per_node(m) for m in mempool]
    gossip = [
        _sum_per_node(run.gossip_stats())
        for _, run in runs
        if hasattr(run, "gossip_stats")
    ]
    cross = [s["aggregate"]["cross_shard"] for s in shard_stats]
    layers = {
        "net.simulator.events": events,
        "net.process.messages_sent": sum(r.network.messages_sent for _, r in runs),
        "net.process.dropped": sum(r.network.messages_dropped for _, r in runs),
        "net.faults.dropped": sum(
            adversary.dropped
            for _, run in runs
            for group in run.faults.values()
            for adversary in (group if isinstance(group, tuple) else (group,))
            if hasattr(adversary, "dropped")
        ),
        "net.reconcile.rounds": sum(g.get("rounds_started", 0) for g in gossip),
        "net.reconcile.full_fallbacks": sum(g.get("full_fallbacks", 0) for g in gossip),
        "net.reconcile.tx_gossip_received": sum(
            p.get("tx_gossip_received", 0) for p in pool
        ),
        "net.reconcile.tx_gossip_duplicates": sum(
            p.get("tx_gossip_duplicates", 0) for p in pool
        ),
        "blocktree.blocks_total": sum(
            tree_stats["blocks"]
            for _, run in runs
            if hasattr(run, "storage_stats")
            for tree_stats in run.storage_stats().values()
        ),
        "blocktree.max_fork_degree": max(row.max_fork_degree for row in rows),
        "mempool.ingested": sum(p.get("ingested", 0) for p in pool),
        "mempool.accepted": sum(p.get("accepted", 0) for p in pool),
        "mempool.evicted": sum(p.get("evicted", 0) for p in pool),
        "crypto.auth.verified": sum(t.get("verified", 0) for t in auth_totals),
        "crypto.auth.cache_hits": sum(t.get("cache_hits", 0) for t in auth_totals),
        "crypto.auth.rejects": auth_rejects,
        "consensus.decisions": sum(
            row.blocks_committed
            for (protocol, _), row in zip(runs, rows)
            if workload.name == "table1-default" and protocol in CONSENSUS_PROTOCOLS
        ),
        "shard.locks": sum(c["locks"] for c in cross),
        "shard.commits": sum(c["commits"] for c in cross),
        "shard.aborts": sum(c["aborts"] for c in cross),
        "histories.events": history_events,
        "consistency.reads_judged": reads,
        "workloads.traffic.submissions": sum(
            len(subs)
            for _, run in runs
            for subs in (
                run.submissions.values()
                if isinstance(run.submissions, dict)
                else (run.submissions,)
            )
        ),
    }
    for key in (
        "syncs_completed",
        "syncs_failed",
        "blocks_synced",
        "retries",
        "timeouts",
    ):
        layers[f"net.sync.{key}"] = sum(t[key] for t in sync_totals)

    return {
        "counts": {
            "events": events,
            "reads": reads,
            "appends_begun": appends_begun,
            "appends_failed": appends_failed,
            "committed_tx": committed_tx,
            "submitted_tx": submitted_tx,
            "blocks_committed": blocks_committed,
        },
        "sim": {
            "committed_tx_per_sim_s": committed_tx / (duration * len(runs)),
            "confirm_p50_s": latency.get("p50", 0.0),
            "confirm_p90_s": latency.get("p90", 0.0),
            "confirm_observed": latency.get("observed", 0),
            "catch_up_s": sum(t["catch_up_s"] for t in sync_totals),
            "failed_ops_share": failed_share,
        },
        "sim_digest": digest,
        "rows": [list(row.as_tuple()) for row in rows],
        "layers": layers,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--smoke", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--tmp", required=True, help="scratch dir for log stores")
    parser.add_argument(
        "--spawned-at", type=float, required=True, help="parent's time.monotonic()"
    )
    args = parser.parse_args()
    try:
        result = measure(args)
    except GuardError as error:
        result = {"guard": str(error)}
    print(json.dumps(result))
    return 1 if "guard" in result else 0


if __name__ == "__main__":
    sys.exit(main())
