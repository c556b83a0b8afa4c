"""The repo's end-to-end benchmark: ``python3 bench/run.py``.

Runs each workload of ``BENCHMARK.json`` as a series of *cells* — one
fresh ``bench/cell.py`` process per cell, one at a time — until
``--seconds`` of wall time are used.  Cell ``i`` runs input ``i mod 4``,
seeded ``derive_seed(seed, workload, i mod 4)``, so a run measures four
inputs a few times each.  Every cell's validity guards are checked, every
metric is printed by name with its unit, and one JSON object per workload
ends stdout.

A metric's value is the **median over the inputs of the best repeat of
each input**.  Repeats of one input do identical work, so the best repeat
(least time, highest rate) discards the one-sided noise of a shared host,
where a neighbour on the sibling hyperthread slows a process ~1.5x for
seconds at a time; the median over inputs keeps a lucky seed from
speaking for the run.  Repeats must also agree on ``sim_digest``.

``--trace 0`` (default) reports the end-to-end metrics from untraced
cells.  ``--trace 1`` runs (untraced, traced) pairs of the same cell,
fails if their ``sim_digest`` differ, and reports the per-layer metrics;
end-to-end numbers never come from traced cells.  Exit status is non-zero,
and no metrics are printed, when any validity guard trips.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CELL_TIMEOUT_S = 150


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single sample is its own quartiles."""
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q1, median, q3)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# -- end-to-end metrics ---------------------------------------------------------

Cell = Dict[str, Any]

#: Distinct inputs (sub-seeds) per run; cell ``i`` runs input ``i % INPUTS``.
INPUTS = 4

#: Per-cell value of each end-to-end metric.  Rates divide a count that is
#: exact for the cell's seed by the wall time of the phase that produced
#: it, so a seed that drew more blocks does not read as a slower program.
END_TO_END: Dict[str, Callable[[Cell], float]] = {
    "setup_s": lambda c: c["wall"]["setup_s"],
    "events_per_wall_s": lambda c: c["counts"]["events"] / c["wall"]["run_s"],
    "committed_tx_per_wall_s": lambda c: (
        c["counts"]["committed_tx"] / c["wall"]["cell_s"]
    ),
    "peak_rss_mb": lambda c: c["peak_rss_mb"],
}


def best_per_input(
    cells: List[Cell], value: Callable[[Cell], float], higher_is_better: bool
) -> List[float]:
    """The best repeat of each input, in input order."""
    best = max if higher_is_better else min
    by_input: Dict[int, List[float]] = {}
    for cell in cells:
        by_input.setdefault(cell["index"], []).append(value(cell))
    return [best(values) for _, values in sorted(by_input.items())]


def end_to_end(cells: List[Cell], spec: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    out: Dict[str, Dict[str, Any]] = {}
    for metric in spec["end_to_end"]:
        samples = best_per_input(
            cells, END_TO_END[metric["name"]], metric["better"] == "higher"
        )
        q1, median, q3 = quartiles(samples)
        out[metric["name"]] = {"value": median, "q1": q1, "q3": q3}
    return out


def phase_seconds(cells: List[Cell]) -> Dict[str, float]:
    """Wall seconds per phase (same aggregation; reported, not gated:
    they follow the block count a seed happens to draw)."""
    return {
        phase: statistics.median(
            best_per_input(cells, lambda c, p=phase: c["wall"][p], False)
        )
        for phase in ("setup_s", "run_s", "judge_s", "stats_s", "cell_s")
    }


# -- per-layer metrics ----------------------------------------------------------


def per_layer(
    traced: List[Cell], untraced: List[Cell], spans: Dict[str, Dict[str, float]]
) -> Dict[str, float]:
    """Per-layer metrics: per-cell means over the traced cells.

    ``*_calls`` and ``*_self_s`` come from ``spans`` (the tracer's sums
    over the traced cells), the other counters from the program's own
    stats surfaces, ratios are ratios of sums, and ``sim.*`` are the
    simulated-time results of input 0.
    """
    n = len(traced)
    idle = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    counters: Dict[str, float] = {}
    for cell in traced:
        for name, value in cell["layers"].items():
            if name == "blocktree.max_fork_degree":
                counters[name] = max(counters.get(name, 0), value)
            else:
                counters[name] = counters.get(name, 0) + value

    def calls(span: str) -> float:
        return spans.get(span, idle)["calls"] / n

    def total_s(span: str) -> float:
        return spans.get(span, idle)["total_s"] / n

    def self_s(*names: str) -> float:
        return sum(spans.get(span, idle)["self_s"] for span in names) / n

    def count(name: str) -> float:
        return counters[name] / n

    traced_wall = sum(c["wall"]["cell_s"] for c in traced)
    sim = untraced[0]["sim"]
    auth_lookups = counters["crypto.auth.verified"] + counters["crypto.auth.cache_hits"]
    return {
        "net.simulator.events": count("net.simulator.events"),
        "net.simulator.self_s": self_s("net.simulator.run"),
        "net.simulator.us_per_event": 1e6
        * ratio(self_s("net.simulator.run"), count("net.simulator.events")),
        "net.process.messages_sent": count("net.process.messages_sent"),
        "net.process.transmit_self_s": self_s("net.process.transmit"),
        "net.process.deliver_self_s": self_s("net.process.deliver"),
        "net.process.dropped": count("net.process.dropped"),
        "net.channels.delay_calls": calls("net.channels.delay"),
        "net.channels.self_s": self_s("net.channels.delay"),
        "net.faults.dropped": count("net.faults.dropped"),
        "net.faults.self_s": self_s("net.faults.drop"),
        "net.overlay.build_s": total_s("net.overlay.build"),
        "net.overlay.neighbors_calls": calls("net.overlay.neighbors"),
        "net.reconcile.on_message_self_s": self_s("net.reconcile.on_message"),
        "net.reconcile.relay_self_s": self_s("net.reconcile.relay"),
        "net.reconcile.wire_size_calls": calls("net.reconcile.wire_size"),
        "net.reconcile.wire_size_self_s": self_s("net.reconcile.wire_size"),
        "net.reconcile.rounds": count("net.reconcile.rounds"),
        "net.reconcile.duplicate_relay_ratio": ratio(
            counters["net.reconcile.tx_gossip_duplicates"],
            counters["net.reconcile.tx_gossip_received"],
        ),
        "net.sketch.build_calls": calls("net.sketch.build"),
        "net.sketch.build_self_s": self_s("net.sketch.build"),
        "net.sketch.decode_calls": calls("net.sketch.decode"),
        "net.sketch.decode_self_s": self_s("net.sketch.decode", "net.sketch.subtract"),
        "net.sketch.decode_ok_ratio": ratio(
            calls("net.sketch.decode") - count("net.reconcile.full_fallbacks"),
            calls("net.sketch.decode"),
        ),
        "util.prf_uint64.calls": calls("util.prf_uint64"),
        "util.prf_uint64.self_s": self_s("util.prf_uint64"),
        "util.stable_repr.self_s": self_s("util.stable_repr"),
        "net.sync.syncs_completed": count("net.sync.syncs_completed"),
        "net.sync.syncs_failed": count("net.sync.syncs_failed"),
        "net.sync.blocks_synced": count("net.sync.blocks_synced"),
        "net.sync.retries": count("net.sync.retries"),
        "net.sync.timeouts": count("net.sync.timeouts"),
        "net.sync.self_s": self_s("net.sync.on_message", "net.sync.start_sync"),
        "protocols.base.on_gossip_self_s": self_s("protocols.base.on_gossip"),
        "protocols.base.ingest_txs_self_s": self_s("protocols.base.ingest_txs"),
        "protocols.base.adopt_block_calls": calls("protocols.base.adopt_block"),
        "protocols.base.adopt_block_self_s": self_s("protocols.base.adopt_block"),
        "protocols.base.select_chain_calls": calls("protocols.base.select_chain"),
        "protocols.base.select_chain_self_s": self_s("protocols.base.select_chain"),
        "protocols.base.stats_s": total_s("phase.stats"),
        "protocols.models.on_timer_self_s": self_s("protocols.models.on_timer"),
        "blocktree.add_block_calls": calls("blocktree.add_block"),
        "blocktree.add_block_self_s": self_s("blocktree.add_block"),
        "blocktree.selection_calls": calls("blocktree.selection"),
        "blocktree.selection_self_s": self_s("blocktree.selection"),
        "blocktree.blocks_total": count("blocktree.blocks_total"),
        "blocktree.max_fork_degree": counters["blocktree.max_fork_degree"],
        "blocktree.replay_s": total_s("blocktree.replay"),
        "storage.put_calls": calls("storage.put"),
        "storage.put_self_s": self_s("storage.put"),
        "storage.get_calls": calls("storage.get"),
        "storage.scan_s": total_s("storage.scan"),
        "mempool.add_batch_calls": calls("mempool.add_batch"),
        "mempool.add_batch_self_s": self_s("mempool.add_batch"),
        "mempool.admit_ratio": ratio(
            counters["mempool.accepted"], counters["mempool.ingested"]
        ),
        "mempool.evicted": count("mempool.evicted"),
        "mempool.observe_chain_calls": calls("mempool.observe_chain"),
        "mempool.observe_chain_self_s": self_s("mempool.observe_chain"),
        "mempool.pack_calls": calls("mempool.pack"),
        "mempool.pack_self_s": self_s("mempool.pack"),
        "mempool.utxo_sync_self_s": self_s("mempool.utxo_sync"),
        "crypto.auth.check_block_calls": calls("crypto.auth.check_block"),
        "crypto.auth.check_tx_calls": calls("crypto.auth.check_tx"),
        "crypto.auth.verify_self_s": self_s(
            "crypto.auth.check_block", "crypto.auth.check_tx"
        ),
        "crypto.auth.sign_self_s": self_s("crypto.auth.sign"),
        "crypto.auth.prime_batch_calls": calls("crypto.auth.prime_batch"),
        "crypto.auth.prime_batch_self_s": self_s("crypto.auth.prime_batch"),
        "crypto.auth.cache_hit_ratio": ratio(
            counters["crypto.auth.cache_hits"], auth_lookups
        ),
        "crypto.auth.rejects": count("crypto.auth.rejects"),
        "consensus.pbft.on_message_calls": calls("consensus.pbft.on_message"),
        "consensus.pbft.self_s": self_s(
            "consensus.pbft.on_message", "consensus.pbft.on_timer"
        ),
        "consensus.ordering.self_s": self_s(
            "consensus.ordering.on_message", "consensus.ordering.on_timer"
        ),
        "consensus.ba_star.self_s": self_s(
            "consensus.ba_star.on_message", "consensus.ba_star.on_timer"
        ),
        "consensus.relay.calls": calls("consensus.relay.on_message"),
        "consensus.decisions": count("consensus.decisions"),
        "shard.node.on_message_self_s": self_s("shard.node.on_message"),
        "shard.locks": count("shard.locks"),
        "shard.commits": count("shard.commits"),
        "shard.aborts": count("shard.aborts"),
        "shard.atomicity_s": total_s("shard.atomicity"),
        "histories.record_calls": calls("histories.record"),
        "histories.record_self_s": self_s("histories.record"),
        "histories.build_s": total_s("histories.build"),
        "histories.events": count("histories.events"),
        "consistency.strong_s": total_s("consistency.strong"),
        "consistency.eventual_s": total_s("consistency.eventual"),
        "consistency.strong_prefix_s": total_s("consistency.strong_prefix"),
        "consistency.reads_judged": count("consistency.reads_judged"),
        "workloads.traffic.compile_s": total_s("workloads.traffic.compile"),
        "workloads.traffic.submissions": count("workloads.traffic.submissions"),
        "trace.overhead_ratio": ratio(
            sum(c["wall"]["run_s"] for c in traced),
            sum(c["wall"]["run_s"] for c in untraced),
        ),
        "trace.coverage_ratio": ratio(
            sum(span["self_s"] for span in spans.values()), traced_wall
        ),
        "sim.committed_tx_per_sim_s": sim["committed_tx_per_sim_s"],
        "sim.confirm_p50_s": sim["confirm_p50_s"],
        "sim.confirm_p90_s": sim["confirm_p90_s"],
        "sim.catch_up_s": sim["catch_up_s"],
        "sim.failed_ops_share": sim["failed_ops_share"],
    }


# -- running cells --------------------------------------------------------------


class BenchError(RuntimeError):
    """A cell failed or a validity guard tripped."""


def run_cell(
    workload: str, seed: int, index: int, smoke: bool, trace: bool, tmp: str
) -> Cell:
    store_dir = tempfile.mkdtemp(prefix="store-", dir=tmp)
    command = [
        sys.executable,
        os.path.join(HERE, "cell.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--index",
        str(index),
        "--smoke",
        str(int(smoke)),
        "--trace",
        str(int(trace)),
        "--tmp",
        store_dir,
    ]
    try:
        spawned_at = time.monotonic()
        proc = subprocess.run(
            command + ["--spawned-at", repr(spawned_at)],
            stdout=subprocess.PIPE,
            text=True,
            timeout=CELL_TIMEOUT_S,
            check=False,
        )
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"{workload} cell {index}: {error}") from error
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    try:
        cell = json.loads(lines[-1])
    except (IndexError, ValueError):
        cell = {"guard": f"no result (exit status {proc.returncode})"}
    if "guard" in cell or proc.returncode != 0:
        raise BenchError(f"{workload} cell {index}: {cell.get('guard', 'failed')}")
    return cell


def run_workload(
    workload: str,
    spec: Dict[str, Any],
    seed: int,
    seconds: float,
    smoke: bool,
    trace: bool,
    tmp: str,
) -> Dict[str, Any]:
    """Cells of one workload until ``seconds`` are used (one if smoke)."""
    untraced: List[Cell] = []
    traced: List[Cell] = []
    digests: Dict[int, str] = {}
    started = time.monotonic()
    while True:
        index = len(untraced) % INPUTS
        untraced.append(run_cell(workload, seed, index, smoke, False, tmp))
        if trace:
            traced.append(run_cell(workload, seed, index, smoke, True, tmp))
        for cell in (untraced[-1], traced[-1]) if trace else (untraced[-1],):
            if digests.setdefault(index, cell["sim_digest"]) != cell["sim_digest"]:
                raise BenchError(
                    f"{workload} input {index}: sim_digest differs between two "
                    "runs of one seed (repeats, or traced and untraced)"
                )
        if smoke or time.monotonic() - started >= seconds:
            break
    result = {
        "workload": workload,
        "end_to_end": end_to_end(untraced, spec),
        "phase_seconds": phase_seconds(untraced),
        "sim": untraced[0]["sim"],
        "sim_digest": [digests[i] for i in sorted(digests)],
        "cells": untraced,
    }
    if trace:
        spans = _sum_spans(traced)
        result["per_layer"] = per_layer(traced, untraced, spans)
        result["trace"] = {
            "cells": len(traced),
            "spans_are": "sums over the traced cells, seconds",
            "spans": spans,
            "edges": _sum_edges(traced),
            "raw_cell_0": traced[0]["trace"]["raw"],
        }
    return result


def _sum_spans(traced: List[Cell]) -> Dict[str, Dict[str, float]]:
    out: Dict[str, Dict[str, float]] = {}
    for cell in traced:
        for name, span in cell["trace"]["spans"].items():
            acc = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += span[key]
    return out


def _sum_edges(traced: List[Cell]) -> List[List[Any]]:
    out: Dict[Tuple[str, str], List[float]] = {}
    for cell in traced:
        for caller, callee, calls, total in cell["trace"]["edges"]:
            acc = out.setdefault((caller, callee), [0, 0.0])
            acc[0] += calls
            acc[1] += total
    return [[a, b, calls, total] for (a, b), (calls, total) in sorted(out.items())]


# -- envelope and output --------------------------------------------------------


def git_commit() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"  # an exported checkout: do not search parent directories
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def envelope(
    spec: Dict[str, Any], seed: int, seconds: float, smoke: bool
) -> Dict[str, Any]:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return {
        "git_commit": git_commit(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "seed": seed,
        "seconds": seconds,
        "scale": "smoke (durations / 5, one cell)" if smoke else "benchmark",
        "load": "one single-threaded cell process at a time",
        "units": units,
        "clock": {
            "wall": "every end-to-end metric; *_s, *_calls of per-layer spans",
            "simulated": "sim.* (must repeat exactly for one seed)",
        },
    }


def final_line(result: Dict[str, Any], spec: Dict[str, Any], trace: bool) -> str:
    """The driver-facing JSON object for one workload."""
    if trace:
        values = result["per_layer"]
        declared = spec["per_layer"]
    else:
        values = {k: v["value"] for k, v in result["end_to_end"].items()}
        declared = spec["end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        raise BenchError("metric names differ from those BENCHMARK.json declares")
    cells = len(result["cells"]) * (2 if trace else 1)
    return json.dumps(
        {
            "correct": True,
            "attempted": cells,
            "failed": 0,
            "metrics": {
                m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                for m in declared
            },
        }
    )


def print_summary(result: Dict[str, Any]) -> None:
    units = result["envelope"]["units"]
    cells = result["cells"]
    inputs = len(result["sim_digest"])
    print(
        f"== {result['workload']}: {len(cells)} cell(s) over {inputs} input(s), "
        "all guards passed"
    )
    for name, m in result["end_to_end"].items():
        print(
            f"  {name:<28} {m['value']:>14.4f} {units[name]:<6}"
            f" quartiles over inputs [{m['q1']:.4f}, {m['q3']:.4f}]"
        )
    for name, value in result["phase_seconds"].items():
        print(f"  phase {name:<22} {value:>14.4f} s      (wall, not gated)")
    for name, value in result["sim"].items():
        print(f"  sim.{name:<24} {value:>14.4f}        (input 0, simulated time)")
    print(f"  sim_digest[0]                {result['sim_digest'][0][:16]}")
    for name, value in result.get("per_layer", {}).items():
        print(f"  {name:<38} {value:>16.6f} {units[name]}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, help="wall budget per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="short cells, one each")
    parser.add_argument(
        "--out", default=os.path.join(HERE, "results"), help="result directory"
    )
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("bench/run.py: src/repro not found beside bench/", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; expected one of {names}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    env = envelope(spec, args.seed, seconds, args.smoke)
    os.makedirs(args.out, exist_ok=True)
    print(
        "host: commit {git_commit}, {cpu_count} cpu, python {python}, {platform}; "
        "seed {seed}, {seconds} s per workload, scale {scale}".format(**env)
    )
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=args.out)
    lines = []
    try:
        for name in [args.workload] if args.workload else names:
            result = run_workload(
                name, spec, args.seed, seconds, args.smoke, bool(args.trace), tmp
            )
            lines.append(final_line(result, spec, bool(args.trace)))
            result["envelope"] = env
            trace = result.pop("trace", None)
            with open(os.path.join(args.out, f"{name}.json"), "w") as handle:
                json.dump(result, handle, indent=1)
            if trace is not None:
                with open(os.path.join(args.out, f"{name}.trace.json"), "w") as handle:
                    json.dump({"envelope": env, **trace}, handle, indent=1)
            print_summary(result)
    except BenchError as error:
        print(f"bench/run.py: INVALID: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
