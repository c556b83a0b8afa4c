"""Command-line front end: ``python -m repro.campaign``.

Expands a (protocol × scenario × seed) grid, executes it across a worker
pool, prints the classification matrix, and optionally writes the full
per-cell results as JSON and/or CSV.

Examples::

    # The full 7×6 grid, baseline seeds, four workers:
    python -m repro.campaign --workers 4

    # Verdict stability of Bitcoin under partitions across 5 seeds:
    python -m repro.campaign --protocols bitcoin \\
        --scenarios default,partition-heal --seeds 1,2,3,4,5

    # Quick smoke with durable stores and JSON output:
    python -m repro.campaign --duration 120 --store log \\
        --json campaign.json --csv campaign.csv
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Optional, Tuple

from repro.campaign.engine import run_campaign
from repro.campaign.grid import PROTOCOLS, SCENARIO_PRESETS, CampaignGrid
from repro.storage import STORE_KINDS


def _csv_tuple(text: str) -> Tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _parse_seeds(text: str) -> Tuple[Optional[int], ...]:
    seeds = []
    for part in _csv_tuple(text):
        seeds.append(None if part.lower() in ("none", "baseline") else int(part))
    return tuple(seeds)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="Run a (protocol × scenario × seed) classification campaign.",
    )
    parser.add_argument(
        "--protocols",
        type=_csv_tuple,
        default=PROTOCOLS,
        help=f"comma-separated subset of {','.join(PROTOCOLS)}",
    )
    parser.add_argument(
        "--scenarios",
        type=_csv_tuple,
        default=SCENARIO_PRESETS,
        help=f"comma-separated subset of {','.join(SCENARIO_PRESETS)}",
    )
    parser.add_argument(
        "--seeds",
        type=_parse_seeds,
        default=(None,),
        help="comma-separated base seeds; 'baseline' keeps a preset's "
        "literal seed (default: one baseline replicate)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=os.cpu_count() or 1,
        help="worker processes (1 = serial; default: CPU count)",
    )
    parser.add_argument("--n-nodes", type=int, default=4, help="network size of adversarial presets")
    parser.add_argument(
        "--duration",
        type=float,
        default=None,
        help="cap/size scenario durations in simulated time units",
    )
    parser.add_argument(
        "--store",
        default="memory",
        choices=sorted(STORE_KINDS),
        help="block-store backend per replica: memory or the durable log",
    )
    parser.add_argument(
        "--workdir",
        default=None,
        help="root directory for durable per-cell store files; kept for "
        "inspection after the run (without it, a temp root is created "
        "and removed once the matrix is folded)",
    )
    parser.add_argument(
        "--metrics-interval",
        type=float,
        default=None,
        help="sample a fork-degree/height time series at this simulated "
        "interval in cells that don't already record one (baseline "
        "'baseline'-seed cells stay untouched)",
    )
    parser.add_argument("--json", metavar="PATH", help="write the full matrix as JSON")
    parser.add_argument("--csv", metavar="PATH", help="write per-cell rows as CSV")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    grid = CampaignGrid(
        protocols=args.protocols,
        scenarios=args.scenarios,
        seeds=args.seeds,
        n_nodes=args.n_nodes,
        duration=args.duration,
        store=args.store,
        workdir=args.workdir,
        metrics_interval=args.metrics_interval,
    )
    workers = max(1, args.workers)
    print(
        f"campaign: {len(grid.protocols)} protocols × {len(grid.scenarios)} "
        f"scenarios × {len(grid.seeds)} seeds = {grid.size()} cells, "
        f"{workers} worker(s)",
        flush=True,
    )
    start = time.perf_counter()
    matrix = run_campaign(grid, workers=workers)
    elapsed = time.perf_counter() - start

    print()
    print(matrix.render())
    events = sum(c.events for c in matrix.cells)
    unknown = matrix.total_unknown_append_resolutions()
    print(
        f"\n{grid.size()} cells in {elapsed:.1f}s wall "
        f"({events:,} simulator events, {events / elapsed:,.0f} events/s aggregate); "
        f"unknown append resolutions: {unknown}"
    )
    defaults = matrix.default_rows()
    if defaults:
        matched = sum(row.matches_paper for row in defaults)
        print(
            f"default-scenario column: {matched}/{len(defaults)} rows match "
            "the paper's Table 1"
        )
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(matrix.to_json())
        print(f"wrote {args.json}")
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(matrix.to_csv())
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
