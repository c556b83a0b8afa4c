"""Alternated parent-vs-change pairs of ``bench/run.py`` runs.

One comparison of two runs cannot separate a real gain from a noisy
neighbour on a shared host, and the run that goes second is the one a
warm page cache or a throttled core favours.  This script checks a
claimed ``events_per_wall_s`` gain (higher is better) the way it is
judged: ``PAIRS`` pairs of runs, the parent commit going first in even
pairs and the change in odd ones, one ``bench/compare.py`` per pair, and
a count of the pairs in which the change beats the parent::

    make bench-pairs PARENT=HEAD~1 [PAIRS=10] [WORKLOAD=table1-default]
    python benchmarks/bench_pairs.py HEAD~1 --pairs 10 --workload table1-default

The parent is checked out with ``git worktree`` in a temporary directory
and every result is written there; all of it is removed at the end.  The
change is the working tree the script runs in.  Both sides run
``bench/run.py``'s default seed, so ``bench/compare.py`` also reports
whether the simulated results are identical.  A gain holds when the
change wins at least nine of ten pairs and its median over the pairs
beats the parent's by more than the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from typing import List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRIC = "events_per_wall_s"


def run_bench(checkout: str, out: str, workload: str) -> float:
    """One ``bench/run.py`` in ``checkout``; returns :data:`METRIC`."""
    command = [sys.executable, "bench/run.py", "--workload", workload, "--out", out]
    subprocess.run(command, cwd=checkout, check=True, stdout=subprocess.DEVNULL)
    with open(os.path.join(out, f"{workload}.json"), encoding="utf-8") as handle:
        return json.load(handle)["end_to_end"][METRIC]["value"]


def quartile_spread(values: List[float]) -> float:
    """``q3 - q1`` (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="git revision of the parent commit")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", default="table1-default")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        parent = os.path.join(tmp, "parent")
        subprocess.run(
            ["git", "worktree", "add", "--detach", parent, args.parent],
            cwd=ROOT,
            check=True,
            stdout=subprocess.DEVNULL,
        )
        try:
            values: List[Tuple[float, float]] = []
            for pair in range(args.pairs):
                a_dir = os.path.join(tmp, f"pair{pair}", "A")
                b_dir = os.path.join(tmp, f"pair{pair}", "B")
                sides = [(parent, a_dir), (ROOT, b_dir)]
                if pair % 2:
                    sides.reverse()
                got = {
                    out: run_bench(checkout, out, args.workload) for checkout, out in sides
                }
                a, b = got[a_dir], got[b_dir]
                values.append((a, b))
                first = "parent" if pair % 2 == 0 else "change"
                print(
                    f"== pair {pair} ({first} first): {METRIC} A {a:.4f} "
                    f"B {b:.4f} B/A {b / a:.3f} {'win' if b > a else 'no win'}",
                    flush=True,
                )
                subprocess.run(
                    [sys.executable, "bench/compare.py", a_dir, b_dir], cwd=ROOT
                )
        finally:
            subprocess.run(
                ["git", "worktree", "remove", "--force", parent], cwd=ROOT, check=True
            )

    parents = [a for a, _ in values]
    changes = [b for _, b in values]
    wins = sum(b > a for a, b in values)
    a_med, b_med = statistics.median(parents), statistics.median(changes)
    spread = quartile_spread(parents)
    print(
        f"== {args.workload} {METRIC}: change wins {wins}/{len(values)} pairs; "
        f"median A {a_med:.4f} B {b_med:.4f} (B/A {b_med / a_med:.3f}), "
        f"parent IQR {spread:.4f}: the medians differ by "
        f"{'more' if b_med - a_med > spread else 'less'} than the parent's spread"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
