"""Every ``src/`` function that no traffic source enters.

Runs, under ``sys.setprofile``, the traffic that exercises the library:

* the six ``bench/workloads.py`` workloads at smoke scale, two seeds
  each, with ``classify_run`` and every ``*_stats`` view of each run;
* ``benchmarks/identity_dump.py`` (its dump, written nowhere);
* the baseline campaign ``run_campaign(CampaignGrid())``;
* every paper experiment of ``repro.paper.experiments.EXPERIMENTS``.

Then prints each function defined under ``src/repro`` that none of them
entered, grouped by module, with its line count, and the totals.  A
function nested in an unreached one is listed, but its lines count once,
in the outermost unreached function.  Usage::

    make unreached        # or: PYTHONPATH=src python benchmarks/unreached.py

Takes about a minute on a 2-CPU host.  Tests are not a traffic source:
what only a test reaches is what this script is for.

The run exits 1 when the total exceeds :data:`BUDGET_LINES`, so code
that nothing runs cannot grow back unnoticed.  A change that leaves
fewer lines unreached lowers the budget to its new total.
"""

from __future__ import annotations

import ast
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
sys.path.insert(0, str(ROOT / "src"))
sys.path += [str(ROOT / "bench"), str(ROOT / "benchmarks")]

SEEDS = (2024, 7)

#: The most unreached lines a run accepts: the total when it was last
#: lowered, on the Python versions CI runs.
BUDGET_LINES = 1962


def _workloads() -> None:
    from workloads import SMOKE_DIVISOR, WORKLOADS

    from repro.protocols.classify import classify_run
    from repro.workloads.scenarios import derive_seed

    for workload in WORKLOADS.values():
        duration = workload.duration / SMOKE_DIVISOR
        for index, seed in enumerate(SEEDS):
            cell_seed = derive_seed(seed, workload.name, index)
            # A fresh store directory per cell, as bench/run.py gives one:
            # a replica's log left by an earlier cell would be replayed.
            with tempfile.TemporaryDirectory(prefix="unreached-") as tmp:
                for protocol, runner, scenario in workload.build(
                    workload.name, cell_seed, duration, tmp
                ):
                    run = runner(scenario)
                    classify_run(protocol, run)
                    for name in dir(run):
                        if name.endswith("_stats"):
                            getattr(run, name)()


def _identity_dump() -> None:
    from identity_dump import dump

    dump(io.StringIO())


def _campaign() -> None:
    from repro.campaign.engine import run_campaign
    from repro.campaign.grid import CampaignGrid

    run_campaign(CampaignGrid())


def _experiments() -> None:
    from repro.paper.experiments import EXPERIMENTS

    for experiment in EXPERIMENTS.values():
        experiment()


def _functions(path: Path):
    """``(first line, last line, qualified name)`` of every function in
    ``path``; the first line is a decorator's when it has one, as in
    the function's code object."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                found.append((first, child.end_lineno, prefix + child.name))
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(), filename=str(path)), "")
    return found


def main() -> int:
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for source in (_workloads, _identity_dump, _campaign, _experiments):
            source()
    finally:
        sys.setprofile(None)
    reached = {
        (str(Path(code.co_filename).resolve()), code.co_firstlineno)
        for code in entered
        if "repro" in code.co_filename
    }

    total_functions = total_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        unreached = [
            f for f in _functions(path) if (str(path), f[0]) not in reached
        ]
        if not unreached:
            continue
        # Lines of functions not nested in another unreached one.
        lines = 0
        outer_end = 0
        for first, last, _ in sorted(unreached):
            if first > outer_end:
                lines += last - first + 1
                outer_end = last
        print(f"{path.relative_to(SRC.parent)}  ({len(unreached)} functions, {lines} lines)")
        for first, last, name in unreached:
            print(f"  {last - first + 1:5d}  {name}  (line {first})")
        total_functions += len(unreached)
        total_lines += lines
    print(
        f"total: {total_functions} unreached functions, {total_lines} lines "
        f"(budget {BUDGET_LINES})"
    )
    if total_lines > BUDGET_LINES:
        print(
            f"{total_lines - BUDGET_LINES} lines over BUDGET_LINES: reach or "
            "delete the new unreached code",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
