"""Compare two result directories: ``python3 bench/compare.py A/ B/``.

``A`` is the base (parent commit), ``B`` the change; both were written by
``bench/run.py --out`` with the same seed.  Per workload × end-to-end
metric this prints both medians with quartiles over the inputs (the best
repeat of each, as ``bench/run.py`` reports them), the ratio B/A, and a
verdict from the bounds in ``BENCHMARK.json``:

* ``unresolved`` — the gains of the inputs (B over A, input by input: both
  sides ran the same four inputs) are spread wider than the bound,
  interquartile, unless every input moved the same way;
* ``worse`` / ``better`` — the median gain exceeds the bound in that
  direction;
* ``same`` — otherwise.

Simulated-time results (``sim`` and ``sim_digest``) are compared exactly,
input by input, and reported as ``identical`` or ``changed``; a change meant
only to speed the simulator must leave them identical.  Exit status is 1
when any metric is ``worse``.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, List

from run import END_TO_END, best_per_input, load_spec, quartiles


def load(directory: str, workload: str) -> Dict[str, Any]:
    with open(os.path.join(directory, f"{workload}.json"), encoding="utf-8") as handle:
        return json.load(handle)


def verdict(
    a: List[float], b: List[float], higher_is_better: bool, bound: float
) -> str:
    """Judge B against A from the per-input gains (inputs are paired)."""
    sign = 1.0 if higher_is_better else -1.0
    gains = [sign * (y - x) / x for x, y in zip(a, b)]
    q1, median, q3 = quartiles(gains)
    one_sided = all(g > 0 for g in gains) or all(g < 0 for g in gains)
    if q3 - q1 > bound and not one_sided:
        return "unresolved"
    if median < -bound:
        return "worse"
    if median > bound:
        return "better"
    return "same"


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.splitlines()[0], file=sys.stderr)
        return 2
    base_dir, change_dir = argv
    spec = load_spec()
    worse = 0
    for workload in (w["name"] for w in spec["workloads"]):
        try:
            base, change = load(base_dir, workload), load(change_dir, workload)
        except FileNotFoundError:
            continue
        print(f"== {workload}: {len(base['cells'])} vs {len(change['cells'])} cells")
        for metric in spec["end_to_end"]:
            higher = metric["better"] == "higher"
            value = END_TO_END[metric["name"]]
            a = best_per_input(base["cells"], value, higher)
            b = best_per_input(change["cells"], value, higher)
            (a_q1, a_med, a_q3), (b_q1, b_med, b_q3) = quartiles(a), quartiles(b)
            result = verdict(a, b, higher, metric["bound"])
            worse += result == "worse"
            print(
                f"  {metric['name']:<26} A {a_med:>12.4f} [{a_q1:.4f}, {a_q3:.4f}]"
                f"  B {b_med:>12.4f} [{b_q1:.4f}, {b_q3:.4f}] {metric['unit']:<5}"
                f" B/A {b_med / a_med:.3f} of {a_med:.4f}"
                f"  {result} (bound {metric['bound']:.0%})"
            )
        digests = list(zip(base["sim_digest"], change["sim_digest"]))
        changed = [i for i, (a, b) in enumerate(digests) if a != b]
        if base["sim"] != change["sim"] and 0 not in changed:
            changed.insert(0, 0)
        state = f"changed at inputs {changed}" if changed else "identical"
        print(f"  sim results and sim_digest over {len(digests)} inputs: {state}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
