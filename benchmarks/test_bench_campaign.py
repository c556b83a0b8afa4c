"""Campaign-engine acceptance gates: parallel speedup, determinism, Table 1.

Not a paper figure — these gate the PR-4 campaign claims and populate
``BENCH_campaign.json`` (schema documented in ``docs/benchmarks.md``;
regenerated by ``make bench-campaign``):

* **speedup gate** — a 28-cell (7 protocols × 4 adversarial presets)
  grid across a 4-worker ``multiprocessing`` pool must finish ≥2× faster
  than the same grid run serially.  Both phases are timed best-of-2
  (shared CI runners are noisy; the minimum measures capability, not
  neighbors).  CPU-bound work cannot speed up on a starved host, so the
  assertion is enforced only when the machine has ≥4 CPUs (CI does); the
  measured ratio is always recorded, and the JSON says whether the gate
  was enforced or waived.
* **determinism gate** (always enforced) — the serial and parallel
  matrices of the same grid+seeds must be *identical* (timing fields
  excluded), and no cell may report an unknown append resolution.
* **Table 1 gate** (always enforced) — the matrix's default-scenario
  column must reproduce every ``classify_all`` row byte-for-byte
  (``ClassificationRow`` equality) on the same duration-capped scenarios.

``BENCH_CAMPAIGN_DURATION`` rescales the speedup grid's simulated
duration (cell cost grows superlinearly with it; the committed JSON is
the 1000-unit run).
"""

import json
import os
import time
from dataclasses import replace

from repro.campaign import CampaignGrid, run_campaign
from repro.protocols import classify_all
from repro.workloads import default_scenarios

_RESULTS = {"bench": "campaign"}
_JSON_PATH = "BENCH_campaign.json"
_DURATION = float(os.environ.get("BENCH_CAMPAIGN_DURATION", "1000"))

_WORKERS = 4
_SPEEDUP_GATE = 2.0
#: A pool of CPU-bound workers needs the CPUs to exist before a wall
#: clock speedup is physically possible.
_GATE_ENFORCED = (os.cpu_count() or 1) >= _WORKERS

_SPEEDUP_GRID = CampaignGrid(
    scenarios=("partition-heal", "node-churn", "selfish-miner", "burst-traffic"),
    seeds=(2024,),
    n_nodes=4,
    duration=_DURATION,
)


def test_bench_campaign_speedup_and_determinism(report):
    """Gates: ≥2× on 4 workers (when CPUs exist) + identical matrices."""
    grid = _SPEEDUP_GRID
    assert grid.size() == 28

    def timed(workers):
        start = time.perf_counter()
        matrix = run_campaign(grid, workers=workers)
        return matrix, time.perf_counter() - start

    serial, serial_s = timed(1)
    _, serial_retry_s = timed(1)
    serial_s = min(serial_s, serial_retry_s)

    parallel, parallel_s = timed(_WORKERS)
    _, parallel_retry_s = timed(_WORKERS)
    parallel_s = min(parallel_s, parallel_retry_s)

    speedup = serial_s / parallel_s if parallel_s > 0 else 0.0
    identical = serial.to_dict(include_timing=False) == parallel.to_dict(
        include_timing=False
    )
    row = {
        "cells": grid.size(),
        "duration": _DURATION,
        "workers": _WORKERS,
        "cpu_count": os.cpu_count() or 1,
        "serial_s": round(serial_s, 3),
        "parallel_s": round(parallel_s, 3),
        "speedup": round(speedup, 2),
        "speedup_gate": _SPEEDUP_GATE,
        "gate_enforced": _GATE_ENFORCED,
        "determinism_identical": identical,
        "events_total": sum(c.events for c in serial.cells),
        "unknown_append_resolutions": serial.total_unknown_append_resolutions(),
    }
    report(
        f"Campaign speedup, {grid.size()}-cell grid on {_WORKERS} workers "
        f"(gate: ≥{_SPEEDUP_GATE}×, "
        f"{'enforced' if _GATE_ENFORCED else 'waived: too few CPUs'})",
        json.dumps(row, indent=2),
    )
    assert identical, "serial and parallel matrices diverged"
    assert serial.total_unknown_append_resolutions() == 0
    if _GATE_ENFORCED:
        assert speedup >= _SPEEDUP_GATE, (
            f"parallel speedup {speedup:.2f}× below the {_SPEEDUP_GATE}× gate"
        )
    # Only a passing gate contributes to the committed trajectory — the
    # emitter must never overwrite the artifact with a failing run.
    _RESULTS["speedup"] = row
    _RESULTS["matrix"] = serial.to_dict(include_timing=True)


def test_bench_campaign_reproduces_table1(report):
    """Gate: default-scenario column == classify_all, row for row."""
    cap = 250.0
    scenarios = {
        name: replace(s, duration=min(s.duration, cap))
        for name, s in default_scenarios().items()
    }
    expected = classify_all(scenarios)

    grid = CampaignGrid(scenarios=("default",), seeds=(None,), duration=cap)
    matrix = run_campaign(grid, workers=_WORKERS if _GATE_ENFORCED else 1)
    measured = matrix.default_rows()

    table = [
        (row.protocol, row.measured_refinement, "yes" if row.matches_paper else "NO")
        for row in measured
    ]
    report(
        "Campaign default column vs classify_all (gate: byte-identical rows)",
        json.dumps(table, indent=2, ensure_ascii=False),
    )
    assert len(measured) == len(expected) == 7
    for got, want in zip(measured, expected):
        assert got == want, f"{want.protocol}: campaign row diverged from classify_all"
    _RESULTS["table1"] = {
        "rows": len(measured),
        "matches_paper": sum(r.matches_paper for r in measured),
        "identical_to_classify_all": measured == expected,
    }


def test_emit_bench_json():
    """Write BENCH_campaign.json (schema: docs/benchmarks.md)."""
    # Refuse to emit a hollow trajectory: a partial run (-k filter, an
    # earlier gate failure) must not overwrite the artifact.
    assert "speedup" in _RESULTS and "table1" in _RESULTS, (
        "speedup/table1 sections missing — run the whole file, not a subset"
    )
    payload = dict(_RESULTS, emitted_by="benchmarks/test_bench_campaign.py")
    with open(_JSON_PATH, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, ensure_ascii=False)
    assert os.path.getsize(_JSON_PATH) > 0
