"""Byte-identity dump: every simulated result a refactor must not move.

A refactor that claims "same behaviour" is checked by running this dump
on both checkouts and comparing the files byte for byte::

    make identity-dump OUT=/tmp/before.jsonl   # on the parent commit
    make identity-dump OUT=/tmp/after.jsonl    # on the change
    cmp /tmp/before.jsonl /tmp/after.jsonl

Each line is ``json.dumps(..., sort_keys=True)`` of, in a fixed order:

* one ``CellResult.deterministic_dict()`` per campaign cell, with the
  run's ``gossip_stats()["totals"]`` under ``gossip`` (the flood and
  reconcile byte counters no cell field carries) — the seven Table 1
  default scenarios; bitcoin × every
  ``adversarial_scenarios`` preset × flood/reconcile; the other six
  protocols × {partition-heal, crash-rejoin, node-churn} on the full
  topology and on an n=8 small-world overlay; bitcoin crash-rejoin with
  client traffic on a log store; the :data:`SEEDED_CELLS` of the
  ``--seeds 1,…,20`` campaign;
* the ``CampaignMatrix.to_dict(include_timing=False)`` of a
  2 protocols × 2 presets × 2 seeds grid;
* one fingerprint per :data:`MINERS` class (every ``BitcoinNode``
  subclass of :mod:`repro.protocols.byzantine` and
  :mod:`repro.protocols.validating`): the class at p0 of a 4-node run
  (bits 0 and 8, unsigned and signed), every replica's sorted tree ids,
  the event count, the history size and the gossip byte totals;
* the paper side: one line per ``EXPERIMENTS`` report (id, verdicts,
  details); the ``hierarchy_edges()`` edges; a digest of each
  ``random_refinement_history(k, seed)`` for k ∈ {1, 2, ∞} and of each
  ``theorem_4_8_execution(k)`` for k ∈ {1, 2} (every event's process,
  kind, operation, args and result — a read's tip id — plus the
  realized block ids of the script); the ``explore`` counts of Protocol
  A for n = 2 and 3.

Nothing wall-clock enters a line; the runtime goes to stderr.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import tempfile
import time
from dataclasses import replace
from typing import Iterator, Tuple

from repro.campaign.engine import run_campaign, run_single_cell
from repro.campaign.grid import CampaignGrid
from repro.campaign.matrix import CellResult
from repro.concurrent.modelcheck import explore
from repro.concurrent.protocol_a import build_protocol_a_system, protocol_a_validity
from repro.consistency.hierarchy import hierarchy_edges, random_refinement_history
from repro.paper.experiments import EXPERIMENTS, theorem_4_8_execution
from repro.protocols import byzantine, validating
from repro.protocols.base import ProtocolRun
from repro.protocols.bitcoin import BitcoinNode
from repro.protocols.classify import RUNNERS
from repro.workloads.scenarios import (
    ProtocolScenario,
    adversarial_scenarios,
    default_scenarios,
)
from repro.workloads.traffic import traffic_presets

LIFECYCLE_PRESETS = ("partition-heal", "crash-rejoin", "node-churn")

#: ``(protocol, preset, seed index)`` of the ``--seeds 1,…,20`` campaign
#: cells that were inconsistent (✗) at 7a2c5dd, so a change that moves
#: their verdicts shows it (docs/architecture.md, "The ✗ cells").
SEEDED_CELLS = (
    ("bitcoin", "crash-rejoin", 16),
    ("ethereum", "crash-rejoin", 15),
    ("byzcoin", "node-churn", 12),
    ("byzcoin", "node-churn", 19),
    ("byzcoin", "crash-rejoin", 18),
    ("byzcoin", "eclipse-heal", 3),
    ("byzcoin", "eclipse-heal", 12),
    ("byzcoin", "client-steady", 0),
    ("byzcoin", "spam-flood", 0),
    ("peercensus", "node-churn", 15),
    ("peercensus", "crash-rejoin", 5),
    ("peercensus", "client-steady", 16),
    ("peercensus", "client-steady", 19),
)


def _cells(store_dir: str) -> Iterator[Tuple[str, ProtocolScenario]]:
    defaults = default_scenarios()
    for protocol in RUNNERS:
        yield protocol, defaults[protocol]
    for preset in adversarial_scenarios().values():
        for gossip in ("flood", "reconcile"):
            yield "bitcoin", replace(preset, gossip=gossip)
    full, sparse = adversarial_scenarios(), adversarial_scenarios(n_nodes=8)
    for protocol in RUNNERS:
        if protocol == "bitcoin":
            continue
        for name in LIFECYCLE_PRESETS:
            yield protocol, full[name]
            yield protocol, replace(
                sparse[name], topology="small-world", topology_degree=4
            )
    yield "bitcoin", replace(
        full["crash-rejoin"],
        traffic=traffic_presets()["steady"],
        store="log",
        store_dir=store_dir,
    )
    for protocol, preset, index in SEEDED_CELLS:
        grid = CampaignGrid(
            protocols=(protocol,), scenarios=(preset,), seeds=tuple(range(1, 21))
        )
        yield protocol, grid.expand()[index].scenario


def _run_cell(
    protocol: str, scenario: ProtocolScenario
) -> Tuple[CellResult, ProtocolRun]:
    """``run_single_cell`` and the run it executed.  The protocol's
    runner is wrapped for this one call, so the cell still runs once."""
    runner, runs = RUNNERS[protocol], []

    def keep(sc: ProtocolScenario) -> ProtocolRun:
        runs.append(runner(sc))
        return runs[-1]

    RUNNERS[protocol] = keep
    try:
        cell = run_single_cell(protocol, scenario)
    finally:
        RUNNERS[protocol] = runner
    return cell, runs[0]


#: The fingerprinted miners, each run against honest peers of its own
#: module's kind.
MINERS = (
    byzantine.EquivocatingMiner,
    byzantine.ForgedSignatureMiner,
    byzantine.ForgingMiner,
    byzantine.StolenIdentityRelay,
    byzantine.WithholdingMiner,
    validating.DoubleSpendMiner,
    validating.ValidatingBitcoinNode,
)


def _fingerprints() -> Iterator[str]:
    for cls in MINERS:
        honest = (
            validating.ValidatingBitcoinNode
            if cls.__module__ == validating.__name__
            else BitcoinNode
        )
        for bits in (0, 8):
            for auth in (False, True):
                scenario = ProtocolScenario(
                    name="bitcoin",
                    n_nodes=4,
                    duration=120.0,
                    mean_block_interval=10.0,
                    seed=5,
                    pow_difficulty_bits=bits,
                    auth=auth,
                )
                run = ProtocolRun.execute(
                    lambda name, sc: (cls if name == "p0" else honest)(name, sc),
                    scenario,
                )
                yield json.dumps(
                    {
                        "class": cls.__name__,
                        "bits": bits,
                        "auth": auth,
                        "trees": {
                            node.name: sorted(node.tree.iter_ids())
                            for node in run.nodes
                        },
                        "events": run.events_executed,
                        "history": len(run.history.events),
                        "gossip": run.gossip_stats()["totals"],
                    },
                    sort_keys=True,
                )


def _history_digest(history, realized=()) -> str:
    """SHA-256 of every event's process, kind, operation, args and result
    (a read's tip id) and of ``realized``."""
    events = [
        (
            e.proc,
            e.kind.name,
            e.op_name,
            list(e.args),
            e.result.tip_id if e.op_name == "read" and e.result is not None else e.result,
        )
        for e in history.events
    ]
    text = json.dumps([events, list(realized)], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _paper_lines() -> Iterator[dict]:
    for experiment_id, run in EXPERIMENTS.items():
        report = run()
        yield {
            "experiment": experiment_id,
            "verdicts": report.verdicts,
            "details": report.details,
        }
    yield {"hierarchy": [vars(edge) for edge in hierarchy_edges()]}
    for k in (1, 2, math.inf):
        for seed in (1, 2, 3, 4):
            run = random_refinement_history(k, seed)
            realized = [step[4] for step in run.script if step[0] == "append"]
            yield {
                "refinement": [str(k), seed],
                "digest": _history_digest(run.history, realized),
            }
    for k in (1, 2):
        yield {"theorem-4.8": k, "digest": _history_digest(theorem_4_8_execution(k))}
    for n in (2, 3):
        proposals = {f"p{i}": f"block-p{i}" for i in range(n)}
        result = explore(
            lambda: build_protocol_a_system(n, seed=1, probability=1.0),
            lambda run: run.agreement()
            and run.integrity()
            and run.all_correct_decided()
            and protocol_a_validity(run, proposals),
        )
        yield {
            "protocol-a": n,
            "ok": result.ok,
            "states_explored": result.states_explored,
            "terminal_runs": result.terminal_runs,
        }


def dump(out) -> int:
    """Write every line to ``out``; returns the line count."""
    lines = 0
    with tempfile.TemporaryDirectory(prefix="identity-dump-") as store_dir:
        for protocol, scenario in _cells(store_dir):
            cell, run = _run_cell(protocol, scenario)
            line = {**cell.deterministic_dict(), "gossip": run.gossip_stats()["totals"]}
            out.write(json.dumps(line, sort_keys=True) + "\n")
            lines += 1
    grid = CampaignGrid(
        protocols=("bitcoin", "byzcoin"),
        scenarios=("crash-rejoin", "client-steady"),
        seeds=(2024, 7),
        n_nodes=4,
        duration=120.0,
    )
    matrix = run_campaign(grid, workers=1)
    out.write(json.dumps(matrix.to_dict(include_timing=False), sort_keys=True) + "\n")
    lines += 1
    for line in _fingerprints():
        out.write(line + "\n")
        lines += 1
    for paper_line in _paper_lines():
        out.write(json.dumps(paper_line, sort_keys=True) + "\n")
        lines += 1
    return lines


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: identity_dump.py OUT", file=sys.stderr)
        return 2
    start = time.perf_counter()
    with open(argv[1], "w", encoding="utf-8") as out:
        lines = dump(out)
    elapsed = time.perf_counter() - start
    print(f"{lines} lines -> {argv[1]} in {elapsed:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
