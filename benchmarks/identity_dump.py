"""Byte-identity dump: every simulated result a refactor must not move.

A refactor that claims "same behaviour" is checked by running this dump
on both checkouts and comparing the files byte for byte::

    make identity-dump OUT=/tmp/before.jsonl   # on the parent commit
    make identity-dump OUT=/tmp/after.jsonl    # on the change
    cmp /tmp/before.jsonl /tmp/after.jsonl

Each line is ``json.dumps(..., sort_keys=True)`` of, in a fixed order:

* one ``CellResult.deterministic_dict()`` per campaign cell —
  the seven Table 1 default scenarios; bitcoin × every
  ``adversarial_scenarios`` preset × flood/reconcile; the other six
  protocols × {partition-heal, crash-rejoin, node-churn} on the full
  topology and on an n=8 small-world overlay; bitcoin crash-rejoin with
  client traffic on a log store;
* the ``CampaignMatrix.to_dict(include_timing=False)`` of a
  2 protocols × 2 presets × 2 seeds grid;
* one fingerprint per ``BitcoinNode`` subclass in
  :mod:`repro.protocols.byzantine` / :mod:`repro.protocols.validating`:
  the class at p0 of a 4-node run (bits 0 and 8, unsigned and signed),
  every replica's sorted tree ids, the event count and the history size.

Nothing wall-clock enters a line; the runtime goes to stderr.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from dataclasses import replace
from typing import Iterator, Tuple

from repro.campaign import CampaignGrid, run_campaign, run_single_cell
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
        traffic=traffic_presets(full["crash-rejoin"].duration)["steady"],
        store="log",
        store_dir=store_dir,
    )


def _miner_classes():
    for module in (byzantine, validating):
        for name in sorted(vars(module)):
            cls = getattr(module, name)
            if (
                isinstance(cls, type)
                and issubclass(cls, BitcoinNode)
                and cls.__module__ == module.__name__
            ):
                yield module, cls


def _fingerprints() -> Iterator[str]:
    for module, cls in _miner_classes():
        honest = (
            validating.ValidatingBitcoinNode if module is validating else BitcoinNode
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
                    },
                    sort_keys=True,
                )


def dump(out) -> int:
    """Write every line to ``out``; returns the line count."""
    lines = 0
    with tempfile.TemporaryDirectory(prefix="identity-dump-") as store_dir:
        for protocol, scenario in _cells(store_dir):
            cell = run_single_cell(protocol, scenario)
            out.write(json.dumps(cell.deterministic_dict(), sort_keys=True) + "\n")
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
