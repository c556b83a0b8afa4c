"""Campaign results: per-cell measurements and the classification matrix.

A :class:`CellResult` is everything one grid cell measured — the Table 1
row (SC/EC verdicts, fork witness, majority-view committed height), the
per-replica perspectives (final height and fork degree of *every* node,
not just replica 0), the fork-degree/height time series, and throughput
metadata.  :class:`CampaignMatrix` folds the cells into Table 1 extended
across the adversarial grid: one verdict (with a *stability* score over
seed replicates) per (protocol × scenario) coordinate, serializable to
JSON/CSV and renderable as ASCII.

Determinism contract: :meth:`CellResult.deterministic_dict` and
``CampaignMatrix.to_dict(include_timing=False)`` exclude wall-clock
fields, so a serial and a parallel execution of the same grid compare
equal — the invariant the campaign bench gates.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.tables import render_table
from repro.protocols.classify import ClassificationRow

__all__ = ["CellResult", "CampaignMatrix", "short_verdict"]

_SHORT = {
    "R(BT-ADT_SC, Θ_F,k=1)": "SC",
    "R(BT-ADT_EC, Θ_P)": "EC",
    "inconsistent": "✗",
}


def short_verdict(refinement: str) -> str:
    """Compact label for a measured refinement (``SC``/``EC``/``✗``)."""
    return _SHORT.get(refinement, refinement)


@dataclass(frozen=True)
class CellResult:
    """Structured measurements of one executed campaign cell."""

    protocol: str
    scenario: str
    seed_index: int
    seed: int  # the effective scenario seed the cell ran with
    row: ClassificationRow
    #: Every replica's final committed height — the per-replica
    #: perspective the single-replica classifier used to ignore.
    node_heights: Tuple[Tuple[str, int], ...]
    #: Every replica's widest observed fork.
    node_fork_degrees: Tuple[Tuple[str, int], ...]
    #: ``(time, max_fork_degree, max_height)`` series (empty when the
    #: scenario samples no metrics).
    samples: Tuple[Tuple[float, int, int], ...]
    events: int
    unknown_append_resolutions: int
    wall_clock_s: float
    #: Transaction-pipeline measurements (``ProtocolRun.mempool_stats``)
    #: for cells driven by a ``ClientTrafficScenario``; None otherwise.
    #: Fully deterministic (simulated time only), so it participates in
    #: the serial-vs-parallel identity the campaign/mempool benches gate.
    mempool: Optional[Dict[str, Any]] = None
    #: Fast-sync measurements (``ProtocolRun.sync_stats``) for cells
    #: whose scenario fires lifecycle events; None otherwise.  Same
    #: determinism contract as ``mempool``.
    sync: Optional[Dict[str, Any]] = None
    #: Sharding measurements (``ShardedRun.shard_stats``) for cells with
    #: ``shards > 1``: per-shard throughput plus the composed
    #: cross-shard atomicity verdict.  None for single-chain cells.
    #: Same determinism contract as ``mempool``.
    shard: Optional[Dict[str, Any]] = None
    #: Signature-pipeline measurements (``ProtocolRun.auth_stats``) for
    #: cells with ``scenario.auth``; None for unsigned cells.  Same
    #: determinism contract as ``mempool``.
    auth: Optional[Dict[str, Any]] = None

    @property
    def cell_id(self) -> str:
        return f"{self.protocol}/{self.scenario}/{self.seed_index}"

    @property
    def events_per_s(self) -> float:
        return self.events / self.wall_clock_s if self.wall_clock_s > 0 else 0.0

    def deterministic_dict(self) -> Dict[str, Any]:
        """Everything replayable — wall-clock throughput excluded."""
        return {
            "protocol": self.protocol,
            "scenario": self.scenario,
            "seed_index": self.seed_index,
            "seed": self.seed,
            "row": asdict(self.row),
            "node_heights": dict(self.node_heights),
            "node_fork_degrees": dict(self.node_fork_degrees),
            "samples": [list(s) for s in self.samples],
            "events": self.events,
            "unknown_append_resolutions": self.unknown_append_resolutions,
            "mempool": self.mempool,
            "sync": self.sync,
            "shard": self.shard,
            "auth": self.auth,
        }

    def flat_dict(self) -> Dict[str, Any]:
        """One flat CSV row (timing included)."""
        committed = (self.mempool or {}).get("committed", {})
        flat = {
            "protocol": self.protocol,
            "scenario": self.scenario,
            "seed_index": self.seed_index,
            "seed": self.seed,
            **asdict(self.row),
            "events": self.events,
            "unknown_append_resolutions": self.unknown_append_resolutions,
            "committed_txs": committed.get("txs", 0),
            "committed_tx_per_s": round(committed.get("tx_per_s", 0.0), 4),
            "wall_clock_s": round(self.wall_clock_s, 4),
            "events_per_s": round(self.events_per_s),
        }
        return flat


@dataclass
class CampaignMatrix:
    """Table 1 extended across the adversarial grid."""

    protocols: Tuple[str, ...]
    scenarios: Tuple[str, ...]
    cells: List[CellResult] = field(default_factory=list)

    def results(
        self, protocol: Optional[str] = None, scenario: Optional[str] = None
    ) -> List[CellResult]:
        """Cells filtered by coordinate, in execution (grid) order."""
        return [
            c
            for c in self.cells
            if (protocol is None or c.protocol == protocol)
            and (scenario is None or c.scenario == scenario)
        ]

    def grouped(self) -> Dict[Tuple[str, str], List[CellResult]]:
        """Cells bucketed by (protocol, scenario) in one pass."""
        buckets: Dict[Tuple[str, str], List[CellResult]] = {}
        for cell in self.cells:
            buckets.setdefault((cell.protocol, cell.scenario), []).append(cell)
        return buckets

    def verdicts(self, protocol: str, scenario: str) -> List[str]:
        """Measured refinements across the coordinate's seed replicates."""
        return [c.row.measured_refinement for c in self.results(protocol, scenario)]

    @staticmethod
    def _modal(cells: List[CellResult]) -> Tuple[str, int]:
        """The most common verdict in ``cells`` and its count."""
        verdicts = [c.row.measured_refinement for c in cells]
        if not verdicts:
            return "-", 0
        return Counter(verdicts).most_common(1)[0]

    def modal_verdict(self, protocol: str, scenario: str) -> str:
        """The most common verdict at a coordinate (ties: first seen)."""
        return self._modal(self.results(protocol, scenario))[0]

    def stability(self, protocol: str, scenario: str) -> float:
        """Fraction of seed replicates agreeing with the modal verdict.

        1.0 means the classification held under every seed of the cell —
        the "verdict stability" column of the extended Table 1.
        """
        cells = self.results(protocol, scenario)
        if not cells:
            return 0.0
        return self._modal(cells)[1] / len(cells)

    def default_rows(self) -> List[ClassificationRow]:
        """The default-scenario column's first-replicate Table 1 rows."""
        return [
            self.results(protocol, "default")[0].row
            for protocol in self.protocols
            if self.results(protocol, "default")
        ]

    def total_unknown_append_resolutions(self) -> int:
        return sum(c.unknown_append_resolutions for c in self.cells)

    # -- serialization -------------------------------------------------------

    def to_dict(self, include_timing: bool = True) -> Dict[str, Any]:
        """JSON-ready structure (set ``include_timing=False`` to compare
        serial vs parallel executions for identity)."""
        cells = []
        for cell in self.cells:
            payload = cell.deterministic_dict()
            if include_timing:
                payload["wall_clock_s"] = round(cell.wall_clock_s, 4)
                payload["events_per_s"] = round(cell.events_per_s)
            cells.append(payload)
        buckets = self.grouped()
        summary = {}
        for protocol in self.protocols:
            row = {}
            for scenario in self.scenarios:
                group = buckets.get((protocol, scenario))
                if not group:
                    continue
                verdict, agree = self._modal(group)
                row[scenario] = {
                    "verdict": verdict,
                    "stability": agree / len(group),
                    "max_fork_degree": max(c.row.max_fork_degree for c in group),
                }
            summary[protocol] = row
        return {
            "protocols": list(self.protocols),
            "scenarios": list(self.scenarios),
            "summary": summary,
            "cells": cells,
        }

    def to_json(self, include_timing: bool = True, **dumps_kwargs: Any) -> str:
        kwargs = {"indent": 2, "sort_keys": True, "ensure_ascii": False}
        kwargs.update(dumps_kwargs)
        return json.dumps(self.to_dict(include_timing=include_timing), **kwargs)

    def to_csv(self) -> str:
        """Flat per-cell CSV (one row per executed cell)."""
        if not self.cells:
            return ""
        out = io.StringIO()
        writer = csv.DictWriter(out, fieldnames=list(self.cells[0].flat_dict()))
        writer.writeheader()
        for cell in self.cells:
            writer.writerow(cell.flat_dict())
        return out.getvalue()

    def render(self) -> str:
        """ASCII matrix: protocols × scenarios, verdict + stability."""
        headers = ["system"] + [s for s in self.scenarios]
        buckets = self.grouped()
        rows = []
        for protocol in self.protocols:
            row: List[Any] = [protocol]
            for scenario in self.scenarios:
                group = buckets.get((protocol, scenario))
                if not group:
                    row.append("-")
                    continue
                verdict, agree = self._modal(group)
                label = short_verdict(verdict)
                n = len(group)
                row.append(label if n == 1 else f"{label} {agree}/{n}")
            rows.append(tuple(row))
        return render_table(
            headers,
            rows,
            title="Classification matrix — verdict (stable replicates / seeds)",
        )
