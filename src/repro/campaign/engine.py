"""Campaign execution: one cell, or a whole grid across a worker pool.

:func:`run_cell` is the single source of truth for executing one
(protocol × scenario × seed) cell — ``classify_protocol`` wraps it for
the one-cell case, and :func:`run_campaign` maps it over a grid either
in-process (serial) or through a ``multiprocessing`` pool.  Workers
share nothing: each cell carries its own derived seed (the simulator,
transaction and VRF streams all fan out from it through the SHA-256
PRF) and, when a durable store is selected, its own store directory —
so the folded matrix is identical whichever way the cells were run.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import List, Optional

from repro.campaign.grid import CampaignCell, CampaignGrid
from repro.campaign.matrix import CampaignMatrix, CellResult
from repro.protocols.classify import RUNNERS, classify_run

__all__ = ["run_cell", "run_single_cell", "run_campaign"]


def run_cell(cell: CampaignCell) -> CellResult:
    """Execute one campaign cell and package its measurements.

    Runs in the calling process — pool workers invoke it directly (it is
    a top-level function, so it pickles under any start method).
    """
    scenario = cell.scenario
    if scenario.store != "memory" and scenario.store_dir:
        os.makedirs(scenario.store_dir, exist_ok=True)
    run = RUNNERS[cell.protocol](scenario)
    row = classify_run(cell.protocol, run)
    return CellResult(
        protocol=cell.protocol,
        scenario=cell.scenario_name,
        seed_index=cell.seed_index,
        seed=scenario.seed,
        row=row,
        node_heights=tuple(run.node_heights()),
        node_fork_degrees=tuple(run.node_fork_degrees()),
        samples=tuple(tuple(sample) for sample in run.samples),
        events=run.events_executed,
        unknown_append_resolutions=run.unknown_append_resolutions(),
        wall_clock_s=run.wall_clock_s,
        mempool=run.mempool_stats() or None,
        sync=run.sync_stats() or None,
        shard=run.shard_stats() or None,
        auth=run.auth_stats() or None,
    )


def run_single_cell(protocol: str, scenario) -> CellResult:
    """One ad-hoc cell outside any grid (the ``classify_protocol`` path)."""
    return run_cell(
        CampaignCell(
            protocol=protocol,
            scenario_name=scenario.name,
            seed_index=0,
            scenario=scenario,
        )
    )


def run_campaign(grid: CampaignGrid, workers: Optional[int] = None) -> CampaignMatrix:
    """Expand ``grid`` and execute every cell; fold into a matrix.

    ``workers=None`` or ``<= 1`` runs serially in-process; otherwise the
    cells are mapped over a ``multiprocessing`` pool with ``chunksize=1``
    (cells vary widely in cost, so fine-grained scheduling wins).  Cell
    order — and therefore the matrix — is identical either way.
    """
    results: List[CellResult]
    try:
        cells = grid.expand()
        if workers is None or workers <= 1:
            results = [run_cell(cell) for cell in cells]
        else:
            with multiprocessing.Pool(processes=workers) as pool:
                results = pool.map(run_cell, cells, chunksize=1)
    finally:
        # Only removes a store root the grid auto-created; a
        # caller-supplied workdir is left for its owner to inspect.
        grid.cleanup_workdir()
    return CampaignMatrix(
        protocols=grid.protocols, scenarios=grid.scenarios, cells=results
    )
