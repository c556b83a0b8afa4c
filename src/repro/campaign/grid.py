"""Declarative campaign grids: (protocol × scenario × seed) → run cells.

A :class:`CampaignGrid` names *what* to measure — which Table 1 systems,
which :class:`~repro.workloads.scenarios.AdversarialScenario` presets,
how many seed replicates — and :meth:`CampaignGrid.expand` turns it into
independent :class:`CampaignCell`\\ s the engine can execute in any order
(serially or across a worker pool) without changing the result.

Seed hygiene: a cell with an explicit base seed is re-seeded through
``derive_seed(base_seed, protocol, scenario, cell_index)`` (SHA-256), so
no two cells ever share an RNG stream.  A ``None`` seed entry keeps the
preset scenario verbatim — the *baseline* cell, byte-identical to what
``classify_protocol`` runs, which is how a campaign matrix's
default-scenario column reproduces the existing Table 1 rows.

Storage hygiene: with a durable ``store``, every cell gets its own
directory under ``workdir`` so parallel workers never share a log file.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from repro.protocols.classify import RUNNERS
from repro.workloads.scenarios import (
    ProtocolScenario,
    adversarial_scenarios,
    default_scenarios,
)

__all__ = [
    "PROTOCOLS",
    "SCENARIO_PRESETS",
    "SHARD_SCENARIO_PRESETS",
    "AUTH_SCENARIO_PRESETS",
    "CampaignCell",
    "CampaignGrid",
]

#: The seven Table 1 systems, in the paper's row order.
PROTOCOLS: Tuple[str, ...] = tuple(RUNNERS)

#: The adversarial preset registry the axes below are read off (names
#: and the bitcoin-only rule; cells get theirs sized by the grid).
_REGISTRY = adversarial_scenarios()

#: Sharded-pipeline presets (``repro.shard``): K shard facets per
#: replica with cross-shard two-phase transfers.
SHARD_SCENARIO_PRESETS: Tuple[str, ...] = tuple(
    name for name, preset in _REGISTRY.items() if preset.shards > 1
)

#: Authenticated-pipeline presets (``repro.crypto.auth``): signed blocks
#: and transactions with one signature adversary per preset (see
#: :data:`repro.protocols.byzantine.ADVERSARY_KINDS`).
AUTH_SCENARIO_PRESETS: Tuple[str, ...] = tuple(
    name for name, preset in _REGISTRY.items() if preset.byzantine
)

#: Valid grid axes, but *not* part of the default grid: sharded
#: execution and the BitcoinNode-subclass adversaries exist for Bitcoin
#: only, so a grid selecting one must restrict ``protocols`` to
#: ``("bitcoin",)``.
_BITCOIN_ONLY = frozenset(SHARD_SCENARIO_PRESETS + AUTH_SCENARIO_PRESETS)

#: ``"default"`` (the per-protocol Table 1 parameter set) plus every
#: ``adversarial_scenarios`` preset that runs on all seven systems —
#: fault axes, node-lifecycle presets (their cells report
#: ``sync_stats``) and client-traffic presets (``mempool_stats``).
SCENARIO_PRESETS: Tuple[str, ...] = (
    "default",
    *(name for name in _REGISTRY if name not in _BITCOIN_ONLY),
)


@dataclass(frozen=True)
class CampaignCell:
    """One fully-resolved run: a protocol, a concrete scenario, a slot."""

    protocol: str
    scenario_name: str
    seed_index: int
    scenario: ProtocolScenario

    @property
    def cell_id(self) -> str:
        return f"{self.protocol}/{self.scenario_name}/{self.seed_index}"


@dataclass(frozen=True)
class CampaignGrid:
    """A (protocol × scenario preset × seed) measurement grid.

    ``seeds`` entries are either ``None`` (baseline: run the preset
    scenario verbatim) or an ``int`` base seed from which each cell
    derives its own stream.  ``duration`` caps the default presets and
    sizes the adversarial ones (their fault windows scale with it).
    """

    protocols: Tuple[str, ...] = PROTOCOLS
    scenarios: Tuple[str, ...] = SCENARIO_PRESETS
    seeds: Tuple[Optional[int], ...] = (None,)
    n_nodes: int = 4
    duration: Optional[float] = None
    store: str = "memory"
    workdir: Optional[str] = None
    #: When set, scenarios without a fork-degree/height time series get
    #: one sampled at this interval (baseline ``None`` cells excepted —
    #: they must stay byte-identical to ``classify_protocol``).
    metrics_interval: Optional[float] = None
    #: Dissemination transport for every cell: ``"flood"`` (forward-once
    #: flooding, the default — baseline cells stay byte-identical to
    #: ``classify_protocol``) or ``"reconcile"`` (Erlay-style set
    #: reconciliation).  Applied to *all* cells including baselines, so a
    #: reconcile grid's baseline is the reconcile reference run.
    gossip: str = "flood"
    #: Overlay topology for every cell (see :mod:`repro.net.overlay`):
    #: ``"full"`` keeps the historical clique and stays byte-identical
    #: to pre-overlay grids; sparse kinds route all gossip/reconcile/
    #: sync traffic through overlay neighbours.  Applied to all cells,
    #: baselines included, so a sparse grid's baseline is the sparse
    #: reference run.
    topology: str = "full"
    #: Per-node link budget for sparse topologies; ignored by ``full``.
    topology_degree: int = 8

    def __post_init__(self) -> None:
        unknown = set(self.protocols) - set(PROTOCOLS)
        if unknown:
            raise ValueError(f"unknown protocols {sorted(unknown)}")
        unknown = set(self.scenarios) - {"default", *_REGISTRY}
        if unknown:
            raise ValueError(f"unknown scenario presets {sorted(unknown)}")
        restricted = set(self.scenarios) & _BITCOIN_ONLY
        if restricted and set(self.protocols) != {"bitcoin"}:
            raise ValueError(
                f"presets {sorted(restricted)} run on bitcoin only; "
                "restrict protocols=('bitcoin',)"
            )
        if not self.protocols or not self.scenarios or not self.seeds:
            raise ValueError("grid axes must be non-empty")
        if self.n_nodes < 2:
            raise ValueError("adversarial presets need n_nodes >= 2")
        if self.duration is not None and self.duration <= 0:
            raise ValueError("duration must be positive")
        # What store/gossip/topology accept is the scenario's decision:
        # building one with this grid's overrides rejects a bad value
        # here, not cells later.
        ProtocolScenario(
            name="grid",
            store=self.store,
            gossip=self.gossip,
            topology=self.topology,
            topology_degree=self.topology_degree,
        )

    def size(self) -> int:
        return len(self.protocols) * len(self.scenarios) * len(self.seeds)

    def effective_workdir(self) -> Optional[str]:
        """The store directory root, or None for in-memory grids.

        When no ``workdir`` was given, one temp directory is created on
        first use and cached, so repeated :meth:`expand` calls on the
        same grid place cells in the same directories.  ``run_campaign``
        calls :meth:`cleanup_workdir` once the matrix is folded.
        """
        if self.store == "memory":
            return None
        if self.workdir is not None:
            return self.workdir
        cached = getattr(self, "_auto_workdir", None)
        if cached is None:
            cached = tempfile.mkdtemp(prefix="repro-campaign-")
            object.__setattr__(self, "_auto_workdir", cached)
        return cached

    def cleanup_workdir(self) -> None:
        """Remove the store root *if this grid auto-created it*.

        A caller-supplied ``workdir`` is never touched — whoever named
        the location owns its lifecycle.  Safe to call repeatedly; a
        later :meth:`expand` reuses the same cached path and the cells
        recreate their directories on demand.
        """
        cached = getattr(self, "_auto_workdir", None)
        if cached is not None:
            shutil.rmtree(cached, ignore_errors=True)

    def preset_scenario(self, protocol: str, scenario_name: str) -> ProtocolScenario:
        """The concrete scenario a (protocol, preset) coordinate runs."""
        if scenario_name == "default":
            scenario = default_scenarios()[protocol]
            if self.duration is not None:
                scenario = replace(
                    scenario, duration=min(scenario.duration, self.duration)
                )
            return scenario
        # Adversarial presets size their fault windows relative to the
        # duration, so it is passed in rather than capped after the fact.
        return adversarial_scenarios(
            n_nodes=self.n_nodes, duration=self.duration or 240.0
        )[scenario_name]

    def expand(self) -> List[CampaignCell]:
        """All cells of the grid, in deterministic row-major order."""
        workdir = self.effective_workdir()
        cells: List[CampaignCell] = []
        for protocol in self.protocols:
            for scenario_name in self.scenarios:
                preset = self.preset_scenario(protocol, scenario_name)
                if self.gossip != "flood":
                    preset = replace(preset, gossip=self.gossip)
                if self.topology != "full":
                    preset = replace(
                        preset,
                        topology=self.topology,
                        topology_degree=self.topology_degree,
                    )
                for index, base_seed in enumerate(self.seeds):
                    scenario = preset
                    baseline = base_seed is None
                    if not baseline:
                        # sha256(seed, protocol, scenario, cell_index):
                        # cells differing only in index get distinct
                        # streams; re-expanding replays identically.
                        scenario = replace(scenario, seed=base_seed).for_cell(
                            protocol, index
                        )
                    if self.metrics_interval is not None and not baseline:
                        if scenario.metrics_interval == 0.0:
                            scenario = replace(
                                scenario, metrics_interval=self.metrics_interval
                            )
                    if self.store != "memory":
                        scenario = replace(
                            scenario,
                            store=self.store,
                            store_dir=os.path.join(
                                workdir, f"{protocol}-{scenario_name}-{index}"
                            ),
                        )
                    cells.append(
                        CampaignCell(
                            protocol=protocol,
                            scenario_name=scenario_name,
                            seed_index=index,
                            scenario=scenario,
                        )
                    )
        return cells
