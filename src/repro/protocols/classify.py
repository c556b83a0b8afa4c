"""Regenerate Table 1: run every protocol and classify it in the framework.

For each system the classifier runs the simulation, then derives the row
from *measurements*, not from the declared tags:

* **oracle behaviour** — the maximum number of committed children per
  block across all replicas (k-fork witness): 1 ⇒ Θ_F,k=1-compatible,
  >1 ⇒ fork-allowing (prodigal-class);
* **SC / EC verdicts** — the Definition 3.2/3.4 checkers on the recorded
  history (purged of unsuccessful appends) with the run's continuation;
* the **match** column compares the measured classification with the
  paper's Table 1 expectation carried by the node class.

Every measurement is derived from **all** replicas, never from replica 0
alone: under a partition scenario node 0 may be the isolated minority,
so ``blocks_committed`` comes from the *majority view* (the final chain
the largest group of replicas agrees on) and the declared oracle tags
are asserted to agree across the whole membership.

:func:`classify_protocol` is a thin wrapper over the campaign engine's
single-cell runner (:func:`repro.campaign.run_single_cell`) — the same
code path the (protocol × scenario × seed) grid executes in parallel —
so a campaign matrix's default-scenario column reproduces these rows
byte-for-byte.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.blocktree.chain import Chain
from repro.blocktree.score import LengthScore
from repro.consistency.criteria import BTEventualConsistency, BTStrongConsistency
from repro.protocols.algorand import run_algorand
from repro.protocols.base import ProtocolRun
from repro.protocols.bitcoin import run_bitcoin
from repro.protocols.byzcoin import run_byzcoin
from repro.protocols.ethereum import run_ethereum
from repro.protocols.hyperledger import run_hyperledger
from repro.protocols.peercensus import run_peercensus
from repro.protocols.redbelly import run_redbelly
from repro.workloads.scenarios import ProtocolScenario, default_scenarios

__all__ = [
    "ClassificationRow",
    "classify_run",
    "majority_view",
    "classify_protocol",
    "classify_all",
    "RUNNERS",
]

#: The seven Table 1 systems in the paper's row order, each with its
#: runner — the one place the list is written (campaign grids and
#: :func:`classify_all` iterate it).
RUNNERS: Dict[str, Callable[..., ProtocolRun]] = {
    "bitcoin": run_bitcoin,
    "ethereum": run_ethereum,
    "algorand": run_algorand,
    "byzcoin": run_byzcoin,
    "peercensus": run_peercensus,
    "redbelly": run_redbelly,
    "hyperledger": run_hyperledger,
}


@dataclass(frozen=True)
class ClassificationRow:
    """One Table 1 row, measured."""

    protocol: str
    oracle_declared: str
    expected_refinement: str
    max_fork_degree: int
    sc_ok: bool
    ec_ok: bool
    sc_failures: str
    measured_refinement: str
    matches_paper: bool
    blocks_committed: int

    def as_tuple(self):
        return (
            self.protocol,
            self.oracle_declared,
            self.measured_refinement,
            self.expected_refinement,
            "yes" if self.matches_paper else "NO",
        )


def majority_view(chains: Dict[str, Chain]) -> Chain:
    """The final chain the largest group of replicas agrees on.

    Replicas vote by final tip; ties break toward the taller chain and
    then the lexicographically smallest tip id, so the selection is
    deterministic.  Under a partition the isolated minority (which may
    well contain replica 0) is outvoted instead of speaking for the run.
    """
    if not chains:
        raise ValueError("majority_view needs at least one chain")
    votes = Counter(chain.tip_id for chain in chains.values())
    by_tip = {chain.tip_id: chain for chain in chains.values()}
    best_tip = min(votes, key=lambda tip: (-votes[tip], -by_tip[tip].height, tip))
    return by_tip[best_tip]


def classify_run(name: str, run: ProtocolRun) -> ClassificationRow:
    """Derive a Table 1 row from a finished run, using *all* replicas.

    ``run.nodes[0]`` has no privileged role: the declared oracle tags
    must agree across the membership (a mixed fleet is a configuration
    error, not a measurable system) and ``blocks_committed`` is the
    height of the :func:`majority_view` chain.

    The criteria apply *per recorded history* — one for a single chain,
    one per shard for a sharded run, each sub-community chain an
    independent BT-ADT: the SC/EC flags AND over ``run.histories``
    (sharded failures are prefixed ``s<shard>:``), ``max_fork_degree``
    is the widest fork on any pipeline, and ``blocks_committed`` sums
    the per-shard majority-view heights.
    """
    kinds = {chain.oracle_kind for _, _, chain in run.pipelines()}
    expectations = {chain.expected_refinement for _, _, chain in run.pipelines()}
    if len(kinds) != 1 or len(expectations) != 1:
        raise ValueError(
            f"{name}: replicas disagree on declared classification "
            f"(oracles {sorted(kinds)}, expectations {sorted(expectations)})"
        )
    oracle_declared = kinds.pop()
    expected = expectations.pop()
    score = LengthScore()
    sc_ok, ec_ok = True, True
    sc_failures: List[str] = []
    for shard, recorded in sorted(run.histories.items()):
        history = recorded.purged()
        sc_report = BTStrongConsistency(score=score).check(history)
        ec_report = BTEventualConsistency(score=score).check(history)
        sc_ok = sc_ok and sc_report.ok
        ec_ok = ec_ok and ec_report.ok
        prefix = f"s{shard}:" if run.shards > 1 else ""
        sc_failures.extend(prefix + failure for failure in sc_report.failures())
    fork_degree = run.max_fork_degree()

    if fork_degree <= 1 and sc_ok:
        measured = "R(BT-ADT_SC, Θ_F,k=1)"
    elif ec_ok:
        measured = "R(BT-ADT_EC, Θ_P)"
    else:
        measured = "inconsistent"
    expected_core = expected.replace(" w.h.p.", "")
    return ClassificationRow(
        protocol=name,
        oracle_declared=oracle_declared,
        expected_refinement=expected,
        max_fork_degree=fork_degree,
        sc_ok=sc_ok,
        ec_ok=ec_ok,
        sc_failures=", ".join(sc_failures) or "-",
        measured_refinement=measured,
        matches_paper=measured == expected_core,
        blocks_committed=sum(
            chain.height for chain in run.final_majority_chains().values()
        ),
    )


def classify_protocol(
    name: str, scenario: Optional[ProtocolScenario] = None
) -> ClassificationRow:
    """Run protocol ``name`` and derive its Table 1 row from measurements.

    Thin single-cell wrapper over the campaign engine: one (protocol ×
    scenario) cell executed in-process, returning only the row.
    """
    from repro.campaign import run_single_cell

    scenario = scenario or default_scenarios()[name]
    return run_single_cell(name, scenario).row


def classify_all(
    scenarios: Optional[Dict[str, ProtocolScenario]] = None,
) -> List[ClassificationRow]:
    """Classify every Table 1 system; returns rows in the paper's order."""
    scenarios = scenarios or default_scenarios()
    return [classify_protocol(name, scenarios.get(name)) for name in RUNNERS]
