"""Consistency criteria over BT-ADT histories (paper Section 3.1.2).

A consistency criterion ``C : T → P(H)`` (Definition 2.5) maps an ADT to
its set of admissible concurrent histories.  This subpackage implements
the four properties of the BT Strong Consistency criterion
(Definition 3.2), the Eventual Prefix property (Definition 3.3), the
composed **SC** and **EC** criteria (Definitions 3.2/3.4), k-Fork
Coherence (Definition 3.9), and the hierarchy experiments of
Theorems 3.1/3.3/3.4.

Safety clauses (Block Validity, Local Monotonic Read, Strong Prefix,
k-Fork Coherence) are decided exactly on finite histories.  The liveness
clauses (Ever-Growing Tree, Eventual Prefix) are decided under the
continuation semantics of :mod:`repro.histories.continuation`; without a
continuation declaration a finite history is complete and satisfies them
vacuously.

Complexity guarantees (n blocks, r reads, c chain length, p
reads-forever processes; README § Performance for the measured gates):
batch Strong Prefix O(r·log n) via a running-maximum scan, Eventual
Prefix O(p·log n + r) via a collective-LCA fold, Block Validity
O(n + r) via a cumulative root-path memo; the online
:class:`~repro.consistency.monitor.ConsistencyMonitor` pays O(log c)
per read for Strong Prefix and amortized O(Δ) for Block Validity.
Failing verdicts cost the same: each scan names its own witness.  The
pre-index pairwise checkers (:mod:`repro.consistency.reference`) are
re-exported here for the differential tests and benches only.
"""

from repro.consistency.properties import (
    PropertyCheck,
    check_block_validity,
    check_eventual_prefix,
    check_ever_growing_tree,
    check_k_fork_coherence,
    check_local_monotonic_read,
    check_strong_prefix,
    program_order_reaches,
)
from repro.consistency.criteria import (
    BTEventualConsistency,
    BTStrongConsistency,
    CriterionReport,
)
from repro.consistency.hierarchy import (
    HierarchyEdge,
    hierarchy_edges,
    random_refinement_history,
)
from repro.consistency.embedding import LinearizationResult, linearize_bt_history
from repro.consistency.monitor import ConsistencyMonitor, Violation
from repro.consistency.reference import (
    pairwise_check_block_validity,
    pairwise_check_eventual_prefix,
    pairwise_check_strong_prefix,
)

__all__ = [
    "PropertyCheck",
    "check_block_validity",
    "check_local_monotonic_read",
    "check_strong_prefix",
    "check_ever_growing_tree",
    "check_eventual_prefix",
    "check_k_fork_coherence",
    "program_order_reaches",
    "CriterionReport",
    "BTStrongConsistency",
    "BTEventualConsistency",
    "HierarchyEdge",
    "hierarchy_edges",
    "random_refinement_history",
    "LinearizationResult",
    "linearize_bt_history",
    "ConsistencyMonitor",
    "Violation",
    "pairwise_check_block_validity",
    "pairwise_check_strong_prefix",
    "pairwise_check_eventual_prefix",
]
