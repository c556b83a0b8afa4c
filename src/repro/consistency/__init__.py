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

Complexity guarantees (n blocks, r reads, p reads-forever processes;
README § Performance for the measured gates):
Strong Prefix O(r·log n) via a running-maximum scan, Eventual Prefix
O(p·log n + r) via a collective-LCA fold, Block Validity O(n + r) via a
cumulative root-path memo, all in :mod:`repro.consistency.properties`,
the one implementation of each clause.  Failing verdicts cost the same:
each scan names its own witness.  The pre-index pairwise checkers
(:mod:`repro.consistency.reference`) are kept for the differential
tests and benches only.
"""
