"""Shared-memory concurrency substrate (paper Section 4.1).

The paper places the two oracles in Herlihy's consensus hierarchy:

* Θ_F,k=1 has consensus number ∞ (Theorem 4.2) — via a wait-free
  implementation of Compare&Swap from ``consumeToken`` (Figures 9–10) and
  Protocol A reducing Consensus to the oracle (Figure 11);
* Θ_P has consensus number 1 (Theorem 4.3) — via a wait-free
  implementation of its ``consumeToken`` from Atomic Snapshot (Figure 12).

This subpackage provides linearizable shared objects with value-semantics
state (:mod:`repro.concurrent.objects`), a step-level scheduler for
programs expressed as explicit state machines
(:mod:`repro.concurrent.scheduler`), an exhaustive interleaving explorer
(:mod:`repro.concurrent.modelcheck`), the paper's reductions
(:mod:`repro.concurrent.reductions`), Protocol A
(:mod:`repro.concurrent.protocol_a`) and the register-only consensus
counterexample (:mod:`repro.concurrent.register_consensus`).
"""
