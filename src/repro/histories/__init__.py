"""Concurrent histories of ADT executions (paper Definitions 2.4 and 4.2).

A concurrent history ``H = ⟨Σ, E, Λ, ↦→, ≺, ր⟩`` consists of invocation
and response events with three orders:

* ``↦→`` (process order): events of the same process, in issue order;
* ``≺`` (operation order): invocation-before-matching-response, and
  response-at-time-t before invocation-at-time-t′ when ``t < t′``;
* ``ր`` (program order): the union of the two.

Histories here are finite recordings.  Because the paper's liveness-style
clauses (Ever-Growing Tree, Eventual Prefix) quantify over infinite
histories, a finite recording may be paired with a
:class:`~repro.histories.continuation.ContinuationModel` that declares how
each process's behaviour continues (grows a branch / is frozen / stops
reading) — turning those clauses into decidable checks.  See
``DESIGN.md`` ("Finite-history liveness semantics").
"""
