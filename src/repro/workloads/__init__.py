"""Synthetic workloads: transactions and standard experiment scenarios.

The validity predicate ``P`` of Definition 3.1 is application dependent —
"in Bitcoin, a block is considered valid if it can be connected to the
current blockchain and does not contain transactions that double spend a
previous transaction".  :mod:`repro.workloads.transactions` provides that
concrete instantiation: a UTXO-style transaction model, a seeded
generator (with optional double-spend injection) and the chain-contextual
validity check.  :mod:`repro.workloads.scenarios` packages the standard
parameter sets used by the benches.
"""
