"""Cryptographic substrate for the protocol simulations.

The paper abstracts block creation behind the token oracle; the concrete
systems of Table 1 instantiate it with proof-of-work (Bitcoin, Ethereum,
ByzCoin, PeerCensus) or cryptographic sortition (Algorand).  This
subpackage provides those mechanisms in deterministic, dependency-free
form:

* :mod:`repro.crypto.hashing` — SHA-256 wrappers and difficulty targets.
* :mod:`repro.crypto.pow` — hash-preimage proof-of-work (mine/verify).
* :mod:`repro.crypto.merkle` — Merkle roots for block payload commitment.
* :mod:`repro.crypto.vrf` — a simulated verifiable random function and
  Algorand-style stake-weighted sortition.
* :mod:`repro.crypto.signatures` — simulated signatures with a registry
  acting as the PKI (adequate for simulation: unforgeable unless the
  signing seed is known, verifiable by anyone holding the registry).
* :mod:`repro.crypto.auth` — the authenticated block/transaction
  pipeline: per-replica :class:`~repro.crypto.auth.BlockAuthenticator`
  (midstate-amortized + cached verification, equivocation evidence and
  bans) and scenario PKI derivation.
"""
