"""Abstract data types as transducers (paper Section 2).

An ADT is a 6-tuple ``⟨A, B, Z, ξ0, τ, δ⟩`` (Definition 2.1): a Mealy-style
transition system with a countable input alphabet ``A``, output alphabet
``B``, states ``Z``, initial state ``ξ0``, transition function ``τ`` and
output function ``δ``.  The *sequential specification* ``L(T)`` is the set
of operation sequences consistent with the transition system
(Definition 2.3).

This subpackage provides the generic machinery; concrete ADTs (the
BlockTree of Definition 3.1 and the token oracles of Definitions 3.5/3.6)
live in :mod:`repro.blocktree` and :mod:`repro.oracle`.
"""
