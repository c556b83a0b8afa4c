"""Merit tapes: the oracle's pseudorandom token source (Definition 3.5).

For each merit ``αi`` the oracle state embeds an infinite tape over
``{tkn, ⊥}`` whose cells form "a pseudorandom sequence mostly
indistinguishable from a Bernoulli sequence" with ``P[cell = tkn] = p_αi``
(footnote 3 of the paper).  We realize the tape with the SHA-256 PRF of
:mod:`repro._util`: cell ``i`` of the tape for merit identity ``m`` under
seed ``s`` is ``tkn`` iff ``prf_unit(s, m, i) < p``.

The tape itself is immutable; the position of its head (the paper's
``head``/``pop``) is part of the oracle state
:class:`~repro.oracle.theta.ThetaState`.  Two oracles with the same seed
and ``p_αi`` read the same cells, which the determinism tests rely on.
"""

from __future__ import annotations

from repro._util import prf_unit

__all__ = ["tape_cell"]


def tape_cell(seed: int, merit_id: str, index: int, probability: float) -> bool:
    """Whether cell ``index`` of the tape of ``merit_id`` under ``seed``
    contains ``tkn`` (a cell chance of ``probability``)."""
    return prf_unit("tape", seed, merit_id, index) < probability
