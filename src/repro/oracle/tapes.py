"""Merit tapes: the oracle's pseudorandom token source (Definition 3.5).

For each merit ``αi`` the oracle state embeds an infinite tape over
``{tkn, ⊥}`` whose cells form "a pseudorandom sequence mostly
indistinguishable from a Bernoulli sequence" with ``P[cell = tkn] = p_αi``
(footnote 3 of the paper).  We realize the tape with the SHA-256 PRF of
:mod:`repro._util`: cell ``i`` of the tape for merit identity ``m`` under
seed ``s`` is ``tkn`` iff ``prf_unit(s, m, i) < p``.

Tapes are *stateful readers* over that immutable infinite word: ``head``
peeks the current cell, ``pop`` consumes it — exactly the ``head``/``pop``
helpers in the paper's oracle definition.  Two tapes constructed with the
same ``(seed, merit_id, probability)`` always agree cell-for-cell, which
the determinism tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro._util import prf_unit, require

__all__ = ["tape_cell", "MeritTape", "TapeSet"]


def tape_cell(seed: int, merit_id: str, index: int, probability: float) -> bool:
    """Whether cell ``index`` of the tape of ``merit_id`` under ``seed``
    contains ``tkn`` (a cell chance of ``probability``)."""
    return prf_unit("tape", seed, merit_id, index) < probability


@dataclass
class MeritTape:
    """An infinite ``{tkn, ⊥}`` tape for one merit parameter.

    ``probability`` is ``p_αi`` — the per-cell chance of ``tkn``; it must
    be strictly positive ("the oracle provides a token with a certain
    probability p_αi > 0"), which guarantees a token occurs eventually and
    hence getToken loops terminate.
    """

    seed: int
    merit_id: str
    probability: float
    position: int = 0

    def __post_init__(self) -> None:
        require(0.0 < self.probability <= 1.0, "merit probability must be in (0, 1]")

    def cell(self, index: int) -> bool:
        """Whether cell ``index`` of the immutable tape contains ``tkn``."""
        return tape_cell(self.seed, self.merit_id, index, self.probability)

    def head(self) -> bool:
        """Peek the current cell (the paper's ``head``)."""
        return self.cell(self.position)

    def pop(self) -> bool:
        """Consume and return the current cell (the paper's ``pop``)."""
        value = self.cell(self.position)
        self.position += 1
        return value

    def copy(self) -> "MeritTape":
        """Independent reader at the same position over the same tape."""
        return MeritTape(self.seed, self.merit_id, self.probability, self.position)


@dataclass
class TapeSet:
    """The oracle's family of tapes, one per merit identity (Figure 5).

    ``register`` declares a merit; tapes are created lazily on first use
    so that the "infinite set of merits" of the definition costs nothing.
    """

    seed: int
    default_probability: float = 0.5
    tapes: Dict[str, MeritTape] = field(default_factory=dict)

    def register(self, merit_id: str, probability: float) -> MeritTape:
        """Declare (or re-fetch) the tape of ``merit_id`` with ``p_αi``."""
        existing = self.tapes.get(merit_id)
        if existing is not None:
            require(
                existing.probability == probability,
                f"merit {merit_id!r} already registered with p={existing.probability}",
            )
            return existing
        tape = MeritTape(self.seed, merit_id, probability)
        self.tapes[merit_id] = tape
        return tape

    def tape(self, merit_id: str) -> MeritTape:
        """The tape for ``merit_id`` (created with the default probability)."""
        if merit_id not in self.tapes:
            self.tapes[merit_id] = MeritTape(self.seed, merit_id, self.default_probability)
        return self.tapes[merit_id]

    def copy(self) -> "TapeSet":
        """Deep copy (independent positions) — used by value-semantics states."""
        clone = TapeSet(self.seed, self.default_probability)
        clone.tapes = {k: t.copy() for k, t in self.tapes.items()}
        return clone

    def freeze(self):
        """Hashable snapshot of all tape positions."""
        return tuple(sorted((m, t.position) for m, t in self.tapes.items()))
