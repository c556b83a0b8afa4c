"""Hash-preimage proof-of-work — the Dwork–Naor mechanism (paper §1, [15]).

A :class:`PoWPuzzle` binds a header (parent id, payload commitment,
miner id) to a difficulty; :meth:`PoWPuzzle.mine` scans nonces until the
header hash meets the difficulty.  This is the concrete mechanism the
prodigal oracle abstracts for Bitcoin/Ethereum (§5.1–5.2): the *tape* of
a merit-α miner corresponds to its sequence of nonce trials, each a
Bernoulli(2^-difficulty) token draw.  :meth:`PoWPuzzle.for_block` is the
one place a block's header is built, for its miner and its verifiers.

The network simulator usually models mining *time* instead (exponential
races, :mod:`repro.protocols.base`) because simulating hash trials is
wasteful; this module exists so the mechanism itself is implemented and
tested, and the Table 1 protocols can run in "real PoW" mode at low
difficulty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.crypto.hashing import hash_hex, meets_difficulty
from repro.crypto.merkle import merkle_root

__all__ = ["PoWPuzzle", "PoWSolution"]


@dataclass(frozen=True)
class PoWSolution:
    """A successful proof-of-work: nonce plus resulting digest."""

    nonce: int
    digest: str
    attempts: int


@dataclass(frozen=True)
class PoWPuzzle:
    """A mining puzzle over an immutable header.

    ``difficulty_bits`` leading zero bits are required; expected work is
    ``2**difficulty_bits`` hash evaluations.
    """

    parent_id: str
    payload_commitment: str
    miner: str
    difficulty_bits: int

    @classmethod
    def for_block(
        cls, parent_id: str, payload: Tuple[Any, ...], miner: str, difficulty_bits: int
    ) -> "PoWPuzzle":
        """The puzzle of a block on ``parent_id`` carrying ``payload``,
        committed to by its Merkle root."""
        return cls(parent_id, merkle_root(payload), miner, difficulty_bits)

    def header(self, nonce: int) -> Tuple[Any, ...]:
        """The hashed header tuple for a given nonce."""
        return ("pow", self.parent_id, self.payload_commitment, self.miner, nonce)

    def digest(self, nonce: int) -> str:
        """The header hash at ``nonce``."""
        return hash_hex(*self.header(nonce))

    def check(self, nonce: int) -> bool:
        """Verify a claimed solution nonce."""
        return meets_difficulty(self.digest(nonce), self.difficulty_bits)

    def mine(self, start_nonce: int = 0, max_attempts: int = 1_000_000) -> Optional[PoWSolution]:
        """Scan nonces from ``start_nonce``; return the first solution.

        Returns ``None`` when ``max_attempts`` trials fail — the caller's
        "tape" ran out of cells, mirroring a getToken ⊥ streak.
        """
        for attempt in range(max_attempts):
            nonce = start_nonce + attempt
            digest = self.digest(nonce)
            if meets_difficulty(digest, self.difficulty_bits):
                return PoWSolution(nonce=nonce, digest=digest, attempts=attempt + 1)
        return None
