"""SHA-256 hashing helpers and difficulty arithmetic.

Difficulty follows the Bitcoin convention in simplified form: a hash
meets difficulty ``d`` iff its ``d`` most-significant bits are zero, so
the expected number of attempts is ``2**d``.
"""

from __future__ import annotations

from typing import Any

from repro._util import sha256_hex as hash_hex

__all__ = ["hash_hex", "hash_to_unit", "leading_zero_bits", "meets_difficulty"]


def hash_to_unit(*parts: Any) -> float:
    """Map a hash to ``[0, 1)`` — used for committee lotteries."""
    digest = hash_hex(*parts)
    return int(digest[:16], 16) / float(1 << 64)


def leading_zero_bits(hex_digest: str) -> int:
    """Number of leading zero bits of a hex digest."""
    value = int(hex_digest, 16)
    total_bits = len(hex_digest) * 4
    if value == 0:
        return total_bits
    return total_bits - value.bit_length()


def meets_difficulty(hex_digest: str, difficulty_bits: int) -> bool:
    """Whether ``hex_digest`` has at least ``difficulty_bits`` leading zeros."""
    return leading_zero_bits(hex_digest) >= difficulty_bits
