"""Compact set sketches for reconciliation gossip: Bloom filter + IBLT.

Erlay-style dissemination (Naumenko et al., CCS 2019 — adapted here to
the BT-ADT simulator) replaces forward-once flooding of transaction
bodies with periodic *set reconciliation*: two peers exchange compact
sketches of their id sets and transfer only the symmetric difference.
This module provides the two sketches the protocol in
:mod:`repro.net.reconcile` composes:

* :class:`BloomFilter` — a classic m-bit / k-hash Bloom filter used as
  the cheap *difference estimator*: the responder counts how many of its
  own ids the initiator's filter (probably) contains and sizes the IBLT
  from the two set cardinalities minus that overlap estimate.
* :class:`IBLT` — an invertible Bloom lookup table (Goodrich &
  Mitzenmaier 2011 / Eppstein et al. "What's the Difference?").  Each of
  ``cells`` buckets holds ``(count, key_sum, check_sum)``;
  :meth:`IBLT.subtract` of two same-shaped tables yields a table of the
  symmetric difference, and :meth:`IBLT.decode` peels it: any cell with
  ``count = ±1`` whose checksum matches its key sum exposes one key,
  which is then removed from its other cells, cascading until the table
  drains (success) or no pure cell remains (the caller retries with a
  larger table, or falls back to a full id exchange).

Determinism: every hash is SHA-256 via :func:`repro._util.prf_uint64`
seeded by an explicit ``salt``, so two replicas building a sketch over
the same id set with the same parameters produce byte-identical tables
— the property IBLT subtraction relies on, and the repository-wide
replayability rule.

Keys are arbitrary id strings; internally they are folded to 128-bit
digests (:func:`key_digest`).  Decode therefore returns *digests* — the
reconciliation layer keeps a digest → id map for the ids it owns and
ships digests for the ids it wants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, List, Tuple

from repro._util import prf_uint64

__all__ = ["BloomFilter", "IBLT", "key_digest", "iblt_cells_for"]

_DIGEST_MASK = (1 << 128) - 1

# The hashing below is pure, and reconciliation rounds rebuild sketches
# over mostly-unchanged pools every few simulated seconds, so the SHA-256
# draws are memoized on what they hash — (salt, index, key), never the
# table shape.  A Bloom filter is sized by its pool, which changes almost
# every round, so its draws are reduced ``% m_bits`` at use: a rebuild
# costs O(pool × k) dict hits and modulos plus SHA-256 for new ids only.
# IBLT sizes are powers of two and repeat, so each key's distinct-cell
# positions are memoized per shape on top of the per-draw cache.  Caches
# are bounded and deterministic (pure functions).


@lru_cache(maxsize=1 << 16)
def key_digest(key: str) -> int:
    """Fold an id string to the 128-bit integer the sketches operate on.

    128 bits keep the collision probability negligible at any pool size
    this simulator reaches (birthday bound ~2^-64 even at 2^32 ids).
    """
    hi = prf_uint64("sketch-key-hi", key)
    lo = prf_uint64("sketch-key-lo", key)
    return ((hi << 64) | lo) & _DIGEST_MASK


@lru_cache(maxsize=1 << 16)
def _checksum(digest: int) -> int:
    """Per-key checksum guarding :meth:`IBLT.decode` peeling."""
    return prf_uint64("sketch-check", digest)


@lru_cache(maxsize=1 << 16)
def _bloom_draws(salt: int, k: int, item: str) -> Tuple[int, ...]:
    """The ``k`` raw 64-bit hashes of ``item``, before ``% m_bits``."""
    return tuple(prf_uint64("bloom", salt, i, item) for i in range(k))


@lru_cache(maxsize=1 << 16)
def _iblt_draw(salt: int, attempt: int, digest: int) -> int:
    return prf_uint64("iblt", salt, attempt, digest)


@lru_cache(maxsize=1 << 16)
def _iblt_positions(salt: int, cells: int, k: int, digest: int) -> Tuple[int, ...]:
    # Distinct cells per key: k draws without replacement keeps the
    # peeling graph simple (a key never cancels itself in a cell).
    positions: List[int] = []
    attempt = 0
    while len(positions) < k:
        pos = _iblt_draw(salt, attempt, digest) % cells
        if pos not in positions:
            positions.append(pos)
        attempt += 1
    return tuple(positions)


def iblt_cells_for(diff_estimate: int) -> int:
    """Table size for an estimated symmetric-difference cardinality.

    Peeling with ``k = 3`` hashes succeeds with high probability when
    the table has ~1.3× the difference's cells; small differences need
    extra slack because the asymptotics have not kicked in.  The 3×
    factor plus a floor of 16 keeps the first-shot decode failure rate
    low enough that the doubling retry path is rare (it stays correct
    either way).
    """
    return max(16, 3 * max(1, diff_estimate))


@dataclass
class BloomFilter:
    """An ``m_bits``/``k`` Bloom filter with deterministic seeded hashing.

    The bit array lives in one Python int (:attr:`bits`) so the filter
    is a value: hashable content, trivially comparable, and its wire
    cost is ``m_bits / 8`` bytes (:meth:`wire_bytes`).
    """

    m_bits: int
    k: int
    salt: int = 0
    bits: int = 0
    count: int = 0

    def __post_init__(self) -> None:
        if self.m_bits < 8:
            raise ValueError("m_bits must be >= 8")
        if self.k < 1:
            raise ValueError("k must be >= 1")

    @staticmethod
    def for_items(
        items: Iterable[str], salt: int = 0, bits_per_item: int = 8
    ) -> "BloomFilter":
        """A filter sized for ``items`` (~2-3% false positives at 8 b/item)."""
        ids = list(items)
        bloom = BloomFilter(m_bits=max(64, bits_per_item * len(ids)), k=4, salt=salt)
        for item in ids:
            bloom.add(item)
        return bloom

    def _positions(self, item: str) -> Tuple[int, ...]:
        m_bits = self.m_bits
        return tuple(draw % m_bits for draw in _bloom_draws(self.salt, self.k, item))

    def add(self, item: str) -> None:
        for pos in self._positions(item):
            self.bits |= 1 << pos
        self.count += 1

    def __contains__(self, item: str) -> bool:
        return all(self.bits >> pos & 1 for pos in self._positions(item))

    def absent(self, items: Iterable[str]) -> int:
        """How many of ``items`` are definitely not in the filter."""
        return sum(1 for item in items if item not in self)

    def wire_bytes(self) -> int:
        """Modelled wire cost: the bit array plus a small fixed header."""
        return self.m_bits // 8 + 16


@dataclass
class IBLT:
    """An invertible Bloom lookup table over 128-bit key digests.

    ``cells`` buckets × ``k`` hash positions per key; ``salt`` must
    match between the two tables being subtracted (the reconciliation
    round carries it).  Instances are value-like: build, optionally
    subtract, decode — never mutate a table after sending it.
    """

    cells: int
    k: int = 3
    salt: int = 0
    counts: List[int] = field(default_factory=list)
    key_sums: List[int] = field(default_factory=list)
    check_sums: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.cells < 4:
            raise ValueError("cells must be >= 4")
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if not self.counts:
            self.counts = [0] * self.cells
            self.key_sums = [0] * self.cells
            self.check_sums = [0] * self.cells

    @staticmethod
    def for_items(
        items: Iterable[str], cells: int, salt: int = 0, k: int = 3
    ) -> "IBLT":
        """Build a table containing every id in ``items``."""
        table = IBLT(cells=cells, k=k, salt=salt)
        for item in items:
            table.insert(key_digest(item))
        return table

    def _positions(self, digest: int) -> Tuple[int, ...]:
        return _iblt_positions(self.salt, self.cells, self.k, digest)

    def insert(self, digest: int) -> None:
        self._apply(digest, +1)

    def delete(self, digest: int) -> None:
        self._apply(digest, -1)

    def _apply(self, digest: int, sign: int) -> None:
        check = _checksum(digest)
        for pos in self._positions(digest):
            self.counts[pos] += sign
            self.key_sums[pos] ^= digest
            self.check_sums[pos] ^= check

    def subtract(self, other: "IBLT") -> "IBLT":
        """The cell-wise difference ``self - other`` (same shape + salt).

        Decoding the result yields the symmetric difference of the two
        underlying sets: keys only in ``self`` appear with count ``+1``,
        keys only in ``other`` with ``-1``; common keys cancel exactly
        because the hashing is salt-deterministic.
        """
        if (self.cells, self.k, self.salt) != (other.cells, other.k, other.salt):
            raise ValueError("subtract needs same-shaped, same-salt tables")
        diff = IBLT(cells=self.cells, k=self.k, salt=self.salt)
        for i in range(self.cells):
            diff.counts[i] = self.counts[i] - other.counts[i]
            diff.key_sums[i] = self.key_sums[i] ^ other.key_sums[i]
            diff.check_sums[i] = self.check_sums[i] ^ other.check_sums[i]
        return diff

    def _pure(self, i: int) -> bool:
        return (
            self.counts[i] in (1, -1)
            and self.key_sums[i] != 0
            and self.check_sums[i] == _checksum(self.key_sums[i])
        )

    def decode(self) -> Tuple[Tuple[int, ...], Tuple[int, ...], bool]:
        """Peel the table: ``(positive, negative, ok)`` digest tuples.

        ``positive`` holds keys with count ``+1`` (present in the
        minuend only), ``negative`` count ``-1``.  ``ok`` is False when
        peeling stalls before the table empties — the difference was too
        large for the table; the caller grows it and retries.  Decoding
        works on a scratch copy: the table itself is not consumed.
        """
        scratch = IBLT(cells=self.cells, k=self.k, salt=self.salt)
        scratch.counts = list(self.counts)
        scratch.key_sums = list(self.key_sums)
        scratch.check_sums = list(self.check_sums)
        positive: List[int] = []
        negative: List[int] = []
        queue = [i for i in range(scratch.cells) if scratch._pure(i)]
        while queue:
            i = queue.pop()
            if not scratch._pure(i):
                continue
            digest = scratch.key_sums[i]
            sign = scratch.counts[i]
            (positive if sign == 1 else negative).append(digest)
            scratch._apply(digest, -sign)
            for pos in scratch._positions(digest):
                if scratch._pure(pos):
                    queue.append(pos)
        drained = all(
            c == 0 and k == 0 for c, k in zip(scratch.counts, scratch.key_sums)
        )
        return tuple(sorted(positive)), tuple(sorted(negative)), drained

    def wire_bytes(self) -> int:
        """Modelled wire cost: 28 B/cell (count 4 + key 16 + check 8)."""
        return 28 * self.cells + 16
