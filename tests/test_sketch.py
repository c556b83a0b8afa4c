"""Sketch-layer unit + property tests (Bloom filter, IBLT peeling)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import prf_uint64
from repro.net.sketch import BloomFilter, IBLT, iblt_cells_for, key_digest


def _ids(prefix: str, n: int) -> list:
    return [f"{prefix}{i:04d}" for i in range(n)]


# -- Bloom filter ----------------------------------------------------------------


def test_bloom_no_false_negatives():
    bloom = BloomFilter.for_items(_ids("tx", 200), salt=7)
    for item in _ids("tx", 200):
        assert item in bloom


def test_bloom_false_positive_rate_is_low():
    members = _ids("in", 256)
    bloom = BloomFilter.for_items(members, salt=3)
    probes = _ids("out", 2000)
    hits = sum(1 for p in probes if p in bloom)
    # 8 bits/item with k=4 gives ~2.4% theoretical FP; allow generous slack.
    assert hits / len(probes) < 0.10


def test_bloom_absent_counts_definite_misses():
    members = _ids("a", 50)
    bloom = BloomFilter.for_items(members, salt=1)
    assert bloom.absent(members) == 0
    # Absent is a lower bound on true misses (FPs only shrink it).
    assert bloom.absent(_ids("z", 50)) >= 40


def test_bloom_deterministic_across_instances():
    a = BloomFilter.for_items(_ids("x", 64), salt=9)
    b = BloomFilter.for_items(_ids("x", 64), salt=9)
    assert a.bits == b.bits
    c = BloomFilter.for_items(_ids("x", 64), salt=10)
    assert a.bits != c.bits


def test_bloom_rejects_degenerate_params():
    with pytest.raises(ValueError):
        BloomFilter(m_bits=4, k=2)
    with pytest.raises(ValueError):
        BloomFilter(m_bits=64, k=0)


def test_bloom_wire_bytes_tracks_size():
    assert BloomFilter(m_bits=1024, k=4).wire_bytes() == 1024 // 8 + 16


# -- IBLT ------------------------------------------------------------------------


def test_iblt_subtract_decode_recovers_difference():
    shared = _ids("s", 100)
    only_a = _ids("a", 5)
    only_b = _ids("b", 3)
    table_a = IBLT.for_items(shared + only_a, cells=64, salt=5)
    table_b = IBLT.for_items(shared + only_b, cells=64, salt=5)
    positive, negative, ok = table_a.subtract(table_b).decode()
    assert ok
    assert positive == tuple(sorted(key_digest(x) for x in only_a))
    assert negative == tuple(sorted(key_digest(x) for x in only_b))


def test_iblt_empty_difference_decodes_empty():
    items = _ids("e", 40)
    diff = IBLT.for_items(items, cells=32, salt=2).subtract(
        IBLT.for_items(items, cells=32, salt=2)
    )
    assert diff.decode() == ((), (), True)


def test_iblt_overload_reports_failure():
    # 300 differing items cannot peel out of a 16-cell table.
    table_a = IBLT.for_items(_ids("a", 300), cells=16, salt=1)
    table_b = IBLT.for_items(_ids("b", 300), cells=16, salt=1)
    _, _, ok = table_a.subtract(table_b).decode()
    assert not ok


def test_iblt_decode_does_not_consume_table():
    table = IBLT.for_items(_ids("k", 4), cells=32, salt=0)
    first = table.decode()
    second = table.decode()
    assert first == second and first[2]


def test_iblt_subtract_shape_mismatch_raises():
    base = IBLT(cells=32, salt=1)
    with pytest.raises(ValueError):
        base.subtract(IBLT(cells=64, salt=1))
    with pytest.raises(ValueError):
        base.subtract(IBLT(cells=32, salt=2))


def test_iblt_insert_delete_cancels():
    table = IBLT(cells=16, salt=4)
    digest = key_digest("tx-1")
    table.insert(digest)
    table.delete(digest)
    assert table.counts == [0] * 16
    assert table.key_sums == [0] * 16


def test_iblt_cells_for_scaling():
    assert iblt_cells_for(0) == 16
    assert iblt_cells_for(1) == 16
    assert iblt_cells_for(10) == 30
    assert iblt_cells_for(100) == 300


def test_key_digest_is_128_bit_and_stable():
    digest = key_digest("hello")
    assert digest == key_digest("hello")
    assert 0 < digest < 1 << 128
    assert digest != key_digest("hellp")


# -- hypothesis: round-trip of arbitrary symmetric differences -------------------

_id_strategy = st.text(
    alphabet="abcdef0123456789", min_size=1, max_size=12
).map(lambda s: "tx:" + s)


@settings(max_examples=60, deadline=None)
@given(
    shared=st.sets(_id_strategy, max_size=60),
    left=st.sets(_id_strategy, max_size=25),
    right=st.sets(_id_strategy, max_size=25),
)
def test_iblt_roundtrips_arbitrary_symmetric_difference(shared, left, right):
    only_left = left - right - shared
    only_right = right - left - shared
    diff_size = len(only_left) + len(only_right)
    cells = iblt_cells_for(diff_size)
    table_a = IBLT.for_items(shared | only_left, cells=cells, salt=11)
    table_b = IBLT.for_items(shared | only_right, cells=cells, salt=11)
    positive, negative, ok = table_a.subtract(table_b).decode()
    if ok:
        assert positive == tuple(sorted(key_digest(x) for x in only_left))
        assert negative == tuple(sorted(key_digest(x) for x in only_right))
    else:
        # A sized-up retry must succeed the way the protocol's grow path does.
        big = iblt_cells_for(diff_size) * 4
        table_a2 = IBLT.for_items(shared | only_left, cells=big, salt=12)
        table_b2 = IBLT.for_items(shared | only_right, cells=big, salt=12)
        positive2, negative2, ok2 = table_a2.subtract(table_b2).decode()
        assert ok2
        assert positive2 == tuple(sorted(key_digest(x) for x in only_left))
        assert negative2 == tuple(sorted(key_digest(x) for x in only_right))


# -- hypothesis: the memoized draws equal the unmemoized hashing -----------------
#
# The caches key Bloom draws on (salt, k, item) and IBLT draws on
# (salt, attempt, digest), reducing them to the table shape at use.  The
# reference below hashes from scratch per (salt, shape, key), as the
# sketches did before the draws were shared across shapes.


def _ref_bloom_positions(salt, m_bits, k, item):
    return tuple(prf_uint64("bloom", salt, i, item) % m_bits for i in range(k))


def _ref_iblt_positions(salt, cells, k, digest):
    positions = []
    attempt = 0
    while len(positions) < k:
        pos = prf_uint64("iblt", salt, attempt, digest) % cells
        if pos not in positions:
            positions.append(pos)
        attempt += 1
    return tuple(positions)


def _ref_apply(table, salt, k, digest, sign):
    counts, key_sums, check_sums = table
    check = prf_uint64("sketch-check", digest)
    for pos in _ref_iblt_positions(salt, len(counts), k, digest):
        counts[pos] += sign
        key_sums[pos] ^= digest
        check_sums[pos] ^= check


def _ref_decode(table, salt, k):
    counts, key_sums, check_sums = (list(column) for column in table)
    scratch = (counts, key_sums, check_sums)

    def pure(i):
        return (
            counts[i] in (1, -1)
            and key_sums[i] != 0
            and check_sums[i] == prf_uint64("sketch-check", key_sums[i])
        )

    positive, negative = [], []
    queue = [i for i in range(len(counts)) if pure(i)]
    while queue:
        i = queue.pop()
        if not pure(i):
            continue
        digest, sign = key_sums[i], counts[i]
        (positive if sign == 1 else negative).append(digest)
        _ref_apply(scratch, salt, k, digest, -sign)
        queue.extend(
            pos for pos in _ref_iblt_positions(salt, len(counts), k, digest) if pure(pos)
        )
    drained = all(c == 0 and s == 0 for c, s in zip(counts, key_sums))
    return tuple(sorted(positive)), tuple(sorted(negative)), drained


@settings(max_examples=80, deadline=None)
@given(
    left=st.lists(_id_strategy, max_size=40, unique=True),
    right=st.lists(_id_strategy, max_size=40, unique=True),
    sizes=st.lists(st.integers(min_value=1, max_value=80), min_size=1, max_size=4),
    salt=st.integers(min_value=0, max_value=3),
    k=st.integers(min_value=2, max_value=5),
)
def test_memoized_draws_match_per_shape_hashing(left, right, sizes, salt, k):
    # Several shapes per example, so each build runs on caches another
    # shape (and earlier examples) warmed.
    for size in sizes:
        m_bits = max(64, 8 * size)
        bloom = BloomFilter(m_bits=m_bits, k=k, salt=salt)
        bits = 0
        for item in left:
            bloom.add(item)
            for pos in _ref_bloom_positions(salt, m_bits, k, item):
                bits |= 1 << pos
        assert bloom.bits == bits
        assert [x in bloom for x in right] == [
            all(bits >> p & 1 for p in _ref_bloom_positions(salt, m_bits, k, x))
            for x in right
        ]

        cells = 16 if size < 20 else iblt_cells_for(size)
        tables, refs = [], []
        for items in (left, right):
            tables.append(IBLT.for_items(items, cells=cells, salt=salt, k=k))
            ref = ([0] * cells, [0] * cells, [0] * cells)
            for item in items:
                _ref_apply(ref, salt, k, key_digest(item), +1)
            refs.append(ref)
            assert (tables[-1].counts, tables[-1].key_sums, tables[-1].check_sums) == ref
        diff = tables[0].subtract(tables[1])
        ref_diff = tuple(
            [a - b for a, b in zip(refs[0][0], refs[1][0])] if column == 0
            else [a ^ b for a, b in zip(refs[0][column], refs[1][column])]
            for column in range(3)
        )
        assert diff.decode() == _ref_decode(ref_diff, salt, k)
