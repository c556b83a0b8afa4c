"""Tests for repro._util deterministic helpers."""

import dataclasses
import enum
import math
import pickle
import struct
from collections import namedtuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import _util
from repro._util import (
    pairwise_unordered,
    prf_uint64,
    prf_unit,
    require,
    sha256_hex,
    stable_repr,
    wire_size,
)
from repro.blocktree.block import GENESIS, make_block
from repro.crypto.auth import EquivocationEvidence
from repro.crypto.signatures import Signature
from repro.oracle.tapes import tape_cell
from repro.paper.figures import paper_blocks
from repro.storage.base import decode_block, encode_block
from repro.workloads.transactions import Transaction


def reference_stable_repr(value):
    """The recursive encoder ``stable_repr`` replaced, kept verbatim as
    the differential oracle: every encoding must stay byte-identical."""
    if value is None:
        return b"N"
    if isinstance(value, bool):
        return b"B1" if value else b"B0"
    if isinstance(value, int):
        return b"I" + str(value).encode()
    if isinstance(value, float):
        return b"F" + struct.pack(">d", value)
    if isinstance(value, str):
        data = value.encode()
        return b"S" + str(len(data)).encode() + b":" + data
    if isinstance(value, bytes):
        return b"Y" + str(len(value)).encode() + b":" + value
    if isinstance(value, (tuple, list)):
        inner = b"".join(reference_stable_repr(v) for v in value)
        return b"T(" + inner + b")"
    if isinstance(value, dict):
        items = sorted(value.items(), key=lambda kv: reference_stable_repr(kv[0]))
        inner = b"".join(
            reference_stable_repr(k) + reference_stable_repr(v) for k, v in items
        )
        return b"D(" + inner + b")"
    if isinstance(value, (set, frozenset)):
        inner = b"".join(sorted(reference_stable_repr(v) for v in value))
        return b"Z(" + inner + b")"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        exclude = getattr(type(value), "_STABLE_REPR_EXCLUDE", ())
        fields = tuple(
            (f.name, getattr(value, f.name))
            for f in dataclasses.fields(value)
            if f.name not in exclude
        )
        return b"C" + type(value).__name__.encode() + reference_stable_repr(fields)
    raise TypeError(f"stable_repr does not support {type(value)!r}")


def reference_wire_size(value):
    """The one wire-size rule as plain recursion: the oracle of
    ``wire_size``'s dispatch table, field plans and memo."""
    if callable(getattr(value, "wire_bytes", None)):
        return value.wire_bytes()
    if value is None or isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, str):
        return len(value) + 1
    if isinstance(value, (tuple, list)):
        return 4 + sum(reference_wire_size(v) for v in value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = dataclasses.fields(value)
        return 4 + sum(reference_wire_size(getattr(value, f.name)) for f in fields)
    return 16


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


Pair = namedtuple("Pair", "left right")

_signature = st.builds(
    Signature, signer=st.text(max_size=4), digest=st.text(max_size=8)
)
_signatures = st.one_of(st.none(), _signature)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=12),
    st.binary(max_size=12),
    st.sampled_from(Level),
    _signature,
)
_keys = st.one_of(st.integers(), st.text(max_size=6), st.binary(max_size=6))


@st.composite
def _transactions(draw):
    tx = Transaction.make(
        draw(st.lists(st.text(max_size=8), max_size=3)),
        draw(st.lists(st.text(max_size=8), max_size=3)),
        draw(st.text(max_size=5)),
        draw(st.floats(min_value=0, max_value=1e6)),
    )
    return dataclasses.replace(tx, signature=draw(_signatures))


@st.composite
def _blocks(draw):
    block = make_block(
        draw(st.sampled_from([GENESIS, "p" * 64])),
        label=draw(st.text(max_size=6)),
        payload=draw(st.lists(st.one_of(_transactions(), _scalars), max_size=4)),
        creator=draw(st.one_of(st.none(), st.integers(0, 9))),
        nonce=draw(st.integers(0, 2**40)),
    )
    return dataclasses.replace(block, signature=draw(_signatures))


_values = st.recursive(
    st.one_of(_scalars, _transactions(), _blocks()),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.tuples(children, children).map(lambda t: Pair(*t)),
        st.dictionaries(_keys, children, max_size=4),
        st.frozensets(_keys, max_size=4),
        st.sets(_keys, max_size=4),
    ),
    max_leaves=12,
)


class TestEncoderDifferential:
    @settings(max_examples=300, deadline=None)
    @given(_values)
    def test_matches_the_reference_encoder(self, value):
        expected = reference_stable_repr(value)
        assert stable_repr(value) == expected
        assert stable_repr(value) == expected  # memoized transactions too

    @settings(max_examples=300, deadline=None)
    @given(_values)
    def test_wire_size_matches_the_reference(self, value):
        expected = reference_wire_size(value)
        assert wire_size(value) == expected
        assert wire_size(value) == expected  # memoized transactions too

    def test_subclasses_resolve_like_the_reference(self):
        @dataclasses.dataclass(frozen=True)
        class Countersigned(Signature):
            witness: int = 0

        class Labels(tuple):
            pass

        for value in (
            Signature("a", "b"),  # the base first: its encoder is then cached
            Countersigned("a", "b", 3),
            Labels(("x", Level.HIGH)),
            Labels(()),
        ):
            assert stable_repr(value) == reference_stable_repr(value)

    def test_unsupported_types_still_raise(self):
        with pytest.raises(TypeError):
            stable_repr(bytearray(b"x"))
        with pytest.raises(TypeError):
            stable_repr(Transaction)  # a dataclass *class* is no value


#: Ids minted before the encoder was rewritten; any drift re-baselines
#: every block id, tx id and oracle tape in the repository.
GOLDEN_PAPER_BLOCK_IDS = {
    "1": "7c6ca34ed66c58f78819828147fd243545c992228dcfaf39ba583db99cc34a59",
    "2": "3743c567b3b5d64981aacb39fead02d8dab06983987071efa61f08bd2d7c7d65",
    "3": "e4e98d34ef1873e602a5f47bf525a35bf77a85a9f572d7acdca277039d17793c",
    "4": "7fd1686d57065f0dcaa9dfe10b6709b456ef6b0e6fe99ba9858364aff7a4ddc6",
    "5": "0648083feffe06596610ef0990a52502d0fee042d517670af26b3b9bdf201624",
    "6": "4ec97bd9c6f40df45c4380d6105ccc726620a2788c437fc8e75b33d2e4756fdd",
}
GOLDEN_TX_ID = "a9fec9029cedf965b5453f57284ecb3d78b3001eaf41ff2c589af1d0685aaed1"
GOLDEN_TX_BLOCK_ID = "405edc1f565c3a4eefe597ab9f8ec15113e9fcfbdb5364dfbfd86bb91e004f67"
GOLDEN_PRF_UINT64 = 12909161828772669956


def _golden_tx():
    return Transaction.make(("genesis-coin-0",), ("coin-a",), "alice", 1.25)


def _golden_block(tx, label="blk0"):
    return make_block(GENESIS, label=label, payload=(tx,), creator=3, nonce=7)


#: Modelled wire sizes the hand-written size methods computed; the one
#: field rule must keep every transport's byte counts where they were.
GOLDEN_TX_SIZE = 114
GOLDEN_TX_BLOCK_SIZE = 225
GOLDEN_SIGNED_TX_SIZE = 140
GOLDEN_SIGNED_BLOCK_SIZE = 274
TX_SIGNATURE = Signature("alice", "d" * 16)
BLOCK_SIGNATURE = Signature("p3", "d" * 16)


def _signed_block(label="blk0"):
    tx = dataclasses.replace(_golden_tx(), signature=TX_SIGNATURE)
    return dataclasses.replace(_golden_block(tx, label), signature=BLOCK_SIGNATURE)


class TestGoldenIds:
    def test_paper_figure_block_ids(self):
        ids = {label: block.block_id for label, block in paper_blocks().items()}
        assert ids == GOLDEN_PAPER_BLOCK_IDS

    def test_transaction_and_block_over_it(self):
        tx = _golden_tx()
        assert tx.tx_id == GOLDEN_TX_ID
        assert _golden_block(tx).block_id == GOLDEN_TX_BLOCK_ID

    def test_prf_uint64(self):
        assert prf_uint64("tape", 2024, "p0", 17) == GOLDEN_PRF_UINT64


class TestGoldenWireSizes:
    def test_transaction_and_block_over_it(self):
        tx = _golden_tx()
        assert wire_size(tx) == GOLDEN_TX_SIZE
        assert wire_size(_golden_block(tx)) == GOLDEN_TX_BLOCK_SIZE

    def test_signed_transaction_and_block(self):
        signed = dataclasses.replace(_golden_tx(), signature=TX_SIGNATURE)
        assert wire_size(signed) == GOLDEN_SIGNED_TX_SIZE
        assert wire_size(_signed_block()) == GOLDEN_SIGNED_BLOCK_SIZE

    def test_equivocation_evidence_over_two_signed_blocks(self):
        evidence = EquivocationEvidence(
            "p3", GENESIS.block_id, _signed_block("blk0"), _signed_block("blk1")
        )
        # Framing + "p3" + "genesis" + both blocks.
        assert wire_size(evidence) == 4 + 3 + 8 + 2 * GOLDEN_SIGNED_BLOCK_SIZE == 563


class TestTransactionMemo:
    """The per-transaction encoding and size memos never leave the process."""

    def test_hashed_transaction_equals_a_fresh_copy(self):
        tx, fresh = _golden_tx(), _golden_tx()
        block = make_block(GENESIS, label="m", payload=(tx,))
        assert wire_size(tx) == GOLDEN_TX_SIZE
        assert set(Transaction._MEMO) <= set(vars(tx))  # both memos are live
        same_block = dataclasses.replace(block, payload=(fresh,))
        assert encode_block(block) == encode_block(same_block)
        assert decode_block(encode_block(block)) == block
        assert pickle.dumps(tx) == pickle.dumps(fresh)
        assert vars(pickle.loads(pickle.dumps(tx))) == vars(fresh)
        assert tx == fresh and hash(tx) == hash(fresh)
        assert dataclasses.asdict(tx) == dataclasses.asdict(fresh)
        assert stable_repr(tx) == stable_repr(fresh)

    def test_signed_copy_encodes_like_the_original(self):
        tx = _golden_tx()
        stable_repr(tx)
        signed = dataclasses.replace(tx, signature=TX_SIGNATURE)
        assert "_stable_repr" not in vars(signed)
        assert stable_repr(signed) == stable_repr(tx)
        assert stable_repr(signed) == reference_stable_repr(tx)

    def test_signed_copy_is_sized_afresh(self):
        tx = _golden_tx()
        assert wire_size(tx) == GOLDEN_TX_SIZE
        signed = dataclasses.replace(tx, signature=TX_SIGNATURE)
        assert not set(Transaction._MEMO) & set(vars(signed))
        assert wire_size(signed) == GOLDEN_TX_SIZE - 1 + wire_size(TX_SIGNATURE)
        assert wire_size(tx) == GOLDEN_TX_SIZE


class TestStableRepr:
    def test_primitives_distinct(self):
        values = [None, True, False, 0, 1, -1, 0.0, 1.5, "a", b"a", (), (1,)]
        encodings = [stable_repr(v) for v in values]
        assert len(set(encodings)) == len(values)

    def test_int_vs_str_not_confused(self):
        assert stable_repr(1) != stable_repr("1")

    def test_bool_vs_int_not_confused(self):
        assert stable_repr(True) != stable_repr(1)

    def test_nested_structures(self):
        a = stable_repr((1, (2, 3)))
        b = stable_repr((1, 2, 3))
        assert a != b

    def test_dict_order_independent(self):
        assert stable_repr({"a": 1, "b": 2}) == stable_repr({"b": 2, "a": 1})

    def test_set_order_independent(self):
        assert stable_repr({1, 2, 3}) == stable_repr({3, 2, 1})

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            stable_repr(object())


class TestPrf:
    def test_deterministic(self):
        assert prf_uint64("x", 1) == prf_uint64("x", 1)
        assert prf_unit("x", 1) == prf_unit("x", 1)

    def test_sensitive_to_inputs(self):
        assert prf_uint64("x", 1) != prf_uint64("x", 2)

    def test_unit_range(self):
        for i in range(200):
            u = prf_unit("range", i)
            assert 0.0 <= u < 1.0

    def test_unit_stays_below_one_at_the_top_of_the_range(self, monkeypatch):
        # 2**64 - 1 over 2**64 rounds to 1.0 as a float.
        monkeypatch.setattr(_util, "prf_uint64", lambda *parts: 2**64 - 1)
        u = prf_unit("top")
        assert u < 1.0 and u == math.nextafter(1.0, 0.0)
        # The tape rule ``prf_unit(...) < p`` must read a token at p = 1.
        assert tape_cell(0, "m", 0, 1.0)

    def test_unit_roughly_uniform(self):
        n = 2000
        mean = sum(prf_unit("uniform", i) for i in range(n)) / n
        assert math.isclose(mean, 0.5, abs_tol=0.05)

    def test_sha256_hex_shape(self):
        digest = sha256_hex("a", 1, (2, 3))
        assert len(digest) == 64
        assert all(c in "0123456789abcdef" for c in digest)


class TestSmallHelpers:
    def test_require_passes(self):
        require(True, "never")

    def test_require_raises(self):
        with pytest.raises(ValueError, match="boom"):
            require(False, "boom")

    def test_pairwise_unordered_count(self):
        pairs = list(pairwise_unordered([1, 2, 3, 4]))
        assert len(pairs) == 6
        assert (1, 2) in pairs and (3, 4) in pairs
        assert (2, 1) not in pairs
