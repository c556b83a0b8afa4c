"""Small shared utilities used across the :mod:`repro` package.

Everything in here is deterministic: pseudo-randomness is always derived
from explicit seeds through SHA-256 so that every experiment in the
reproduction is replayable bit-for-bit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import struct
from operator import attrgetter, itemgetter
from typing import Any, Callable, Dict, Iterable, Optional

__all__ = [
    "sha256_hex",
    "prf_uint64",
    "prf_unit",
    "stable_repr",
    "wire_size",
    "require",
    "counter_row",
    "BoundedSet",
]

_UINT64_MAX = 2**64 - 1
#: The largest float below 1.0: the top of :func:`prf_unit`'s range.
_UNIT_MAX = math.nextafter(1.0, 0.0)

_pack_double = struct.Struct(">d").pack
_first = itemgetter(0)


def stable_repr(value: Any) -> bytes:
    """Return a deterministic byte encoding of ``value`` for hashing.

    Supports the small universe of types used by the library: ``None``,
    ``bool``, ``int``, ``float``, ``str``, ``bytes``, (nested) tuples /
    lists / dicts / sets / frozensets of those, and dataclass instances
    (class name + field items).  The encoding is injective on that
    universe (types are tagged), so two different values never collide at
    the encoding level.

    The exact type picks the encoder in one dict lookup; a type seen for
    the first time (a dataclass, or a subclass of a builtin such as an
    ``IntEnum`` or a named tuple) is resolved once and added to that
    dict.  A dataclass may segregate witness fields (signatures, which
    must not perturb content ids) by listing them in
    ``_STABLE_REPR_EXCLUDE``, and an immutable one may keep its encoding
    after the first call by listing ``"_stable_repr"`` in ``_MEMO``, the
    instance attributes the class keeps out of its pickled state.
    """
    encode = _ENCODERS.get(type(value))
    if encode is None:
        encode = _ENCODERS[type(value)] = _resolve_encoder(type(value))
    return encode(value)


def _encode_str(value: str) -> bytes:
    data = value.encode()
    return b"S%d:%s" % (len(data), data)


def _encode_bytes(value: bytes) -> bytes:
    return b"Y%d:%s" % (len(value), value)


def _encode_sequence(value: Any) -> bytes:
    return b"T(" + b"".join([stable_repr(v) for v in value]) + b")"


def _encode_dict(value: dict) -> bytes:
    # Sorted by the key encodings; the sort is stable, like the key order.
    items = sorted([(stable_repr(k), v) for k, v in value.items()], key=_first)
    return b"D(" + b"".join([k + stable_repr(v) for k, v in items]) + b")"


def _encode_set(value: Any) -> bytes:
    return b"Z(" + b"".join(sorted([stable_repr(v) for v in value])) + b")"


_ENCODERS: Dict[type, Callable[[Any], bytes]] = {
    type(None): lambda value: b"N",
    bool: lambda value: b"B1" if value else b"B0",
    int: lambda value: b"I%d" % value,
    float: lambda value: b"F" + _pack_double(value),
    str: _encode_str,
    bytes: _encode_bytes,
    tuple: _encode_sequence,
    list: _encode_sequence,
    dict: _encode_dict,
    set: _encode_set,
    frozenset: _encode_set,
}


def _resolve_encoder(cls: type) -> Callable[[Any], bytes]:
    """The encoder of a type with no entry in ``_ENCODERS`` yet.

    A subclass of a builtin encodes as that builtin (the first one in
    its MRO; dataclass bases are skipped, each dataclass is named by its
    own class), except that int subclasses spell themselves with
    ``str()``, which is how ``IntEnum`` members have always encoded.
    """
    if issubclass(cls, int):  # bool is exact: it cannot be subclassed
        return lambda value: b"I" + str(value).encode()
    for base in cls.__mro__[1:]:
        if base in _ENCODERS and not dataclasses.is_dataclass(base):
            return _ENCODERS[base]
    if dataclasses.is_dataclass(cls):
        return _dataclass_encoder(cls)
    raise TypeError(f"stable_repr does not support {cls!r}")


def _dataclass_encoder(cls: type) -> Callable[[Any], bytes]:
    """The encoder of ``cls`` instances: ``C<name>`` + the encoded tuple
    of ``(field name, value)`` pairs.  The field plan (names minus
    ``_STABLE_REPR_EXCLUDE``, each with its pair prefix pre-encoded) is
    computed here, once per class."""
    exclude = getattr(cls, "_STABLE_REPR_EXCLUDE", ())
    head = b"C" + cls.__name__.encode() + b"T("
    plan = tuple(
        (f.name, b"T(" + _encode_str(f.name))
        for f in dataclasses.fields(cls)
        if f.name not in exclude
    )

    def encode(value: Any) -> bytes:
        pairs = [
            prefix + stable_repr(getattr(value, name)) + b")" for name, prefix in plan
        ]
        return head + b"".join(pairs) + b")"

    return _memoized(cls, "_stable_repr", encode)


def _memoized(cls: type, memo: str, compute: Callable[[Any], Any]) -> Callable:
    """``compute``, keeping its result on each instance under ``memo``
    when ``cls`` lists that attribute in ``_MEMO``."""
    if memo not in getattr(cls, "_MEMO", ()):
        return compute

    def compute_once(value: Any) -> Any:
        state = value.__dict__
        result = state.get(memo)
        if result is None:
            result = state[memo] = compute(value)
        return result

    return compute_once


def wire_size(value: Any) -> int:
    """The modelled wire cost, in bytes, of a message or a field of one.

    One rule: ``None`` and ``bool`` cost 1, ``int`` and ``float`` 8, a
    string its length + 1, a tuple or list 4 bytes of framing plus its
    items, and a dataclass 4 bytes of framing plus each of its fields,
    witness fields included.  A type with its own encoding model (a
    sketch, a sync frontier) answers through ``wire_bytes()``.  Anything
    else costs a flat 16, so sizing a peer-supplied message never raises.
    Strings stay hex ids, which overstates a binary encoding — alike for
    every transport.

    Dispatch is :func:`stable_repr`'s: one dict lookup on the exact
    type, a new type resolved once.  An immutable dataclass listing
    ``"_wire_size"`` in its ``_MEMO`` keeps its size after the first call.
    """
    size = _SIZERS.get(type(value))
    if size is None:
        size = _SIZERS[type(value)] = _resolve_sizer(type(value))
    return size(value)


def _size_sequence(value: Any) -> int:
    return 4 + sum(map(wire_size, value))


_SIZERS: Dict[type, Callable[[Any], int]] = {
    type(None): lambda value: 1,
    bool: lambda value: 1,
    int: lambda value: 8,
    float: lambda value: 8,
    str: lambda value: len(value) + 1,
    tuple: _size_sequence,
    list: _size_sequence,
}


def _resolve_sizer(cls: type) -> Callable[[Any], int]:
    """The sizer of a type with no entry in ``_SIZERS`` yet: its own
    ``wire_bytes``, else the first builtin in its MRO (dataclass bases
    skipped, and ``object``, which junk puts in ``_SIZERS``), else its
    field plan, else the flat 16."""
    wire_bytes = getattr(cls, "wire_bytes", None)
    if callable(wire_bytes):
        return wire_bytes
    for base in cls.__mro__[1:-1]:
        if base in _SIZERS and not dataclasses.is_dataclass(base):
            return _SIZERS[base]
    if dataclasses.is_dataclass(cls):
        return _dataclass_sizer(cls)
    return lambda value: 16


def _dataclass_sizer(cls: type) -> Callable[[Any], int]:
    """The sizer of ``cls`` instances: its fields, framed as a tuple.
    The field getter is planned here, once per class."""
    fields = _fields_getter([f.name for f in dataclasses.fields(cls)])
    return _memoized(cls, "_wire_size", lambda value: _size_sequence(fields(value)))


def _fields_getter(names: list) -> Callable[[Any], tuple]:
    """``attrgetter(*names)``, except that it returns a tuple for one
    name (which ``attrgetter`` returns bare) and for none (it refuses)."""
    if len(names) > 1:
        return attrgetter(*names)
    return lambda value: tuple([getattr(value, name) for name in names])


def sha256_hex(*parts: Any) -> str:
    """SHA-256 of the :func:`stable_repr` of ``parts``, as a hex string."""
    return hashlib.sha256(b"".join([stable_repr(p) for p in parts])).hexdigest()


def prf_uint64(*parts: Any) -> int:
    """A deterministic pseudo-random 64-bit integer derived from ``parts``.

    This is the single source of pseudo-randomness for oracle tapes, VRFs
    and simulated signatures: SHA-256 in counter-less PRF mode.
    """
    digest = hashlib.sha256(b"".join([stable_repr(p) for p in parts])).digest()
    return int.from_bytes(digest[:8], "big")


def prf_unit(*parts: Any) -> float:
    """A deterministic pseudo-random float in ``[0, 1)`` derived from ``parts``.

    The quotient by ``2**64`` rounds up to 1.0 for the top ~2**10 values;
    those are clamped to the largest float below 1.0, so the oracle tape
    rule ``prf_unit(...) < p`` reads a token at ``p = 1.0``.
    """
    return min(prf_uint64(*parts) / (_UINT64_MAX + 1), _UNIT_MAX)


def require(condition: bool, message: str) -> None:
    """Raise :class:`ValueError` with ``message`` unless ``condition`` holds."""
    if not condition:
        raise ValueError(message)


def counter_row(
    counts: Optional[Dict[str, Any]], zero: Dict[str, Any]
) -> Dict[str, Any]:
    """A component's row of a replica's counter table.

    ``counts`` is the row the replica hands every incarnation of the
    component (``None`` for a component built standalone gets a fresh
    one).  Keys of ``zero`` the row lacks start at their zero value;
    keys it has keep counting from where an earlier life left them.
    """
    row = {} if counts is None else counts
    for key, value in zero.items():
        row.setdefault(key, value)
    return row


class BoundedSet:
    """An insertion-ordered string set with FIFO eviction at ``cap``.

    Replicas keep dedup/reject sets for the life of the process; without
    a bound an adversary feeding junk ids grows them forever.  ``cap=0``
    disables the bound (plain set semantics).  Eviction is FIFO — the
    oldest entry leaves first — which is the right shape for
    "recently refused/seen" memories: old entries are the ones whose
    re-arrival is cheapest to re-process.
    """

    __slots__ = ("_cap", "_items")

    def __init__(self, cap: int = 0, items: Iterable[str] = ()) -> None:
        if cap < 0:
            raise ValueError("cap must be >= 0 (0 disables the bound)")
        self._cap = cap
        self._items: dict = {}
        for item in items:
            self.add(item)

    def add(self, item: str) -> None:
        if item in self._items:
            return
        self._items[item] = None
        if self._cap and len(self._items) > self._cap:
            self._items.pop(next(iter(self._items)))

    def discard(self, item: str) -> None:
        self._items.pop(item, None)

    def __contains__(self, item: str) -> bool:
        return item in self._items

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        return iter(self._items)

    @property
    def cap(self) -> int:
        return self._cap


def pairwise_unordered(items: Iterable[Any]):
    """Yield all unordered pairs ``(a, b)`` with ``a`` before ``b`` in ``items``."""
    seq = list(items)
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            yield seq[i], seq[j]
