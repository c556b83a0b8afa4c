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
from operator import itemgetter
from typing import Any, Callable, Dict, Iterable

__all__ = [
    "sha256_hex",
    "prf_uint64",
    "prf_unit",
    "stable_repr",
    "require",
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
    ``_STABLE_REPR_EXCLUDE``, and an immutable one may name an instance
    attribute in ``_STABLE_REPR_MEMO`` under which its encoding is kept
    after the first call (the class keeps that attribute out of its
    pickled state).
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

    memo = getattr(cls, "_STABLE_REPR_MEMO", None)
    if memo is None:
        return encode

    def encode_once(value: Any) -> bytes:
        state = value.__dict__
        data = state.get(memo)
        if data is None:
            data = state[memo] = encode(value)
        return data

    return encode_once


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
