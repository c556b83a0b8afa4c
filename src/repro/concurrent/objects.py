"""Linearizable shared objects with value-semantics state.

Every object executes one operation per scheduler step, atomically — the
standard atomic-object model in which Herlihy's hierarchy is stated.  For
exhaustive model checking the objects expose ``snapshot``/``restore`` with
*hashable* state values.

Objects:

* :class:`AtomicRegister` — read/write register (consensus number 1).
* :class:`CASRegister` — Compare&Swap as in the paper's Figure 9 (left):
  ``cas(old, new)`` stores ``new`` iff the current value equals ``old``
  and in any case returns the previous value.
* :class:`AtomicSnapshotObject` — update/scan (consensus number 1,
  Aspnes–Herlihy); the substrate of Figure 12.
* :class:`ConsumeTokenObject` — the ``consumeToken`` object of Figure 9
  (right) with per-holder capacity ``k``, over plain values that carry no
  token.

The whole Θ oracle that Protocol A shares is
:class:`repro.oracle.theta.ThetaOracle`, which implements
:class:`SharedObject` with its :class:`~repro.oracle.theta.ThetaState` as
the snapshot.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Tuple

__all__ = [
    "SharedObject",
    "AtomicRegister",
    "CASRegister",
    "AtomicSnapshotObject",
    "ConsumeTokenObject",
]


class SharedObject:
    """Base class: an atomic object with snapshotable state."""

    def apply(self, op: str, args: Tuple[Any, ...]) -> Any:
        """Execute operation ``op`` atomically and return its response."""
        raise NotImplementedError

    def snapshot(self) -> Any:
        """A hashable value capturing the full object state."""
        raise NotImplementedError

    def restore(self, state: Any) -> None:
        """Reset the object to a previously snapshotted state."""
        raise NotImplementedError


class AtomicRegister(SharedObject):
    """A single atomic read/write register."""

    def __init__(self, initial: Any = None) -> None:
        self.value = initial

    def apply(self, op: str, args: Tuple[Any, ...]) -> Any:
        if op == "read":
            return self.value
        if op == "write":
            self.value = args[0]
            return None
        raise ValueError(f"AtomicRegister has no op {op!r}")

    def snapshot(self) -> Any:
        return ("reg", self.value)

    def restore(self, state: Any) -> None:
        self.value = state[1]


class CASRegister(SharedObject):
    """Compare&Swap register (Figure 9, left).

    ``cas(old, new)``: if the current value equals ``old``, store ``new``;
    in any case return the *previous* value.  Has consensus number ∞.
    """

    def __init__(self, initial: Any = None) -> None:
        self.value = initial

    def apply(self, op: str, args: Tuple[Any, ...]) -> Any:
        if op == "read":
            return self.value
        if op == "cas":
            old, new = args
            previous = self.value
            if previous == old:
                self.value = new
            return previous
        raise ValueError(f"CASRegister has no op {op!r}")

    def snapshot(self) -> Any:
        return ("cas", self.value)

    def restore(self, state: Any) -> None:
        self.value = state[1]


class AtomicSnapshotObject(SharedObject):
    """An n-segment atomic snapshot: ``update(i, v)`` / ``scan()``.

    Each operation is one atomic step, which is the linearizable
    specification the wait-free constructions implement; its consensus
    number is 1.
    """

    def __init__(self, n: int) -> None:
        self.segments: list = [None] * n

    def apply(self, op: str, args: Tuple[Any, ...]) -> Any:
        if op == "update":
            index, value = args
            self.segments[index] = value
            return None
        if op == "scan":
            return tuple(self.segments)
        raise ValueError(f"AtomicSnapshotObject has no op {op!r}")

    def snapshot(self) -> Any:
        return ("snap", tuple(self.segments))

    def restore(self, state: Any) -> None:
        self.segments = list(state[1])


class ConsumeTokenObject(SharedObject):
    """The ``consumeToken`` shared object of Figure 9 (right).

    ``consume(holder, value)``: if ``|K[holder]| < k``, insert ``value``;
    in any case return the content of ``K[holder]`` after the operation,
    as a tuple in insertion order.  ``get(holder)`` reads without side
    effect.  With ``k = 1`` this is exactly the paper's CT object whose
    consensus number is shown to be ∞.
    """

    def __init__(self, k: float = 1) -> None:
        if not (k == math.inf or (isinstance(k, int) and k >= 1)):
            raise ValueError("k must be a positive integer or math.inf")
        self.k = k
        self.buckets: Dict[Any, tuple] = {}

    def apply(self, op: str, args: Tuple[Any, ...]) -> Any:
        if op == "consume":
            holder, value = args
            bucket = self.buckets.get(holder, ())
            if len(bucket) < self.k and value not in bucket:
                bucket = bucket + (value,)
                self.buckets[holder] = bucket
            return bucket
        if op == "get":
            return self.buckets.get(args[0], ())
        raise ValueError(f"ConsumeTokenObject has no op {op!r}")

    def snapshot(self) -> Any:
        return ("ct", self.k, tuple(sorted(self.buckets.items(), key=lambda kv: str(kv[0]))))

    def restore(self, state: Any) -> None:
        self.k = state[1]
        self.buckets = dict(state[2])
