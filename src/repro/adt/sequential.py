"""Sequential specification membership (Definition 2.3).

A finite word ``σ = σ0 σ1 …`` over ``Σ`` is a *sequential history* of an
ADT ``T`` when there is a state sequence ``ξ0 ξ1 …`` with
``τ(ξi, σi) = ξ(i+1)`` and each operation's output compatible with the
pre-state: ``δ(ξi, αi) = βi`` whenever ``σi = αi/βi``.

Because the ADTs in this library are deterministic transducers, membership
of a finite word is decided by a single forward run; the checker reports
the first position at which the claimed output disagrees with δ.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.adt.base import ADT, Operation


@dataclass(frozen=True)
class SequentialCheckResult:
    """Outcome of a sequential-specification membership check.

    ``ok`` is ``True`` iff the word belongs to ``L(T)``.  On failure,
    ``failure_index`` is the offending position, and ``reason`` explains
    whether the symbol was rejected or the output mismatched (with the
    expected δ-value in ``expected_output``).
    """

    ok: bool
    failure_index: int | None = None
    reason: str = ""
    expected_output: Any = None

    def __bool__(self) -> bool:
        return self.ok


def is_sequential_history(adt: ADT, word: Sequence[Operation]) -> SequentialCheckResult:
    """Decide whether ``word`` is a sequential history of ``adt``.

    Bare input symbols (``Operation.has_output == False``) only constrain
    the state evolution; operations carrying an output must match δ on the
    pre-state exactly.
    """
    state = adt.initial_state()
    for index, op in enumerate(word):
        if not isinstance(op, Operation):
            raise TypeError(f"word element {index} is not an Operation: {op!r}")
        if not adt.accepts_symbol(op.symbol):
            return SequentialCheckResult(
                ok=False, failure_index=index, reason=f"symbol {op.symbol!r} not in alphabet"
            )
        next_state, expected = adt.apply(state, op.symbol)
        if op.has_output and expected != op.output:
            return SequentialCheckResult(
                ok=False,
                failure_index=index,
                reason=(
                    f"output mismatch at {index}: δ gives {expected!r}, "
                    f"operation claims {op.output!r}"
                ),
                expected_output=expected,
            )
        state = next_state
    return SequentialCheckResult(ok=True)


def generate_sequential_history(adt: ADT, symbols: Iterable[Any]) -> list[Operation]:
    """Run ``symbols`` through ``adt`` and return the resulting ``α/β`` word.

    The result is by construction a member of ``L(T)`` — useful both for
    tests and for producing the transition-system walks of the paper's
    Figures 1, 6 and 7.
    """
    state = adt.initial_state()
    word: list[Operation] = []
    for symbol in symbols:
        state, out = adt.apply(state, symbol)
        word.append(Operation(symbol=symbol, output=out))
    return word


@dataclass
class TransitionTrace:
    """A recorded walk through an ADT's transition system.

    Mirrors the paper's figures that draw paths ``ξ0 →(op/out)→ ξ1 → …``.
    ``states`` has one more element than ``operations``.
    """

    states: list[Any] = field(default_factory=list)
    operations: list[Operation] = field(default_factory=list)

    @staticmethod
    def record(adt: ADT, symbols: Iterable[Any]) -> "TransitionTrace":
        """Execute ``symbols`` and capture every intermediate state."""
        trace = TransitionTrace()
        state = adt.initial_state()
        trace.states.append(state)
        for symbol in symbols:
            state, out = adt.apply(state, symbol)
            trace.operations.append(Operation(symbol=symbol, output=out))
            trace.states.append(state)
        return trace

    def describe(self) -> str:
        """Render the walk as ``ξ0 --op/out--> ξ1 ...`` (one edge per line)."""
        lines = []
        for i, op in enumerate(self.operations):
            lines.append(f"ξ{i} --{op}--> ξ{i + 1}")
        return "\n".join(lines)
