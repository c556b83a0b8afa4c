"""Generic abstract-data-type transducer (Definition 2.1).

The paper models an ADT as a transition system over abstract states with
an input alphabet ``A`` (operation symbols — note that arguments are folded
into symbols, so ``append(b1)`` and ``append(b2)`` are *different* symbols)
and an output alphabet ``B``.  An *operation* (Definition 2.2) is an element
of ``Σ = A ∪ (A × B)``: either a bare input symbol or an input/output pair
``α/β``.

Concrete ADTs subclass :class:`ADT` and implement ``initial_state``,
``transition`` (τ) and ``output`` (δ).  States must be *values*: the
framework never mutates a state in place, and sequential-specification
checking relies on ``transition`` being a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generic, Iterable, Tuple, TypeVar

S = TypeVar("S")


@dataclass(frozen=True)
class Operation:
    """An element of ``Σ = A ∪ (A × B)`` (Definition 2.2).

    ``symbol`` is the input symbol ``α ∈ A`` and ``output`` is the response
    ``β ∈ B`` when the operation is an ``α/β`` pair.  ``has_output`` is
    ``False`` for a bare input symbol (used when building candidate words
    whose outputs are to be computed).
    """

    symbol: Any
    output: Any = None
    has_output: bool = True

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        if self.has_output:
            return f"{self.symbol}/{self.output}"
        return str(self.symbol)


class ADT(Generic[S]):
    """Base class for transducer ADTs ``⟨A, B, Z, ξ0, τ, δ⟩``.

    Subclasses implement the three abstract hooks.  ``transition`` and
    ``output`` must be pure functions of ``(state, symbol)``; the framework
    composes them into :meth:`apply` which mirrors the paper's convention
    that τ is extended over operations by ignoring the output component
    (Definition 2.2).
    """

    def initial_state(self) -> S:
        """Return the initial abstract state ``ξ0``."""
        raise NotImplementedError

    def transition(self, state: S, symbol: Any) -> S:
        """The transition function ``τ : Z × A → Z``."""
        raise NotImplementedError

    def output(self, state: S, symbol: Any) -> Any:
        """The output function ``δ : Z × A → B``.

        Called on the *pre*-state, matching Definition 2.3's compatibility
        requirement ``ξi ∈ δ⁻¹(σi)``.
        """
        raise NotImplementedError

    def accepts_symbol(self, symbol: Any) -> bool:
        """Whether ``symbol`` belongs to the input alphabet ``A``.

        Alphabets are typically infinite (one symbol per block), so
        membership is a predicate rather than a set.  The default accepts
        everything; concrete ADTs override to reject malformed symbols.
        """
        return True

    def apply(self, state: S, symbol: Any) -> Tuple[S, Any]:
        """Apply one input symbol: returns ``(τ(state, symbol), δ(state, symbol))``."""
        if not self.accepts_symbol(symbol):
            raise ValueError(f"symbol {symbol!r} is not in the input alphabet")
        out = self.output(state, symbol)
        nxt = self.transition(state, symbol)
        return nxt, out

    def freeze(self, state: S) -> Any:
        """Return a hashable token identifying ``state`` (for spec checking).

        Defaults to the state itself; ADTs with unhashable states override.
        """
        return state


def apply_sequence(adt: ADT[S], symbols: Iterable[Any], state: S | None = None):
    """Run ``symbols`` through ``adt`` from ``state`` (default ``ξ0``).

    Returns ``(final_state, outputs)`` where ``outputs`` is the list of
    δ-values produced, in order.
    """
    current = adt.initial_state() if state is None else state
    outputs = []
    for symbol in symbols:
        current, out = adt.apply(current, symbol)
        outputs.append(out)
    return current, outputs
