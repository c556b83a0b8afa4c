"""The BlockTree ADT of Definition 3.1.

``BT-ADT = ⟨A = {append(b), read()}, B = BC ∪ {true, false},
Z = BT × F × (B → bool), ξ0 = (bt0, f, P), τ, δ⟩`` with:

* ``τ((bt,f,P), append(b)) = ({b0} ⌢ f(bt) ⌢ {b}, f, P)`` if ``b ∈ B′``,
  unchanged otherwise — the new block is attached *at the tip of the
  currently selected chain* (all other branches of the tree persist; the
  BlockTree "allows at any time to create a new branch").
* ``τ((bt,f,P), read()) = (bt,f,P)``.
* ``δ((bt,f,P), append(b)) = true`` iff ``b ∈ B′``.
* ``δ((bt,f,P), read()) = {b0} ⌢ f(bt)`` (just ``b0`` on the initial tree).

Because the formal append determines the attachment point itself, the
block given to ``append`` is a *descriptor*: its ``parent_id`` is ignored
and a concrete block chained to the selected tip is derived from it (same
label/payload/creator, content-derived id).  Protocol replicas in
Section 4 attach blocks under explicit parents instead — that path goes
through :class:`repro.blocktree.tree.BlockTree` directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Tuple

from repro.adt.base import ADT
from repro.blocktree.block import Block, ValidityPredicate, attach_descriptor
from repro.blocktree.selection import SelectionFunction
from repro.blocktree.tree import BlockTree

__all__ = ["Append", "Read", "BTState", "BTADT"]


@dataclass(frozen=True)
class Append:
    """Input symbol ``append(b)``.  One symbol per block (Definition 2.1)."""

    block: Block

    def __str__(self) -> str:
        return f"append({self.block.short()})"


@dataclass(frozen=True)
class Read:
    """Input symbol ``read()``."""

    def __str__(self) -> str:
        return "read()"


@dataclass
class BTState:
    """The abstract state ``(bt, f, P)``.

    ``f`` and ``P`` are parameters "encoded in the state and do not change
    over the computation" — transitions replace only the tree.
    """

    tree: BlockTree
    selection: SelectionFunction
    validity: ValidityPredicate

    def freeze(self) -> Tuple[Any, ...]:
        """Hashable token: frozen tree edges plus parameter names."""
        return (self.tree.freeze(), self.selection.name, type(self.validity).__name__)


class BTADT(ADT[BTState]):
    """The BlockTree abstract data type (Definition 3.1)."""

    def __init__(self, selection: SelectionFunction, validity: ValidityPredicate) -> None:
        self._selection = selection
        self._validity = validity

    def initial_state(self) -> BTState:
        """``ξ0 = (bt0, f, P)``: a genesis-only tree with the parameters."""
        return BTState(tree=BlockTree(), selection=self._selection, validity=self._validity)

    def accepts_symbol(self, symbol: Any) -> bool:
        """Whether ``symbol`` is in the input alphabet ``A``."""
        return isinstance(symbol, (Append, Read))

    def transition(self, state: BTState, symbol: Any) -> BTState:
        """The transition function ``τ`` (module docstring equations).

        Reads leave the state untouched; a valid append attaches the
        block descriptor at the tip of the currently selected chain on
        an independent tree copy (states are values, not aliases).
        """
        if isinstance(symbol, Read):
            return state
        if isinstance(symbol, Append):
            block = symbol.block
            if not state.validity.is_valid(block) or block.is_genesis:
                return state
            new_tree = state.tree.copy()
            tip = state.selection.select(new_tree).tip
            attached = attach_descriptor(block, tip)
            new_tree.add_block(attached)
            return BTState(tree=new_tree, selection=state.selection, validity=state.validity)
        raise ValueError(f"unknown symbol {symbol!r}")

    def output(self, state: BTState, symbol: Any) -> Any:
        """The output function ``δ``: the selected chain, or append success."""
        if isinstance(symbol, Read):
            return state.selection.select(state.tree)
        if isinstance(symbol, Append):
            block = symbol.block
            return bool(state.validity.is_valid(block) and not block.is_genesis)
        raise ValueError(f"unknown symbol {symbol!r}")

    def freeze(self, state: BTState) -> Any:
        """Hashable state token for sequential-specification checking."""
        return state.freeze()
