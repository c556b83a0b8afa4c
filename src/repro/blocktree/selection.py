"""Selection functions ``f ∈ F : BT → BC`` (paper Section 3.1).

``f(bt)`` picks one blockchain out of the BlockTree — "the longest chain
or the heaviest chain used in some blockchain implementations".  The
paper's figures break score ties lexicographically ("in case of equality,
selects the largest based on the lexicographical order"), and so do all
three rules here — the tree maintains each argmax incrementally under
that tie-break (:func:`lexicographic_max` states it; the rescan oracles
in :mod:`repro.blocktree.reference` apply it literally).

Implementations:

* :class:`LongestChain` — maximum height (Bitcoin's original rule with
  unit weights; the paper's figures).
* :class:`HeaviestChain` — maximum accumulated work (Bitcoin/Ethereum's
  "most work" rule, §5.1/§5.2).
* :class:`GHOSTSelection` — greedy heaviest-observed-subtree (Ethereum's
  fork-choice per §5.2, citing Sompolinsky & Zohar).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.blocktree.block import Block
from repro.blocktree.chain import Chain
from repro.blocktree.tree import BlockTree

__all__ = [
    "SelectionFunction",
    "LongestChain",
    "HeaviestChain",
    "GHOSTSelection",
    "lexicographic_max",
]


def lexicographic_max(candidates: list[Block]) -> Block:
    """The paper's tie-break: the largest label/id in lexicographic order."""
    return max(candidates, key=lambda b: (b.label or b.block_id))


class SelectionFunction:
    """Interface for ``f ∈ F``.

    ``select`` returns the full chain including genesis (``read()`` in the
    BT-ADT is exactly ``select``; the paper writes it ``{b0} ⌢ f(bt)``).
    Determinism is required: the same tree must always select the same
    chain — all tie-breaks are value-based, never identity- or time-based.
    """

    name: str = "f"

    def select(self, tree: BlockTree) -> Chain:
        """Pick ``{b0} ⌢ f(bt)`` out of ``tree`` (an O(1) chain view)."""
        raise NotImplementedError

    def __call__(self, tree: BlockTree) -> Chain:
        """Alias for :meth:`select` (``f`` is a function in the paper)."""
        return self.select(tree)


@dataclass
class LongestChain(SelectionFunction):
    """Select the leaf of maximum height, tie-broken lexicographically."""

    name: str = "longest"

    def select(self, tree: BlockTree) -> Chain:
        """The max-height leaf's chain — O(1) amortized on the heap index."""
        return tree.chain_to(tree.best_leaf_by_height().block_id)


@dataclass
class HeaviestChain(SelectionFunction):
    """Select the leaf of maximum cumulative chain weight (total work)."""

    name: str = "heaviest"

    def select(self, tree: BlockTree) -> Chain:
        """The max-chain-weight leaf's chain — O(1) amortized on the heap."""
        return tree.chain_to(tree.best_leaf_by_weight().block_id)


@dataclass
class GHOSTSelection(SelectionFunction):
    """Greedy Heaviest-Observed SubTree walk from the root.

    At every block, descend into the child whose *subtree* weight is
    largest (ties broken lexicographically) until a leaf is reached.  This
    differs from :class:`HeaviestChain` exactly when forks are bushy —
    uncles pull selection toward their branch, which is the behaviour the
    Ethereum mapping in §5.2 relies on.
    """

    name: str = "ghost"

    def select(self, tree: BlockTree) -> Chain:
        """Descend best-child pointers root→leaf — O(Δ) amortized."""
        return tree.chain_to(tree.ghost_leaf().block_id)
