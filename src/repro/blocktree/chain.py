"""Blockchain value type: a genesis→leaf path through the BlockTree.

The paper denotes a blockchain ``bc`` and writes ``{b0} ⌢ f(bt)`` for the
chain returned by ``read()``.  Our :class:`Chain` always includes the
genesis block at position 0, which keeps prefix reasoning uniform (the
paper's convention that ``f`` does not return ``b0`` is a presentation
detail; ``read`` re-attaches it).

Chains are immutable and hashable, and support the prefix relation ``⊑``
and maximal-common-prefix extraction used by the consistency criteria.

Tree-backed views
-----------------

A chain is *one value* but admits two representations:

* an explicit tuple of blocks (the original form, still produced by
  :meth:`Chain.of` and friends), and
* a **view**: a ``(tree, tip_id, height)`` triple produced by
  :meth:`BlockTree.chain_to`.  A path from a block to the root never
  changes once the block is inserted, so a view denotes the same chain
  forever even while its tree keeps growing — and creating one is O(1)
  instead of the O(depth) tuple copy ``read()`` used to pay.

Views materialize their block tuple lazily (and only once) when a
consumer actually iterates the blocks.  The prefix algebra never needs
to: ``⊑`` and ``comparable`` are O(log n) ancestor tests against the
tree's binary-lifting index, and ``common_prefix`` is an O(log n) LCA.
Materialized (tuple) chains get O(1)/O(log n) algebra too: a single
positional id probe replaces the old block-by-block zip, and the
divergence point is binary-searchable.

**Precondition — collision-free block ids.**  The fast algebra decides
everything through block *ids*: a chain's id at position ``k``
determines (chain link invariant + content-addressed ids) every id
below ``k``.  This assumes two *distinct* blocks never share an id —
exactly the assumption the rest of the system already rests on:
``make_block`` derives ids by SHA-256 over (parent, label, payload,
creator, nonce), and ``BlockTree`` keys every index by id (a second
distinct block under an existing id is silently dropped by
``add_block``).  Hand-crafting an id collision — i.e. modelling a
SHA-256 collision — makes the probe disagree with the retained
block-by-block oracle in ``blocktree/reference.py``, which is the
differential-test oracle under the same collision-free universe.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Tuple

from repro.blocktree.block import GENESIS, Block

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (tree imports chain)
    from repro.blocktree.tree import BlockTree

__all__ = ["Chain"]


class Chain:
    """An immutable sequence of blocks from genesis to a leaf.

    Invariants (checked at construction for tuple chains, structural for
    tree views): the first block is genesis and each subsequent block's
    ``parent_id`` equals its predecessor's id.
    """

    __slots__ = ("_tree", "_tip_id", "_height", "_blocks")

    def __init__(self, blocks: Iterable[Block] = ()) -> None:
        blocks = tuple(blocks)
        if not blocks:
            raise ValueError("a chain contains at least the genesis block")
        if not blocks[0].is_genesis:
            raise ValueError("chains start at the genesis block")
        for prev, cur in zip(blocks, blocks[1:]):
            if cur.parent_id != prev.block_id:
                raise ValueError(
                    f"broken chain link: {cur.short()} does not extend {prev.short()}"
                )
        self._blocks: Optional[Tuple[Block, ...]] = blocks
        self._tree: Optional["BlockTree"] = None
        self._tip_id: str = blocks[-1].block_id
        self._height: int = len(blocks) - 1

    # -- constructors ---------------------------------------------------

    @staticmethod
    def _unchecked(blocks: Tuple[Block, ...]) -> "Chain":
        """Construct without re-validating links.

        Reserved for callers that already hold a proven genesis→leaf
        path (tree materialization, prefix slices of validated chains):
        skipping the O(n) link walk keeps materialized reads O(Δ).
        """
        chain = object.__new__(Chain)
        chain._blocks = blocks
        chain._tree = None
        chain._tip_id = blocks[-1].block_id
        chain._height = len(blocks) - 1
        return chain

    @staticmethod
    def view(tree: "BlockTree", tip_id: str) -> "Chain":
        """O(1) chain denoting the tree's genesis→``tip_id`` path.

        Raises ``KeyError`` if ``tip_id`` is not in ``tree``.  The view
        stays valid forever: trees only grow and parent links are
        immutable, so the denoted path never changes.
        """
        chain = object.__new__(Chain)
        chain._blocks = None
        chain._tree = tree
        chain._tip_id = tip_id
        chain._height = tree.height(tip_id)
        return chain

    @staticmethod
    def genesis() -> "Chain":
        """The trivial chain ``{b0}``."""
        return Chain((GENESIS,))

    @staticmethod
    def of(blocks: Iterable[Block]) -> "Chain":
        """Build a chain from an iterable of blocks (genesis first)."""
        return Chain(tuple(blocks))

    def extend(self, block: Block) -> "Chain":
        """Return this chain with ``block`` appended at the tip."""
        if block.parent_id != self._tip_id:
            raise ValueError(
                f"broken chain link: {block.short()} does not extend {self.tip.short()}"
            )
        return Chain._unchecked(self.blocks + (block,))

    # -- accessors ------------------------------------------------------

    @property
    def blocks(self) -> Tuple[Block, ...]:
        """The materialized block tuple (computed lazily for views)."""
        if self._blocks is None:
            self._blocks = self._tree.path_blocks(self._tip_id)
        return self._blocks

    @property
    def tip(self) -> Block:
        """The leaf (most recently appended block) of the chain."""
        if self._blocks is not None:
            return self._blocks[-1]
        return self._tree.get(self._tip_id)

    @property
    def tip_id(self) -> str:
        """The block id of the tip (O(1), never materializes)."""
        return self._tip_id

    @property
    def height(self) -> int:
        """Distance of the tip from genesis (genesis alone has height 0)."""
        return self._height

    def __len__(self) -> int:
        """Number of blocks including genesis — O(1), never materializes."""
        return self._height + 1

    def __iter__(self) -> Iterator[Block]:
        """Iterate genesis→tip (materializes a view's block tuple)."""
        return iter(self.blocks)

    def __getitem__(self, index):
        """Positional access; integer probes on views are O(log n)."""
        if self._blocks is None and isinstance(index, int):
            # Views answer integer indexing with an O(log n) ancestor
            # query instead of materializing the whole path.
            depth = index + self._height + 1 if index < 0 else index
            if not 0 <= depth <= self._height:
                raise IndexError("chain index out of range")
            tree = self._tree
            return tree.get(tree.ancestor_at_depth(self._tip_id, depth))
        return self.blocks[index]

    def block_ids(self) -> Tuple[str, ...]:
        """The tuple of block ids along the chain."""
        return tuple(b.block_id for b in self.blocks)

    def non_genesis(self) -> Tuple[Block, ...]:
        """The chain without the genesis block (the paper's ``f(bt)``)."""
        return self.blocks[1:]

    def iter_tipward(self) -> Iterator[Block]:
        """Iterate blocks from the tip toward genesis, lazily.

        Consumers that stop early (e.g. the UTXO view's catch-up walk)
        pay only for the suffix they actually visit — a view walks parent
        pointers without ever materializing the full tuple.
        """
        if self._blocks is not None:
            yield from reversed(self._blocks)
            return
        tree = self._tree
        cursor: Optional[str] = self._tip_id
        while cursor is not None:
            block = tree.get(cursor)
            yield block
            cursor = block.parent_id

    # -- value semantics --------------------------------------------------

    def __eq__(self, other: object) -> bool:
        """Value equality (same-tree views compare tips in O(1))."""
        if self is other:
            return True
        if not isinstance(other, Chain):
            return NotImplemented
        if self._height != other._height:
            return False
        if self._tree is not None and self._tree is other._tree:
            return self._tip_id == other._tip_id
        return self.blocks == other.blocks

    def __hash__(self) -> int:
        # Equal chains share height and tip block; hashing those two is
        # O(1) for views (the old dataclass hashed the whole tuple).
        return hash((self._height, self.tip))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Chain(height={self._height}, tip={self._tip_id[:12]})"

    def same_ids(self, other: "Chain") -> bool:
        """Whether both chains traverse the same block ids (O(1)).

        Under collision-free ids (module docstring), two chains agreeing
        on height and tip id agree on every block id — equivalent to
        comparing ``block_ids()`` without materializing either chain.
        """
        return self._height == other._height and self._tip_id == other._tip_id

    # -- prefix algebra ---------------------------------------------------

    def is_prefix_of(self, other: "Chain") -> bool:
        """The relation ``self ⊑ other``: ``self`` prefixes ``other``.

        O(log n) via the ancestry index when a tree holding both paths is
        at hand, O(1) positional probe otherwise (both require the
        collision-free-id precondition of the module docstring; the
        retained oracle is ``reference.tuple_is_prefix_of``).
        """
        h = self._height
        if h > other._height:
            return False
        tree = other._tree
        if tree is not None and (self._tree is tree or self._tip_id in tree):
            return tree.ancestor_at_depth(other._tip_id, h) == self._tip_id
        tree = self._tree
        if tree is not None and other._tip_id in tree:
            return tree.ancestor_at_depth(other._tip_id, h) == self._tip_id
        return other.blocks[h].block_id == self._tip_id

    def comparable(self, other: "Chain") -> bool:
        """Whether one of the two chains prefixes the other (Strong Prefix)."""
        if self._height <= other._height:
            return self.is_prefix_of(other)
        return other.is_prefix_of(self)

    def common_prefix(self, other: "Chain") -> "Chain":
        """The maximal common prefix of the two chains (≥ genesis).

        An O(log n) LCA on the ancestry index when a shared tree is at
        hand; otherwise a binary search for the divergence point
        (positional id agreement is monotone under the collision-free-id
        precondition of the module docstring).
        """
        tree = self._tree
        if tree is not None and (tree is other._tree or other._tip_id in tree):
            return Chain.view(tree, tree.lca(self._tip_id, other._tip_id))
        tree = other._tree
        if tree is not None and self._tip_id in tree:
            return Chain.view(tree, tree.lca(self._tip_id, other._tip_id))
        a, b = self.blocks, other.blocks
        n = min(len(a), len(b))
        if a[0].block_id != b[0].block_id:
            return Chain(())  # no shared genesis: reject like the old walk
        lo, hi = 0, n - 1  # invariant: ids agree at lo, diverge above hi
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if a[mid].block_id == b[mid].block_id:
                lo = mid
            else:
                hi = mid - 1
        return Chain._unchecked(a[: lo + 1])

    def describe(self) -> str:
        """Render the chain like the paper: ``b0 ⌢ 1 ⌢ 3 ⌢ 5``."""
        return " ⌢ ".join(b.short() for b in self.blocks)
