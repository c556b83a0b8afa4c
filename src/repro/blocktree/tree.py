"""The BlockTree: a directed rooted tree of blocks (paper Section 3.1).

``BlockTree`` is the mutable replica type used both by the BT-ADT state
and by every protocol node in the network simulator.  It maintains, per
block: parent/children maps, the height (distance to the root), the
cumulative chain weight (for heaviest-chain selection) and the *subtree*
weight (for GHOST).

Incremental fork-choice design note
-----------------------------------

``read()`` of the BT-ADT is exactly the selection function ``f(bt)``, so
it is the hottest path of every protocol node and every bench.  The tree
therefore maintains *per-selection-rule indices* so that repeated reads
on a growing tree cost near O(Δ) instead of a full rescan:

* **Best-leaf heaps** (longest / heaviest rules).  Every inserted block
  is pushed onto two lazy max-heaps keyed by ``(height, tie-key)`` and
  ``(chain weight, tie-key)`` where the tie-key is the paper's
  lexicographic label order.  Entries are never updated in place; a heap
  top is *stale* exactly when its block is no longer a leaf (a block's
  height and chain weight are immutable), so a query pops stale tops and
  returns the first live one — amortized O(log n) over the tree's life,
  O(1) per query in steady state.

* **Best-child pointers** (GHOST).  Subtree weights change for every
  ancestor of an appended block, which would make eager maintenance
  O(depth) per append (quadratic on a growing chain).  Appends instead
  cost O(1): the new block's id is queued on a *weight backlog* and
  flushed lazily when a subtree weight is actually observed.  The flush
  is adaptive: a small backlog propagates each entry up its ancestor
  path, challenge-updating ``best_child`` on the way (only the on-path
  child's weight grew, so a local comparison suffices); a large backlog
  triggers a single O(n) reverse-insertion-order sweep that rebuilds all
  subtree weights and best-child pointers.  The GHOST winner leaf is
  cached and only re-walked when some best-child pointer actually
  changed; the common "new block extends the current winner" case
  updates it in O(1).

* **Chain views.**  ``chain_to`` returns an O(1) tree-backed
  :class:`~repro.blocktree.chain.Chain` *view* (tree handle + tip id +
  height) instead of copying O(depth) block tuples.  Paths to the root
  never change once a block is inserted, so a view denotes the same
  chain forever.  When a consumer does iterate the blocks, the view
  materializes through :meth:`BlockTree.path_blocks`, which keeps a
  small LRU of materialized paths and walks only the Δ suffix to the
  nearest cached ancestor.

Ancestry index (binary lifting)
-------------------------------

The consistency criteria are defined entirely in terms of the prefix
relation ``⊑`` and maximal common prefixes, so ancestry queries dominate
consistency checking.  Every inserted block therefore
records *jump pointers*: ``_anc[b][k]`` is the ``2^k``-th ancestor of
``b``, built in O(log n) per append from the parent's row.  On top of
the jump table:

* :meth:`ancestor_at_depth` — the ancestor of a block at a given depth,
  O(log n);
* :meth:`lca` — the lowest common ancestor of two blocks (the tip of the
  paper's maximal common prefix), O(log n);
* :meth:`is_ancestor` — ``a`` on the root path of ``b``, O(log n), which
  is exactly the prefix relation ``chain(a) ⊑ chain(b)``.

The pre-index tuple-walking algebra is retained verbatim in
:mod:`repro.blocktree.reference` as the differential-test oracle.

The indices reproduce the selection semantics of the full-rescan
implementations *byte-for-byte* (see :mod:`repro.blocktree.reference`
and the differential tests): ties break on the lexicographic tie-key and
then on insertion order exactly as the original leaf scans did.

Storage split
-------------

Block *objects* are written through a pluggable
:class:`~repro.storage.base.BlockStore` (:mod:`repro.storage`) while the
fork-choice and ancestry **indices** above stay in RAM.  The tree keeps
every block it was ever given resident, as the BT-ADT's replica keeps
its whole ``bt_i``: with the default ``InMemoryStore`` the resident dict
*is* the store's dict, so the all-in-RAM configuration costs nothing
extra; with the durable log store every block is also appended to the
log, and a crashed replica rebuilds its tree via :meth:`BlockTree.replay`
from the store's append-ordered scan.

A frozen snapshot (:meth:`BlockTree.freeze`) provides a hashable value
for sequential-specification checking of the BT-ADT.
"""

from __future__ import annotations

import heapq
import sys
from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Set, Tuple

from repro.blocktree.block import GENESIS, Block
from repro.blocktree.chain import Chain

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.storage.base import BlockStore

__all__ = ["BlockTree"]


class _RevKey:
    """Wrap a string so heapq's min-order becomes lexicographic max-order."""

    __slots__ = ("value",)

    def __init__(self, value: str) -> None:
        self.value = value

    def __lt__(self, other: "_RevKey") -> bool:
        return self.value > other.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _RevKey) and self.value == other.value


def _tie_key(block: Block) -> str:
    """The paper's tie-break key: label when present, else the id."""
    return block.label or block.block_id


class BlockTree:
    """A rooted tree of blocks with incremental fork-choice indices.

    The tree always contains the genesis block.  ``add_block`` refuses
    blocks whose parent is absent (protocol nodes buffer such *orphans*
    themselves — see :mod:`repro.protocols.base`) and is idempotent for
    blocks already present.

    ``store`` selects the persistence backend (default: a fresh
    :class:`~repro.storage.memory.InMemoryStore`, giving the classic
    all-in-RAM behaviour).  Pass a *populated* store only through
    :meth:`replay`, which rebuilds the indices from it.
    """

    _CHAIN_CACHE_LIMIT = 16

    def __init__(
        self, genesis: Block = GENESIS, store: Optional["BlockStore"] = None
    ) -> None:
        if not genesis.is_genesis:
            raise ValueError("BlockTree root must be a genesis block")
        from repro.storage.memory import InMemoryStore

        self.genesis = genesis
        gid = sys.intern(genesis.block_id)
        self._store: "BlockStore" = store if store is not None else InMemoryStore()
        # With the in-memory backend the resident dict *is* the store's
        # dict — zero duplication, byte-identical memory profile to the
        # pre-storage layout.
        self._shared_nodes = isinstance(self._store, InMemoryStore)
        if self._shared_nodes:
            self._nodes: Dict[str, Block] = self._store._blocks
        else:
            self._nodes = {}
        self._nodes[gid] = genesis
        #: Binary-lifting jump table: ``_anc[b][k]`` = 2^k-th ancestor of b.
        #: Rows are immutable tuples, shared structurally by ``copy()``;
        #: ``row[0]`` is the parent.
        self._anc: Dict[str, Tuple[str, ...]] = {gid: ()}
        self._children: Dict[str, List[str]] = {gid: []}
        self._height: Dict[str, int] = {gid: 0}
        self._chain_weight: Dict[str, float] = {gid: 0.0}
        #: Exact per-block weight (the GHOST sweep reads it; chain-weight
        #: deltas would lose float exactness against the rescan oracle).
        self._weight: Dict[str, float] = {gid: 0.0}
        self._subtree_weight: Dict[str, float] = {gid: 0.0}
        self._leaves: Set[str] = {gid}
        # -- incremental fork-choice indices (see module docstring) --------
        self._tie_keys: Dict[str, str] = {gid: _tie_key(genesis)}
        self._height_heap: List[Tuple[int, _RevKey, str]] = [
            (0, _RevKey(self._tie_keys[gid]), gid)
        ]
        self._weight_heap: List[Tuple[float, _RevKey, str]] = [
            (0.0, _RevKey(self._tie_keys[gid]), gid)
        ]
        self._best_child: Dict[str, Optional[str]] = {gid: None}
        self._sibling_index: Dict[str, int] = {gid: 0}
        self._weight_backlog: List[str] = []
        self._ghost_leaf: str = gid
        self._ghost_dirty: bool = False
        #: LRU of *materialized* root paths (block tuples) by tip id.
        self._chain_cache: "OrderedDict[str, Tuple[Block, ...]]" = OrderedDict()

    # -- queries ----------------------------------------------------------

    def __contains__(self, block_id: str) -> bool:
        """Membership over all blocks ever added."""
        return block_id in self._height

    def __len__(self) -> int:
        """Number of blocks including genesis."""
        return len(self._height)

    def get(self, block_id: str) -> Block:
        """Return the block with ``block_id`` (KeyError if absent)."""
        return self._nodes[block_id]

    def blocks(self) -> Iterator[Block]:
        """Iterate over all blocks in insertion order."""
        return (self.get(bid) for bid in self._height)

    def children(self, block_id: str) -> Tuple[Block, ...]:
        """The direct children of ``block_id`` in insertion order."""
        return tuple(self.get(c) for c in self._children[block_id])

    def height(self, block_id: str) -> int:
        """Distance of ``block_id`` from the root."""
        return self._height[block_id]

    def parent_id(self, block_id: str) -> Optional[str]:
        """The parent id of ``block_id`` (None for genesis) — O(1).

        Served from the jump table (``row[0]`` is the parent).  Raises
        ``KeyError`` for unknown blocks.
        """
        row = self._anc[block_id]
        return row[0] if row else None

    def iter_ids(self) -> Iterator[str]:
        """All block ids in insertion order (parent before child)."""
        return iter(self._height)

    def chain_weight(self, block_id: str) -> float:
        """Total weight of the path root→``block_id`` (excluding genesis)."""
        return self._chain_weight[block_id]

    def subtree_weight(self, block_id: str) -> float:
        """Total weight of the subtree rooted at ``block_id`` (GHOST metric)."""
        self._flush_weights()
        return self._subtree_weight[block_id]

    def leaves(self) -> Tuple[Block, ...]:
        """All current leaves, in insertion order of their ids."""
        return tuple(self.get(b) for b in sorted(self._leaves))

    def leaf_ids(self) -> Tuple[str, ...]:
        """Sorted ids of all current leaves.

        The reconciliation transport exchanges these as the replica's
        tip-set: every block ever updated lies on a root→leaf path, so
        syncing all leaves (plus missing ancestors) syncs whole trees —
        including abandoned forks, which Update Agreement R3 requires
        every correct replica to eventually receive.
        """
        return tuple(sorted(self._leaves))

    def fork_degree(self, block_id: str) -> int:
        """Number of children of ``block_id`` — the number of forks from it."""
        return len(self._children[block_id])

    def max_fork_degree(self) -> int:
        """The maximum fork degree over all blocks (k-fork coherence witness)."""
        return max((len(v) for v in self._children.values()), default=0)

    # -- ancestry index (binary lifting) -----------------------------------

    def ancestor_at_depth(self, block_id: str, depth: int) -> str:
        """The id of ``block_id``'s ancestor at ``depth`` — O(log n).

        ``depth`` counts from the root (genesis is depth 0); a block is
        its own ancestor at its own height.  Raises ``KeyError`` for
        unknown blocks and ``ValueError`` for depths below the root or
        beyond the block.
        """
        delta = self._height[block_id] - depth
        if delta < 0 or depth < 0:
            raise ValueError(
                f"block at height {self._height[block_id]} has no ancestor "
                f"at depth {depth}"
            )
        anc = self._anc
        cursor = block_id
        level = 0
        while delta:
            if delta & 1:
                cursor = anc[cursor][level]
            delta >>= 1
            level += 1
        return cursor

    def lca(self, a: str, b: str) -> str:
        """The lowest common ancestor of blocks ``a`` and ``b`` — O(log n).

        This is the tip of the paper's maximal common prefix
        ``mcp(chain(a), chain(b))``.
        """
        height = self._height
        if height[a] > height[b]:
            a, b = b, a
        b = self.ancestor_at_depth(b, height[a])
        if a == b:
            return a
        anc = self._anc
        # Equal heights ⇒ equal row lengths; descend from the top level.
        for level in range(len(anc[a]) - 1, -1, -1):
            row_a, row_b = anc[a], anc[b]
            if level < len(row_a) and row_a[level] != row_b[level]:
                a, b = row_a[level], row_b[level]
        return anc[a][0]

    def is_ancestor(self, ancestor_id: str, block_id: str) -> bool:
        """Whether ``ancestor_id`` lies on ``block_id``'s root path — O(log n).

        Reflexive, and exactly the prefix relation on the corresponding
        chains: ``chain(a) ⊑ chain(b)  ⟺  is_ancestor(a, b)``.
        """
        depth = self._height[ancestor_id]
        return (
            depth <= self._height[block_id]
            and self.ancestor_at_depth(block_id, depth) == ancestor_id
        )

    # -- incremental fork-choice indices ----------------------------------

    def best_leaf_by_height(self) -> Block:
        """The leaf the longest-chain rule selects (lexicographic ties)."""
        heap = self._height_heap
        leaves = self._leaves
        while heap[0][2] not in leaves:
            heapq.heappop(heap)
        return self.get(heap[0][2])

    def best_leaf_by_weight(self) -> Block:
        """The leaf the heaviest-chain rule selects (lexicographic ties)."""
        heap = self._weight_heap
        leaves = self._leaves
        while heap[0][2] not in leaves:
            heapq.heappop(heap)
        return self.get(heap[0][2])

    def best_child(self, block_id: str) -> Optional[Block]:
        """The child GHOST descends into from ``block_id`` (None at leaves)."""
        self._flush_weights()
        child = self._best_child[block_id]
        return None if child is None else self.get(child)

    def ghost_leaf(self) -> Block:
        """The leaf the GHOST rule selects (lexicographic ties)."""
        self._flush_weights()
        if self._ghost_dirty:
            best_child = self._best_child
            cursor = self.genesis.block_id
            while True:
                nxt = best_child[cursor]
                if nxt is None:
                    break
                cursor = nxt
            self._ghost_leaf = cursor
            self._ghost_dirty = False
        return self.get(self._ghost_leaf)

    def _flush_weights(self) -> None:
        """Apply the append backlog to subtree weights and GHOST indices.

        The backlog holds block ids; weights come from ``_weight`` and
        parents from the jump table.
        """
        backlog = self._weight_backlog
        if not backlog:
            return
        self._weight_backlog = []
        n = len(self._height)
        height = self._height
        # Per-entry propagation walks each new block's ancestor path; a
        # full sweep costs one pass over the tree.  Pick the cheaper one.
        estimated = 0
        for bid in backlog:
            estimated += height[bid]
            if estimated > 2 * n:
                self._full_weight_sweep()
                return
        sub = self._subtree_weight
        anc = self._anc
        weight = self._weight
        best_child = self._best_child
        keys = self._tie_keys
        for bid in backlog:
            w = weight[bid]
            child = bid
            row = anc[bid]
            cursor = row[0] if row else None
            while cursor is not None:
                sub[cursor] += w
                incumbent = best_child[cursor]
                if incumbent != child:
                    if incumbent is None:
                        best_child[cursor] = child
                        # The cursor was a leaf gaining its first child: if
                        # it was the GHOST winner, the winner just extends.
                        if not self._ghost_dirty and cursor == self._ghost_leaf:
                            self._ghost_leaf = child
                        else:
                            self._ghost_dirty = True
                    else:
                        # Ties replay the rescan semantics: max weight, then
                        # max tie-key, then *first-inserted* sibling — the
                        # incumbent may be a later sibling the on-path child
                        # has just caught up with.
                        order = self._sibling_index
                        if (sub[child], keys[child], -order[child]) > (
                            sub[incumbent],
                            keys[incumbent],
                            -order[incumbent],
                        ):
                            best_child[cursor] = child
                            self._ghost_dirty = True
                child = cursor
                row = anc[cursor]
                cursor = row[0] if row else None

    def _full_weight_sweep(self) -> None:
        """Rebuild subtree weights and best-child pointers in O(n)."""
        anc = self._anc
        weight = self._weight
        sub = {bid: weight[bid] for bid in self._height}
        # The genesis convention: its own weight never counts (see __init__).
        sub[self.genesis.block_id] = 0.0
        for bid in reversed(list(self._height)):
            row = anc[bid]
            if row:
                sub[row[0]] += sub[bid]
        keys = self._tie_keys
        best_child: Dict[str, Optional[str]] = {}
        for pid, kids in self._children.items():
            best: Optional[str] = None
            for kid in kids:
                if best is None or (sub[kid], keys[kid]) > (sub[best], keys[best]):
                    best = kid
            best_child[pid] = best
        self._subtree_weight = sub
        self._best_child = best_child
        self._ghost_dirty = True

    # -- mutation ---------------------------------------------------------

    def add_block(self, block: Block) -> bool:
        """Insert ``block`` under its parent.

        Returns ``True`` if the block was inserted, ``False`` if it was
        already present.  Raises ``KeyError`` if the parent is unknown —
        callers that receive blocks out of order must hold them back.

        Appends are O(1) amortized: the expensive GHOST bookkeeping is
        deferred to the next subtree-weight observation (see the module
        docstring's design note).  The block is written through to the
        store.
        """
        bid = block.block_id
        if bid in self._height:
            return False
        if block.parent_id is None:
            raise ValueError("cannot insert a second genesis block")
        if block.parent_id not in self._height:
            raise KeyError(f"parent {block.parent_id!r} not in tree")
        # Intern the id strings (in the block itself, so every replica's
        # index maps share one object per id — a large memory win on
        # million-block, multi-node scenarios; value semantics unchanged).
        bid = sys.intern(bid)
        parent_id = sys.intern(block.parent_id)
        object.__setattr__(block, "block_id", bid)
        object.__setattr__(block, "parent_id", parent_id)
        self._nodes[bid] = block
        if not self._shared_nodes:
            self._store.put(block)
        self._children[bid] = []
        self._sibling_index[bid] = len(self._children[parent_id])
        self._children[parent_id].append(bid)
        height = self._height[parent_id] + 1
        self._height[bid] = height
        chain_weight = self._chain_weight[parent_id] + block.weight
        self._chain_weight[bid] = chain_weight
        self._weight[bid] = block.weight
        self._subtree_weight[bid] = block.weight
        self._best_child[bid] = None
        # Binary-lifting row: row[k] = 2^k-th ancestor, derived from the
        # parent's row in O(log n).
        anc = self._anc
        row = [parent_id]
        level = 0
        while True:
            above = anc[row[level]]
            if level < len(above):
                row.append(above[level])
                level += 1
            else:
                break
        anc[bid] = tuple(row)
        key = _tie_key(block)
        self._tie_keys[bid] = key
        heapq.heappush(self._height_heap, (-height, _RevKey(key), bid))
        heapq.heappush(self._weight_heap, (-chain_weight, _RevKey(key), bid))
        self._weight_backlog.append(bid)
        self._leaves.discard(parent_id)
        self._leaves.add(bid)
        return True

    def stats(self) -> Dict[str, int]:
        """The tree's size now."""
        return {"blocks": len(self._height)}

    @classmethod
    def replay(cls, store: "BlockStore", genesis: Block = GENESIS) -> "BlockTree":
        """Rebuild a tree from a store's append-ordered scan.

        This is the crash-recovery path: stores are written
        parent-before-child (the tree's own insertion order), so one
        pass over ``store.scan()`` reconstructs every index.
        """
        tree = cls(genesis, store=store)
        for block in store.scan():
            if not block.is_genesis:
                tree.add_block(block)
        return tree

    # -- chain extraction ---------------------------------------------------

    def chain_to(self, block_id: str) -> Chain:
        """The blockchain from genesis to ``block_id`` — O(1).

        Returns a tree-backed :class:`Chain` view; the block tuple is
        materialized lazily through :meth:`path_blocks` only if a
        consumer iterates it.  Raises ``KeyError`` for unknown blocks.
        """
        return Chain.view(self, block_id)

    def path_blocks(self, block_id: str) -> Tuple[Block, ...]:
        """The materialized genesis→``block_id`` block tuple.

        Reuses cached path segments: only the suffix below the nearest
        previously materialized path is walked (paths to the root never
        change, so cache entries stay valid forever).
        """
        cache = self._chain_cache
        hit = cache.get(block_id)
        if hit is not None:
            cache.move_to_end(block_id)
            return hit
        nodes = self._nodes
        suffix: List[Block] = []
        cursor: Optional[str] = block_id
        base: Optional[Tuple[Block, ...]] = None
        while cursor is not None:
            cached = cache.get(cursor)
            if cached is not None:
                base = cached
                break
            block = nodes[cursor]
            suffix.append(block)
            cursor = block.parent_id
        suffix.reverse()
        if base is not None:
            path = base + tuple(suffix)
        else:
            path = tuple(suffix)
        cache[block_id] = path
        if len(cache) > self._CHAIN_CACHE_LIMIT:
            cache.popitem(last=False)
        return path

    # -- persistence ---------------------------------------------------------

    def copy(self) -> "BlockTree":
        """An independent copy of this tree (same Block objects).

        Requires a store that supports ``copy()`` — the default
        in-memory backend does; durable backends refuse rather than
        aliasing one file from two trees (rebuild via :meth:`replay`
        instead).
        """
        self._flush_weights()
        # The copied store's dict already holds every block.
        clone = BlockTree(self.genesis, store=self._store.copy())
        clone._children = {k: list(v) for k, v in self._children.items()}
        clone._anc = dict(self._anc)  # rows are immutable tuples: shared
        clone._height = dict(self._height)
        clone._chain_weight = dict(self._chain_weight)
        clone._weight = dict(self._weight)
        clone._subtree_weight = dict(self._subtree_weight)
        clone._leaves = set(self._leaves)
        clone._tie_keys = dict(self._tie_keys)
        clone._sibling_index = dict(self._sibling_index)
        clone._height_heap = list(self._height_heap)
        clone._weight_heap = list(self._weight_heap)
        clone._best_child = dict(self._best_child)
        clone._weight_backlog = []
        clone._ghost_leaf = self._ghost_leaf
        clone._ghost_dirty = self._ghost_dirty
        # Share-nothing clones start with an empty materialization cache:
        # copying the LRU made clone cost scale with cached chain depth
        # (the entries are pure caches — the clone rebuilds them on use).
        clone._chain_cache = OrderedDict()
        return clone

    def freeze(self) -> Tuple[Tuple[str, str], ...]:
        """A hashable snapshot: sorted ``(block_id, parent_id)`` edges.

        Derived from the jump table (``row[0]`` is the parent).
        """
        return tuple(sorted((bid, row[0]) for bid, row in self._anc.items() if row))

    def describe(self, block_id: str | None = None, indent: int = 0) -> str:
        """ASCII rendering of the tree (children indented under parents)."""
        root = block_id or self.genesis.block_id
        lines = [" " * indent + self.get(root).short()]
        for child in self._children[root]:
            lines.append(self.describe(child, indent + 2))
        return "\n".join(lines)
