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

Storage split and the checkpoint/prune lifecycle
------------------------------------------------

Block *objects* are resolved through a pluggable
:class:`~repro.storage.base.BlockStore` (:mod:`repro.storage`) while the
fork-choice and ancestry **indices** above stay in RAM.  The tree keeps
a resident hot-set dict of recently used blocks; with the default
``InMemoryStore`` and no pruning it *is* the store's dict, so the
classic all-in-RAM configuration costs nothing extra.

With a durable backend and a :class:`PrunePolicy`, the tree bounds its
resident Block objects:

1. every ``chain_to`` (i.e. every fork-choice read) notes its tip;
2. when the resident count reaches ``hot_cap``, the collective LCA of
   the recent read tips — the prefix every recent read agrees on — is
   taken as the *stable finalized prefix*, held back by
   ``finality_margin`` blocks for confirmation depth;
3. a :class:`~repro.storage.base.CheckpointRecord` is written to the
   store and every resident block strictly below the checkpoint height
   is evicted (the store keeps all of them — eviction is RAM-only);
4. later deep reads (``path_blocks``, ``leaves``, iteration) *fault*
   evicted blocks back from the store through a small LRU fault cache.

Selection verdicts are byte-identical under pruning because selection
never consults Block objects — only the index maps, which are never
evicted.  ``tests/test_storage.py`` differential-tests this and
``benchmarks/test_bench_storage.py`` gates the bounded hot set at the
1M-block scale.  A crashed replica rebuilds via :meth:`BlockTree.replay`
from the store's append-ordered scan.

A frozen snapshot (:meth:`BlockTree.freeze`) provides a hashable value
for sequential-specification checking of the BT-ADT.
"""

from __future__ import annotations

import heapq
import sys
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, Iterator, List, Optional, Set, Tuple

from repro._util import counter_row
from repro.blocktree.block import GENESIS, Block
from repro.blocktree.chain import Chain

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.storage.base import BlockStore, CheckpointRecord

__all__ = ["BlockTree", "PrunePolicy"]

#: The tree's row of a replica's counter table, at zero (genesis is
#: always resident, so the peak starts at one).
_ZERO = {"peak_resident": 1, "fault_count": 0, "prune_count": 0, "evicted_total": 0}


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


@dataclass(frozen=True)
class PrunePolicy:
    """Configuration of the checkpoint/prune lifecycle (module docstring).

    ``hot_cap`` is the resident-Block ceiling that triggers a prune
    attempt — and, because eviction runs inside the same append, the
    bound the bench gates ``BlockTree.stats()["peak_resident"]`` against.
    ``recent_reads`` sizes the read-tip window whose collective LCA is
    the stable finalized prefix; ``finality_margin`` holds the
    checkpoint that many blocks further back (confirmation depth).
    After an attempt that cannot advance the checkpoint the tree backs
    off for ``retry_interval`` appends (0 picks ``max(64, hot_cap//8)``)
    so degenerate workloads don't pay an LCA fold per append.
    """

    hot_cap: int
    recent_reads: int = 8
    finality_margin: int = 0
    retry_interval: int = 0

    def __post_init__(self) -> None:
        if self.hot_cap < 2:
            raise ValueError("hot_cap must be >= 2 (genesis stays resident)")
        if self.recent_reads < 1:
            raise ValueError("recent_reads must be >= 1")
        if self.finality_margin < 0:
            raise ValueError("finality_margin must be >= 0")
        if self.retry_interval < 0:
            raise ValueError("retry_interval must be >= 0")

    def effective_retry(self) -> int:
        """Appends to wait after a prune attempt that evicted nothing."""
        return self.retry_interval or max(64, self.hot_cap // 8)


class BlockTree:
    """A rooted tree of blocks with incremental fork-choice indices.

    The tree always contains the genesis block.  ``add_block`` refuses
    blocks whose parent is absent (protocol nodes buffer such *orphans*
    themselves — see :mod:`repro.protocols.base`) and is idempotent for
    blocks already present.

    ``store`` selects the persistence backend (default: a fresh
    :class:`~repro.storage.memory.InMemoryStore`, giving the classic
    all-in-RAM behaviour); ``prune`` enables the bounded-hot-set
    checkpoint/prune lifecycle described in the module docstring.  Pass
    a *populated* store only through :meth:`replay`, which rebuilds the
    indices from it.
    """

    _CHAIN_CACHE_LIMIT = 16
    _FAULT_CACHE_LIMIT = 256

    def __init__(
        self,
        genesis: Block = GENESIS,
        store: Optional["BlockStore"] = None,
        prune: Optional[PrunePolicy] = None,
        counts: Optional[Dict[str, int]] = None,
    ) -> None:
        if not genesis.is_genesis:
            raise ValueError("BlockTree root must be a genesis block")
        from repro.storage.memory import InMemoryStore

        self.genesis = genesis
        gid = sys.intern(genesis.block_id)
        self._store: "BlockStore" = store if store is not None else InMemoryStore()
        self._prune = prune
        # With the default in-memory backend and no pruning, the resident
        # dict *is* the store's dict — zero duplication, byte-identical
        # memory profile to the pre-storage layout.
        self._shared_nodes = prune is None and isinstance(self._store, InMemoryStore)
        if self._shared_nodes:
            self._nodes: Dict[str, Block] = self._store._blocks
        else:
            self._nodes = {}
        self._nodes[gid] = genesis
        #: Binary-lifting jump table: ``_anc[b][k]`` = 2^k-th ancestor of b.
        #: Rows are immutable tuples, shared structurally by ``copy()``.
        #: ``row[0]`` doubles as the parent pointer for evicted blocks.
        self._anc: Dict[str, Tuple[str, ...]] = {gid: ()}
        self._children: Dict[str, List[str]] = {gid: []}
        self._height: Dict[str, int] = {gid: 0}
        self._chain_weight: Dict[str, float] = {gid: 0.0}
        #: Exact per-block weight (kept so the GHOST sweep never needs the
        #: Block objects of evicted nodes; chain-weight deltas would lose
        #: float exactness against the rescan oracle).
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
        # -- checkpoint/prune lifecycle state -------------------------------
        #: LRU of blocks faulted back from the store after eviction.
        self._fault_cache: "OrderedDict[str, Block]" = OrderedDict()
        self._recent_reads: Deque[str] = deque(
            maxlen=prune.recent_reads if prune is not None else 8
        )
        self._checkpoint_id: str = gid
        self._checkpoint_height: int = 0
        self._prune_cooldown: int = 0
        #: Lifecycle counters (see :meth:`stats`): the tree's row of the
        #: replica's counter table, shared by every tree the replica boots.
        self.counts = counter_row(counts, _ZERO)

    # -- queries ----------------------------------------------------------

    def __contains__(self, block_id: str) -> bool:
        """Membership over *all* blocks ever added (evicted ones included)."""
        return block_id in self._height

    def __len__(self) -> int:
        """Number of blocks including genesis (eviction does not shrink it)."""
        return len(self._height)

    def get(self, block_id: str) -> Block:
        """Return the block with ``block_id`` (KeyError if absent).

        Resident blocks are a dict hit; evicted blocks fault back from
        the store through the LRU fault cache (see the lifecycle note in
        the module docstring).
        """
        block = self._nodes.get(block_id)
        if block is not None:
            return block
        return self._fault(block_id)

    def _fault(self, block_id: str) -> Block:
        """Load an evicted block from the store (LRU-cached, interned)."""
        cache = self._fault_cache
        block = cache.get(block_id)
        if block is not None:
            cache.move_to_end(block_id)
            return block
        block = self._store.get(block_id)  # KeyError for unknown ids
        bid = sys.intern(block.block_id)
        object.__setattr__(block, "block_id", bid)
        if block.parent_id is not None:
            object.__setattr__(block, "parent_id", sys.intern(block.parent_id))
        cache[bid] = block
        if len(cache) > self._FAULT_CACHE_LIMIT:
            cache.popitem(last=False)
        self.counts["fault_count"] += 1
        return block

    def blocks(self) -> Iterator[Block]:
        """Iterate over all blocks (insertion order; evicted ones fault)."""
        return (self.get(bid) for bid in self._height)

    def children(self, block_id: str) -> Tuple[Block, ...]:
        """The direct children of ``block_id`` in insertion order."""
        return tuple(self.get(c) for c in self._children[block_id])

    def height(self, block_id: str) -> int:
        """Distance of ``block_id`` from the root."""
        return self._height[block_id]

    def parent_id(self, block_id: str) -> Optional[str]:
        """The parent id of ``block_id`` (None for genesis) — O(1).

        Served from the jump table (``row[0]`` is the parent), so evicted
        blocks never fault back for pure ancestry walks.  Raises
        ``KeyError`` for unknown blocks.
        """
        row = self._anc[block_id]
        return row[0] if row else None

    def iter_ids(self) -> Iterator[str]:
        """All block ids in insertion order (parent before child).

        Unlike :meth:`blocks` this never touches Block objects, so it is
        safe on pruned trees of any size.
        """
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
        """Sorted ids of all current leaves (no block bodies faulted).

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

        The backlog holds block *ids*, not Block objects — pruning must
        be able to free the objects while GHOST bookkeeping is pending;
        weights come from ``_weight`` and parents from the jump table.
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
        store, and — when a :class:`PrunePolicy` is configured and the
        resident hot set has reached its cap — a prune attempt runs
        before returning.
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
        resident = len(self._nodes)
        if resident > self.counts["peak_resident"]:
            self.counts["peak_resident"] = resident
        policy = self._prune
        if policy is not None and resident >= policy.hot_cap:
            if self._prune_cooldown > 0:
                self._prune_cooldown -= 1
            else:
                self.maybe_prune()
        return True

    # -- checkpoint/prune lifecycle ------------------------------------------

    @property
    def checkpoint_id(self) -> str:
        """Tip of the last checkpointed finalized prefix (genesis initially)."""
        return self._checkpoint_id

    @property
    def checkpoint_height(self) -> int:
        """Height of the last checkpoint block."""
        return self._checkpoint_height

    def checkpoint(self, block_id: str, note: str = "") -> "CheckpointRecord":
        """Declare ``block_id`` the tip of the stable finalized prefix.

        Writes a :class:`~repro.storage.base.CheckpointRecord` to the
        store and moves the tree's checkpoint marker; does **not** evict
        anything by itself (:meth:`maybe_prune` combines both).  Raises
        ``KeyError`` for unknown blocks and ``ValueError`` when the new
        checkpoint does not extend the current one — the store's
        checkpoint sequence is a chain of prefix extensions (finality is
        monotone), never a jump to a conflicting branch.
        """
        from repro.storage.base import CheckpointRecord

        bid = sys.intern(block_id)
        height = self._height[bid]
        if height < self._checkpoint_height or not self.is_ancestor(
            self._checkpoint_id, bid
        ):
            raise ValueError(
                f"checkpoint {bid[:12]} (height {height}) does not extend the "
                f"current checkpoint at height {self._checkpoint_height}"
            )
        self._checkpoint_id = bid
        self._checkpoint_height = height
        record = CheckpointRecord(
            block_id=bid,
            height=height,
            block_count=len(self._height) - 1,
            note=note,
        )
        self._store.put_checkpoint(record)
        return record

    def maybe_prune(self) -> int:
        """One checkpoint/prune step; returns how many nodes were evicted.

        The stable finalized prefix is the collective LCA of the recent
        read tips (every fork-choice read notes its tip), held back by
        the policy's ``finality_margin``.  If that advances the
        checkpoint, a record is written and every resident block below
        the checkpoint height is evicted; otherwise the tree backs off
        for ``retry_interval`` appends.  No-op without a policy.
        """
        policy = self._prune
        if policy is None or not self._recent_reads:
            return 0
        tips = set(self._recent_reads)
        it = iter(tips)
        stable = next(it)
        for tip in it:
            stable = self.lca(stable, tip)
        target = self._height[stable] - policy.finality_margin
        if target <= self._checkpoint_height or not self.is_ancestor(
            self._checkpoint_id, stable
        ):
            # Nothing finalized beyond the current checkpoint — or the
            # recent reads reorged onto a branch conflicting with it, in
            # which case pruning conservatively stalls rather than move
            # finality across branches.  Back off either way.
            self._prune_cooldown = policy.effective_retry()
            return 0
        if target < self._height[stable]:
            stable = self.ancestor_at_depth(stable, target)
        self.checkpoint(stable, note="auto-prune")
        return self._evict_below(target)

    def _evict_below(self, height: int) -> int:
        """Drop resident Block objects strictly below ``height``.

        The store keeps every block, all index maps stay intact, and the
        materialization caches are cleared (they pin Block tuples).
        """
        if self._shared_nodes:
            raise RuntimeError(
                "cannot evict from a tree sharing its nodes with an "
                "in-memory store (configure a PrunePolicy at construction)"
            )
        nodes = self._nodes
        heights = self._height
        gid = self.genesis.block_id
        evict = [bid for bid in nodes if heights[bid] < height and bid != gid]
        for bid in evict:
            del nodes[bid]
        if evict:
            # The chain cache pins whole Block-tuple paths — clear it.
            # The fault cache stays: blocks are immutable and the store
            # is append-only, so its (bounded) entries never go stale.
            self._chain_cache.clear()
            self.counts["prune_count"] += 1
            self.counts["evicted_total"] += len(evict)
        return len(evict)

    def stats(self) -> Dict[str, int]:
        """The lifecycle counters plus the tree's size, residency and
        checkpoint height now."""
        return {
            "blocks": len(self._height),
            "resident": len(self._nodes),
            **self.counts,
            "checkpoint_height": self._checkpoint_height,
        }

    @classmethod
    def replay(
        cls,
        store: "BlockStore",
        genesis: Block = GENESIS,
        prune: Optional[PrunePolicy] = None,
        counts: Optional[Dict[str, int]] = None,
    ) -> "BlockTree":
        """Rebuild a tree from a store's append-ordered scan.

        This is the crash-recovery path: stores are written
        parent-before-child (the tree's own insertion order), so one
        pass over ``store.scan()`` reconstructs every index.  The last
        surviving checkpoint record is restored as the checkpoint
        marker when its block made it into the log.

        With a ``prune`` policy, each appended block is noted as a
        synthetic read so the lifecycle runs *during* the rebuild —
        recovery of a 1M-block log stays under the same bounded hot set
        the original run had, instead of faulting the whole tree
        resident.
        """
        tree = cls(genesis, store=store, prune=prune, counts=counts)
        reads = tree._recent_reads
        for block in store.scan():
            if block.is_genesis:
                continue
            if prune is not None:
                # Note the tip *before* add_block so its prune attempt
                # sees a current read window.
                reads.append(block.block_id)
            tree.add_block(block)
        ckpt = store.last_checkpoint()
        if ckpt is not None and ckpt.block_id in tree._height:
            tree._checkpoint_id = sys.intern(ckpt.block_id)
            tree._checkpoint_height = tree._height[tree._checkpoint_id]
        return tree

    # -- chain extraction ---------------------------------------------------

    def chain_to(self, block_id: str) -> Chain:
        """The blockchain from genesis to ``block_id`` — O(1).

        Returns a tree-backed :class:`Chain` view; the block tuple is
        materialized lazily through :meth:`path_blocks` only if a
        consumer iterates it.  Raises ``KeyError`` for unknown blocks.
        On pruning trees the tip is noted as a recent read — the prune
        lifecycle finalizes the prefix recent reads agree on.
        """
        chain = Chain.view(self, block_id)  # KeyError for unknown tips
        if self._prune is not None:
            self._recent_reads.append(block_id)
        return chain

    def path_blocks(self, block_id: str) -> Tuple[Block, ...]:
        """The materialized genesis→``block_id`` block tuple.

        Reuses cached path segments: only the suffix below the nearest
        previously materialized path is walked (paths to the root never
        change, so cache entries stay valid forever).  Evicted blocks
        fault back from the store on the way.
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
            block = nodes.get(cursor)
            if block is None:
                block = self._fault(cursor)
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
        clone = BlockTree(self.genesis, store=self._store.copy(), prune=self._prune)
        if clone._shared_nodes:
            # The copied store's dict already holds every block.
            pass
        else:
            clone._nodes = dict(self._nodes)
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
        clone._recent_reads = deque(self._recent_reads, maxlen=self._recent_reads.maxlen)
        clone._checkpoint_id = self._checkpoint_id
        clone._checkpoint_height = self._checkpoint_height
        return clone

    def freeze(self) -> Tuple[Tuple[str, str], ...]:
        """A hashable snapshot: sorted ``(block_id, parent_id)`` edges.

        Derived from the jump table (``row[0]`` is the parent), so it
        never faults evicted blocks.
        """
        return tuple(sorted((bid, row[0]) for bid, row in self._anc.items() if row))

    def describe(self, block_id: str | None = None, indent: int = 0) -> str:
        """ASCII rendering of the tree (children indented under parents)."""
        root = block_id or self.genesis.block_id
        lines = [" " * indent + self.get(root).short()]
        for child in self._children[root]:
            lines.append(self.describe(child, indent + 2))
        return "\n".join(lines)
