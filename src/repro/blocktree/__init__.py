"""The BlockTree data structure and BT-ADT (paper Section 3.1).

The BlockTree is a directed rooted tree ``bt = (V, E)`` whose vertices are
blocks and whose edges point back toward the *genesis block* ``b0``.  A
*blockchain* is the path from a leaf to ``b0``.  The BT-ADT
(Definition 3.1) exposes ``append(b)`` — which attaches a valid block to
the tip of the chain chosen by the selection function ``f`` — and
``read()`` which returns ``{b0} ⌢ f(bt)``.

Modules:

* :mod:`repro.blocktree.block` — immutable blocks and validity predicates ``P``.
* :mod:`repro.blocktree.chain` — the blockchain value type (genesis→leaf path).
* :mod:`repro.blocktree.tree` — the mutable rooted tree with incremental
  weights (for GHOST) and persistent *frozen* snapshots.
* :mod:`repro.blocktree.score` — monotonic score functions and ``mcps``.
* :mod:`repro.blocktree.selection` — selection functions ``f ∈ F``.
* :mod:`repro.blocktree.bt_adt` — the BT-ADT transducer of Definition 3.1.
* :mod:`repro.blocktree.reference` — the retained full-rescan/tuple-walk
  oracles for differential testing.

Complexity guarantees (details per module; README § Performance for the
measured gates): ``add_block`` O(log n) including ancestry upkeep and
write-through to the block store; ``read()``/``chain_to`` O(1) views;
``⊑``/``comparable``/``common_prefix`` O(log n) on the binary-lifting
index; longest/heaviest selection O(1) amortized, GHOST O(Δ) amortized.
A tree keeps every block it was given resident, as the BT-ADT replica
keeps its whole ``bt``; a durable :mod:`repro.storage` backend only
adds a log to rebuild it from after a crash.
"""
