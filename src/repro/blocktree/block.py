"""Blocks and validity predicates (paper Section 3.1).

Blocks are immutable values identified by a content hash.  The paper
abstracts block payloads entirely; here a block optionally carries a
payload (e.g. transaction identifiers), a creator id, a nonce and a
difficulty so that the same type serves the formal framework, the
proof-of-work substrate and the protocol simulations.

Validity is a predicate ``P : B → {true, false}`` (application dependent —
"for instance, in Bitcoin, a block is considered valid if it can be
connected to the current blockchain and does not contain transactions
that double spend").  Context-dependent validity (double spends) is
implemented in :mod:`repro.workloads.transactions`; here we provide the
predicate interface and simple structural predicates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Tuple

from repro._util import sha256_hex

__all__ = [
    "Block",
    "GENESIS",
    "make_block",
    "attach_descriptor",
    "creator_name",
    "ValidityPredicate",
    "AlwaysValid",
    "TableValid",
    "PredicateValid",
]

_GENESIS_ID = "genesis"


@dataclass(frozen=True, slots=True)
class Block:
    """An immutable block: a vertex of the BlockTree.

    ``block_id`` is the content hash (or the distinguished id ``"genesis"``)
    and ``parent_id`` points backward toward the root, mirroring the
    paper's edge orientation.  ``label`` is a human-readable tag used when
    reconstructing the paper's figures (blocks named ``1``, ``2``, …).

    ``weight`` is the block's contribution to work-based scores (constant 1
    for the paper's length score; the difficulty for Bitcoin-style
    heaviest-work selection).

    ``slots=True`` drops the per-instance ``__dict__`` — at million-block
    scenario scale the dict was the single largest per-block allocation
    (measured in ``benchmarks/test_bench_consistency.py``).  The id
    strings are additionally interned at tree-insert time so every index
    map on every replica shares one string object per id.

    ``signature`` is witness data (a ``repro.crypto.signatures.Signature``
    over the content id when the scenario authenticates, else ``None``).
    It is *segregated* from the content hash — ``_STABLE_REPR_EXCLUDE``
    keeps it out of ``stable_repr`` so ``block_id`` commits to the same
    bytes whether or not the block is signed, and signing never changes
    an id (SegWit-style witness segregation).
    """

    block_id: str
    parent_id: str | None
    label: str = ""
    payload: Tuple[Any, ...] = ()
    creator: int | None = None
    nonce: int = 0
    weight: float = 1.0
    signature: Any = None

    _STABLE_REPR_EXCLUDE = ("signature",)

    @property
    def is_genesis(self) -> bool:
        """Whether this block is the distinguished root ``b0``."""
        return self.parent_id is None

    def short(self) -> str:
        """Compact display form (label if present, else id prefix)."""
        return self.label or self.block_id[:8]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Block({self.short()}→{self.parent_id and self.parent_id[:8]})"


GENESIS = Block(block_id=_GENESIS_ID, parent_id=None, label="b0", weight=0.0)
"""The genesis block ``b0``.  By assumption ``b0 ∈ B′`` (always valid)."""


def make_block(
    parent: Block | str,
    label: str = "",
    payload: Iterable[Any] = (),
    creator: int | None = None,
    nonce: int = 0,
    weight: float = 1.0,
) -> Block:
    """Construct a block chained to ``parent`` with a content-derived id.

    The id commits to the parent id, label, payload, creator and nonce so
    that two distinct blocks essentially never share an id (SHA-256).
    """
    parent_id = parent.block_id if isinstance(parent, Block) else parent
    payload_t = tuple(payload)
    block_id = sha256_hex("block", parent_id, label, payload_t, creator, nonce)
    return Block(
        block_id=block_id,
        parent_id=parent_id,
        label=label,
        payload=payload_t,
        creator=creator,
        nonce=nonce,
        weight=weight,
    )


def attach_descriptor(descriptor: Block, holder: Block | str) -> Block:
    """The concrete block chaining ``descriptor`` to ``holder``.

    A descriptor that already names ``holder`` as parent is used as is
    (protocol-produced blocks); otherwise a re-chained copy is derived
    with the same label, payload, creator, nonce and weight.
    """
    holder_id = holder.block_id if isinstance(holder, Block) else holder
    if descriptor.parent_id == holder_id:
        return descriptor
    return make_block(
        parent=holder_id,
        label=descriptor.label,
        payload=descriptor.payload,
        creator=descriptor.creator,
        nonce=descriptor.nonce,
        weight=descriptor.weight,
    )


def creator_name(block: Block) -> str | None:
    """The replica name of ``block``'s creator (``p<creator>``), or
    ``None`` for a block no replica is credited with."""
    creator = block.creator
    return None if creator is None else f"p{creator}"


class ValidityPredicate:
    """The predicate ``P`` of Definition 3.1: which blocks are in ``B′``.

    The genesis block is valid by assumption regardless of the predicate.
    """

    def __call__(self, block: Block) -> bool:
        """Raw predicate ``P(block)`` (no genesis convention applied)."""
        raise NotImplementedError

    def is_valid(self, block: Block) -> bool:
        """Alias for ``__call__`` with the genesis convention applied."""
        return block.is_genesis or self(block)


class AlwaysValid(ValidityPredicate):
    """``P ≡ ⊤``: every block is valid (the paper's default abstraction)."""

    def __call__(self, block: Block) -> bool:
        """Every block is in ``B′``."""
        return True


@dataclass
class TableValid(ValidityPredicate):
    """Validity by membership in an explicit set of block ids.

    Used by tests and by the oracle refinement, where exactly the
    tokenized blocks (``b^tkn`` objects) constitute ``B′``.
    """

    valid_ids: set = field(default_factory=set)

    def __call__(self, block: Block) -> bool:
        """Membership of the block's id in the admitted set."""
        return block.block_id in self.valid_ids

    def admit(self, block: Block) -> None:
        """Mark ``block`` as a member of ``B′``."""
        self.valid_ids.add(block.block_id)


@dataclass
class PredicateValid(ValidityPredicate):
    """Wrap an arbitrary callable as a validity predicate."""

    fn: Callable[[Block], bool]
    name: str = "custom"

    def __call__(self, block: Block) -> bool:
        """Delegate to the wrapped callable."""
        return self.fn(block)
