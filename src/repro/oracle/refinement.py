"""The refinement ``R(BT-ADT, Θ)`` (Definitions 3.7–3.8, Figure 7).

The refined ``append(b)`` is ``getToken*; consumeToken`` executed
atomically: the process repeatedly invokes
``getToken(b_h ← last_block(f(bt)), b_ℓ)`` until a token is granted, then
consumes it; the block is attached under ``b_h`` iff the consume landed in
``K[h]`` (i.e. ``|K[h]| < k`` at consumption time).  The refined
``append`` returns the paper's ``evaluate(b, δb ∘ δa*)``: whether the
tokenized block ended up in the returned ``K`` set.

Note the BlockTree-level consequence of the frugal cap: since only blocks
holding consumed tokens are attached and ``K[h]`` holds at most ``k``
blocks, no block in the tree ever has more than ``k`` children — the
k-Fork Coherence of Theorem 3.2, re-checked by
:meth:`RefinedBTADT.check_fork_coherence`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.blocktree.block import Block, TableValid
from repro.blocktree.chain import Chain
from repro.blocktree.selection import SelectionFunction
from repro.blocktree.tree import BlockTree
from repro.oracle.theta import ThetaOracle, TokenizedBlock

__all__ = ["RefinementResult", "RefinedBTADT"]


@dataclass(frozen=True)
class RefinementResult:
    """Outcome of a refined ``append``.

    ``success`` is the refined δ (the ``evaluate`` of Definition 3.7);
    ``attempts`` counts ``getToken`` invocations (the ``τa*`` loop length);
    ``tokenized`` is the block+token pair the granted getToken produced.
    """

    success: bool
    attempts: int
    tokenized: TokenizedBlock

    def __bool__(self) -> bool:
        return self.success


class RefinedBTADT:
    """``R(BT-ADT, Θ)``: a BlockTree whose appends go through a token oracle.

    The validity predicate of the underlying BT-ADT is exactly "tokenized
    by this oracle" — "the oracle is the only generator of valid blocks" —
    realized with a :class:`~repro.blocktree.block.TableValid` table that
    the refinement populates as tokens are consumed.
    """

    def __init__(
        self,
        selection: SelectionFunction,
        oracle: ThetaOracle,
        max_attempts: int = 10_000,
    ) -> None:
        self.selection = selection
        self.oracle = oracle
        self.tree = BlockTree()
        self.validity = TableValid()
        self.max_attempts = max_attempts

    # -- BT-ADT operations, refined -------------------------------------------

    def append(self, descriptor: Block, merit_id: str) -> RefinementResult:
        """The refined ``append(b)`` for the process with merit ``merit_id``.

        Implements ``τb ∘ τa*`` of Definition 3.7: loop ``getToken`` on the
        tip of the currently selected chain until granted, then consume.
        The loop is bounded by ``max_attempts`` purely as an engineering
        guard; tapes have ``p > 0`` so it terminates long before.
        """
        return self.append_at(self.selection.select(self.tree).tip, descriptor, merit_id)

    def append_at(self, holder: Block, descriptor: Block, merit_id: str) -> RefinementResult:
        """Refined append targeting an explicit holder block.

        Models concurrent executions in which a process's ``f(bt)`` was
        evaluated on a stale replica (the Theorem 4.8 scenario): the holder
        is whatever tip that replica selected.
        """
        if holder.block_id not in self.tree:
            raise KeyError(f"holder {holder.short()} not in tree")
        attempts = 0
        tokenized: Optional[TokenizedBlock] = None
        while tokenized is None:
            if attempts >= self.max_attempts:
                raise RuntimeError(
                    f"getToken did not grant a token within {self.max_attempts} attempts"
                )
            tokenized = self.oracle.get_token(holder, descriptor, merit_id)
            attempts += 1
        success = tokenized in self.oracle.consume_token(tokenized)
        if success:
            self.validity.admit(tokenized.block)
            self.tree.add_block(tokenized.block)
        return RefinementResult(success=success, attempts=attempts, tokenized=tokenized)

    def read(self) -> Chain:
        """``read()``: ``{b0} ⌢ f(bt)`` on the current tree."""
        return self.selection.select(self.tree)

    # -- invariants ---------------------------------------------------------

    def check_fork_coherence(self) -> bool:
        """Theorem 3.2 on both the oracle sets and the realized tree."""
        return (
            self.oracle.check_fork_coherence()
            and self.tree.max_fork_degree() <= self.oracle.state.k
        )
