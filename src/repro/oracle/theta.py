"""The token oracle Θ (Definitions 3.5–3.6, Figures 5–7 and 11).

Θ's whole state is one value, :class:`ThetaState` ``(tapes, K, k)``: a
pseudorandom tape per merit and an infinite array ``K`` of per-object
sets of tokenized blocks.  ``getToken(obj_h, obj_ℓ)`` pops the invoker's
tape and, on ``tkn``, returns the *tokenized* object ``obj_ℓ^{tkn_h}`` —
which is by construction valid (``∈ O′``).  ``consumeToken(obj_ℓ^{tkn_h})``
adds the object to ``K[h]`` as long as ``|K[h]| < k`` and returns ``K[h]``.
``k = math.inf`` is the prodigal Θ_P, a finite ``k`` the frugal Θ_F,k.

:class:`ThetaState` holds the only copy of these rules; two faces sit
over it:

* :class:`ThetaADT` — Θ as a value-semantics transducer, so transition
  walks (Figure 6) and sequential-spec checks apply.
* :class:`ThetaOracle` — one current state: the oracle of the refinement
  ``R(BT-ADT, Θ)`` (Figure 7) and, as a shared object whose snapshot is
  that state, the oracle of Protocol A (Figure 11).

Theorem 3.2 (k-Fork Coherence) is enforced structurally: the ``add`` into
``K[h]`` refuses beyond ``k`` elements, so at most ``k`` ``append()``
operations can succeed per holder object.  :meth:`ThetaOracle.check_fork_coherence`
re-verifies the invariant from the consumed sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Optional, Tuple

from repro._util import require, sha256_hex
from repro.adt.base import ADT
from repro.blocktree.block import Block, attach_descriptor
from repro.concurrent.objects import SharedObject
from repro.oracle.tapes import tape_cell

__all__ = [
    "Token",
    "mint_token",
    "TokenizedBlock",
    "ThetaState",
    "ThetaOracle",
    "ThetaADT",
    "GetToken",
    "ConsumeToken",
]


@dataclass(frozen=True)
class Token:
    """A token ``tkn_h``: the right to chain one new object to ``holder_id``.

    ``token_id`` commits to the seed, merit identity and tape position
    that won it and to the holder, so every generated token is unique
    ("each token can be consumed at most once" is enforced by the
    consume rule looking the token up in ``K[h]``).
    """

    holder_id: str
    token_id: str


def mint_token(seed: int, merit_id: str, position: int, holder_id: str) -> Token:
    """The token that cell ``position`` of ``merit_id``'s tape wins for
    ``holder_id``; its id commits to all four."""
    return Token(
        holder_id=holder_id,
        token_id=sha256_hex("token", seed, merit_id, position, holder_id),
    )


@dataclass(frozen=True)
class TokenizedBlock:
    """``b_ℓ^{tkn_h}``: a block made valid by a token for holder ``h``.

    The contained ``block`` is already chained to the holder (its
    ``parent_id`` equals ``token.holder_id``); by construction it belongs
    to ``B′``.
    """

    block: Block
    token: Token

    @property
    def holder_id(self) -> str:
        return self.token.holder_id


@dataclass(frozen=True)
class ThetaState:
    """Θ's state ``(tapes, K, k)`` as one immutable value.

    The tape of merit ``m`` has cell chance ``p_m``: its entry in
    ``probabilities`` (``(merit, p)`` pairs) or else
    ``default_probability``; every ``p`` must be in ``(0, 1]`` ("the
    oracle provides a token with a certain probability p_αi > 0"), so a
    getToken loop terminates.  ``positions`` holds the head of every tape
    that was popped and ``consumed`` every non-empty ``K[h]``, both as
    key-sorted pairs, so equal states are equal values.
    """

    k: float
    seed: int
    default_probability: float = 0.5
    probabilities: Tuple[Tuple[str, float], ...] = ()
    positions: Tuple[Tuple[str, int], ...] = ()
    consumed: Tuple[Tuple[str, Tuple[TokenizedBlock, ...]], ...] = ()

    def __post_init__(self) -> None:
        require(
            self.k == math.inf or (isinstance(self.k, int) and self.k >= 1),
            "k must be a positive integer or math.inf",
        )
        for p in (self.default_probability, *(p for _, p in self.probabilities)):
            require(0.0 < p <= 1.0, "merit probability must be in (0, 1]")

    def probability_of(self, merit_id: str) -> float:
        return dict(self.probabilities).get(merit_id, self.default_probability)

    def position_of(self, merit_id: str) -> int:
        return dict(self.positions).get(merit_id, 0)

    def bucket(self, holder_id: str) -> Tuple[TokenizedBlock, ...]:
        """``get(K, h)``."""
        return dict(self.consumed).get(holder_id, ())

    def get_token(
        self, holder: Block | str, descriptor: Block, merit_id: str
    ) -> Tuple["ThetaState", Optional[TokenizedBlock]]:
        """``getToken(obj_h, obj_ℓ)`` for the process with merit ``merit_id``.

        Pops the merit's tape; on ``tkn`` the output is the tokenized
        block chained to the holder, else ``None`` (the paper's ``⊥``).
        """
        positions = dict(self.positions)
        position = positions.get(merit_id, 0)
        positions[merit_id] = position + 1
        state = replace(self, positions=tuple(sorted(positions.items())))
        if not tape_cell(self.seed, merit_id, position, self.probability_of(merit_id)):
            return state, None
        holder_id = holder.block_id if isinstance(holder, Block) else holder
        token = mint_token(self.seed, merit_id, position, holder_id)
        return state, TokenizedBlock(attach_descriptor(descriptor, holder_id), token)

    def consume_token(
        self, tokenized: TokenizedBlock
    ) -> Tuple["ThetaState", Tuple[TokenizedBlock, ...]]:
        """``consumeToken(obj_ℓ^{tkn_h})``: add into ``K[h]`` if below cap.

        The output is ``K[h]`` after the operation.  A token already in
        ``K[h]`` and a full ``K[h]`` leave the state unchanged.
        """
        holder_id = tokenized.holder_id
        bucket = self.bucket(holder_id)
        if len(bucket) >= self.k or any(t.token == tokenized.token for t in bucket):
            return self, bucket
        consumed = dict(self.consumed)
        consumed[holder_id] = bucket = bucket + (tokenized,)
        return replace(self, consumed=tuple(sorted(consumed.items()))), bucket


class ThetaOracle(SharedObject):
    """Θ with one current :class:`ThetaState`.

    The refinement calls :meth:`get_token` / :meth:`consume_token`
    directly; Protocol A invokes the same two operations by name through
    :meth:`apply`, and the model checker snapshots the state itself.
    """

    def __init__(self, state: ThetaState) -> None:
        self.state = state

    def get_token(
        self, holder: Block | str, descriptor: Block, merit_id: str
    ) -> Optional[TokenizedBlock]:
        self.state, tokenized = self.state.get_token(holder, descriptor, merit_id)
        return tokenized

    def consume_token(self, tokenized: TokenizedBlock) -> Tuple[TokenizedBlock, ...]:
        self.state, bucket = self.state.consume_token(tokenized)
        return bucket

    def consumed_for(self, holder_id: str) -> Tuple[TokenizedBlock, ...]:
        """``get(K, h)`` without side effects."""
        return self.state.bucket(holder_id)

    def check_fork_coherence(self) -> bool:
        """Theorem 3.2: no holder has more than ``k`` consumed tokens."""
        return all(len(bucket) <= self.state.k for _, bucket in self.state.consumed)

    # -- shared-object face (Protocol A) ----------------------------------------

    def apply(self, op: str, args: Tuple[Any, ...]) -> Any:
        if op == "get_token":
            return self.get_token(*args)
        if op == "consume_token":
            return self.consume_token(*args)
        raise ValueError(f"ThetaOracle has no op {op!r}")

    def snapshot(self) -> ThetaState:
        return self.state

    def restore(self, state: ThetaState) -> None:
        self.state = state


# ---------------------------------------------------------------------------
# Transducer face (Figure 6 transition walks, sequential spec).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GetToken:
    """Input symbol ``getToken(obj_h, obj_ℓ)`` tagged with the invoker's merit."""

    holder_id: str
    descriptor: Block
    merit_id: str

    def __str__(self) -> str:
        return f"getToken({self.holder_id[:8]}, {self.descriptor.short()})@{self.merit_id}"


@dataclass(frozen=True)
class ConsumeToken:
    """Input symbol ``consumeToken(obj_ℓ^{tkn_h})``."""

    tokenized: TokenizedBlock

    def __str__(self) -> str:
        return f"consumeToken({self.tokenized.block.short()}^{self.tokenized.token.token_id[:6]})"


class ThetaADT(ADT[ThetaState]):
    """Θ as a transducer — Definitions 3.5/3.6 verbatim, value semantics.

    Outputs: ``getToken`` yields a :class:`TokenizedBlock` or ``None``;
    ``consumeToken`` yields ``K[h]`` after the op.
    """

    def __init__(self, initial: ThetaState) -> None:
        self.initial = initial

    def initial_state(self) -> ThetaState:
        return self.initial

    def accepts_symbol(self, symbol: Any) -> bool:
        return isinstance(symbol, (GetToken, ConsumeToken))

    def transition(self, state: ThetaState, symbol: Any) -> ThetaState:
        return self._step(state, symbol)[0]

    def output(self, state: ThetaState, symbol: Any) -> Any:
        return self._step(state, symbol)[1]

    def apply(self, state: ThetaState, symbol: Any) -> Tuple[ThetaState, Any]:
        """``(τ, δ)`` from one Θ step, so each granted token is minted once."""
        return self._step(state, symbol)

    @staticmethod
    def _step(state: ThetaState, symbol: Any) -> Tuple[ThetaState, Any]:
        if isinstance(symbol, GetToken):
            return state.get_token(symbol.holder_id, symbol.descriptor, symbol.merit_id)
        if isinstance(symbol, ConsumeToken):
            return state.consume_token(symbol.tokenized)
        raise ValueError(f"unknown symbol {symbol!r}")
