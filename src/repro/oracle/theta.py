"""The token oracles Θ_F and Θ_P (Definitions 3.5–3.6, Figures 5–6).

The oracle's abstract state is ``(tapes, K, k)``: one merit tape per
process identity, plus an infinite array ``K`` of per-object sets that
record consumed tokens.  ``getToken(obj_h, obj_ℓ)`` pops the invoker's
tape and, on ``tkn``, returns the *tokenized* object ``obj_ℓ^{tkn_h}`` —
which is by construction valid (``∈ O′``).  ``consumeToken(obj_ℓ^{tkn_h})``
adds the object to ``K[h]`` as long as ``|K[h]| < k`` and returns ``K[h]``.

Two views are provided:

* :class:`ThetaOracle` — the imperative object used by the refinement,
  the shared-memory reductions and the protocol simulations.
* :class:`ThetaADT` — the same behaviour as a value-semantics transducer,
  so transition-system walks (Figure 6) and sequential-spec checks apply.

Theorem 3.2 (k-Fork Coherence) is enforced structurally: the ``add`` into
``K[h]`` refuses beyond ``k`` elements, so at most ``k`` ``append()``
operations can succeed per holder object.  :meth:`ThetaOracle.check_fork_coherence`
re-verifies the invariant from the recorded statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Tuple

from repro._util import sha256_hex
from repro.adt.base import ADT
from repro.blocktree.block import Block, attach_descriptor
from repro.oracle.tapes import TapeSet, tape_cell

__all__ = [
    "Token",
    "mint_token",
    "TokenizedBlock",
    "OracleStats",
    "ThetaOracle",
    "FrugalOracle",
    "ProdigalOracle",
    "ThetaState",
    "ThetaADT",
    "GetToken",
    "ConsumeToken",
]


@dataclass(frozen=True)
class Token:
    """A token ``tkn_h``: the right to chain one new object to ``holder_id``.

    ``token_id`` commits to the merit identity and tape position that won
    it, so every generated token is unique ("each token can be consumed at
    most once" is enforced by the oracle tracking consumed ids).
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


@dataclass
class OracleStats:
    """Counters for oracle activity, used by benches and fork-coherence checks."""

    get_token_calls: int = 0
    tokens_generated: int = 0
    tokens_consumed: int = 0
    consume_rejections: int = 0
    duplicate_consumes: int = 0


class ThetaOracle:
    """Imperative token oracle with consumption cap ``k`` (∞ for prodigal).

    Parameters
    ----------
    k:
        Maximum tokens consumed per holder object; ``math.inf`` gives Θ_P.
    tapes:
        The merit tape family.  Callers register merits with their
        ``p_αi`` before (or on first) use.
    """

    def __init__(self, k: float, tapes: TapeSet) -> None:
        if not (k == math.inf or (isinstance(k, int) and k >= 1)):
            raise ValueError("k must be a positive integer or math.inf")
        self.k = k
        self.tapes = tapes
        self.consumed: Dict[str, list] = {}
        self.stats = OracleStats()
        self._consumed_token_ids: set = set()

    # -- the two oracle operations -------------------------------------------

    def get_token(
        self, holder: Block | str, descriptor: Block, merit_id: str
    ) -> Optional[TokenizedBlock]:
        """``getToken(obj_h, obj_ℓ)`` for the process with merit ``merit_id``.

        Pops the merit's tape; on ``tkn`` returns the tokenized block
        chained to the holder, else ``None`` (the paper's ``⊥``).
        """
        holder_id = holder.block_id if isinstance(holder, Block) else holder
        tape = self.tapes.tape(merit_id)
        position = tape.position
        won = tape.pop()
        self.stats.get_token_calls += 1
        if not won:
            return None
        self.stats.tokens_generated += 1
        token = mint_token(self.tapes.seed, merit_id, position, holder_id)
        concrete = attach_descriptor(descriptor, holder)
        return TokenizedBlock(block=concrete, token=token)

    def consume_token(self, tokenized: TokenizedBlock) -> Tuple[Block, ...]:
        """``consumeToken(obj_ℓ^{tkn_h})``: add into ``K[h]`` if below cap.

        Returns the content of ``K[h]`` after the operation (the paper's
        ``get(K, h)``).  Replayed tokens and full sets leave ``K[h]``
        unchanged.
        """
        holder_id = tokenized.holder_id
        bucket = self.consumed.setdefault(holder_id, [])
        if tokenized.token.token_id in self._consumed_token_ids:
            self.stats.duplicate_consumes += 1
            return tuple(bucket)
        if len(bucket) < self.k:
            bucket.append(tokenized.block)
            self._consumed_token_ids.add(tokenized.token.token_id)
            self.stats.tokens_consumed += 1
        else:
            self.stats.consume_rejections += 1
        return tuple(bucket)

    # -- inspection -----------------------------------------------------------

    def consumed_for(self, holder_id: str) -> Tuple[Block, ...]:
        """``get(K, h)`` without side effects."""
        return tuple(self.consumed.get(holder_id, ()))

    def check_fork_coherence(self) -> bool:
        """Theorem 3.2: no holder has more than ``k`` consumed tokens."""
        return all(len(bucket) <= self.k for bucket in self.consumed.values())


def FrugalOracle(k: int, tapes: TapeSet) -> ThetaOracle:
    """Θ_F,k: the frugal oracle with finite consumption cap ``k`` (Def. 3.5)."""
    if k == math.inf:
        raise ValueError("use ProdigalOracle for k = ∞")
    return ThetaOracle(k=k, tapes=tapes)


def ProdigalOracle(tapes: TapeSet) -> ThetaOracle:
    """Θ_P: the prodigal oracle — Θ_F with ``k = ∞`` (Definition 3.6)."""
    return ThetaOracle(k=math.inf, tapes=tapes)


# ---------------------------------------------------------------------------
# Value-semantics ADT view (Figure 6 transition walks, sequential spec).
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


@dataclass(frozen=True)
class ThetaState:
    """Immutable oracle state ``({tape positions}, K, k)`` for the ADT view."""

    seed: int
    probabilities: Tuple[Tuple[str, float], ...]
    positions: Tuple[Tuple[str, int], ...]
    consumed: Tuple[Tuple[str, Tuple[str, ...]], ...]  # holder → token ids
    k: float

    def position_of(self, merit_id: str) -> int:
        return dict(self.positions).get(merit_id, 0)

    def probability_of(self, merit_id: str) -> float:
        return dict(self.probabilities)[merit_id]

    def bucket(self, holder_id: str) -> Tuple[str, ...]:
        return dict(self.consumed).get(holder_id, ())


class ThetaADT(ADT[ThetaState]):
    """Θ as a transducer — Definitions 3.5/3.6 verbatim, value semantics.

    Outputs: ``getToken`` yields a :class:`TokenizedBlock` or ``None``;
    ``consumeToken`` yields the (token-id tuple of) ``K[h]`` after the op.
    """

    def __init__(self, k: float, seed: int, merits: Dict[str, float]) -> None:
        self.k = k
        self.seed = seed
        self.merits = dict(merits)

    def initial_state(self) -> ThetaState:
        return ThetaState(
            seed=self.seed,
            probabilities=tuple(sorted(self.merits.items())),
            positions=tuple((m, 0) for m in sorted(self.merits)),
            consumed=(),
            k=self.k,
        )

    def accepts_symbol(self, symbol: Any) -> bool:
        return isinstance(symbol, (GetToken, ConsumeToken))

    def transition(self, state: ThetaState, symbol: Any) -> ThetaState:
        if isinstance(symbol, GetToken):
            positions = tuple(
                (m, p + 1 if m == symbol.merit_id else p) for m, p in state.positions
            )
            return replace(state, positions=positions)
        if isinstance(symbol, ConsumeToken):
            holder = symbol.tokenized.holder_id
            token_id = symbol.tokenized.token.token_id
            bucket = state.bucket(holder)
            if token_id in bucket or len(bucket) >= state.k:
                return state
            consumed = dict(state.consumed)
            consumed[holder] = bucket + (token_id,)
            return replace(state, consumed=tuple(sorted(consumed.items())))
        raise ValueError(f"unknown symbol {symbol!r}")

    def output(self, state: ThetaState, symbol: Any) -> Any:
        if isinstance(symbol, GetToken):
            merit_id = symbol.merit_id
            position = state.position_of(merit_id)
            if not tape_cell(
                state.seed, merit_id, position, state.probability_of(merit_id)
            ):
                return None
            token = mint_token(state.seed, merit_id, position, symbol.holder_id)
            concrete = attach_descriptor(symbol.descriptor, symbol.holder_id)
            return TokenizedBlock(block=concrete, token=token)
        if isinstance(symbol, ConsumeToken):
            # δ returns get(K, h) *after* the add — mirror the transition.
            next_state = self.transition(state, symbol)
            return next_state.bucket(symbol.tokenized.holder_id)
        raise ValueError(f"unknown symbol {symbol!r}")
