"""UTXO-style synthetic transactions and contextual block validity.

A :class:`Transaction` consumes *coins* (opaque string ids) and mints new
ones.  A block's payload is a tuple of transactions; a chain is valid
when every consumed coin was minted earlier (or is a genesis coin) and no
coin is spent twice — the double-spend rule the paper cites as Bitcoin's
instantiation of ``P``.

:class:`TransactionGenerator` draws a deterministic stream of valid
transactions from a seeded RNG, and can inject double spends at a chosen
rate to exercise the validity machinery.  Minted coin ids are
*content-derived* (``sha256(seed, counter, inputs)``, the outpoint idea):
two mints can only share an id by being the same transaction, so coin
ids stay collision-free even when a reorg makes a minting block stale
and the client re-issues from a rolled-back generator state (the old
``coin-{seed}-{counter}`` scheme re-minted the same id with different
lineage in that situation).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Iterable, List, Optional, Set, Tuple

from repro._util import sha256_hex
from repro.blocktree.chain import Chain

__all__ = [
    "Transaction",
    "TransactionGenerator",
    "ChainValidator",
    "default_genesis_coins",
]


def default_genesis_coins(n: int = 8, namespace: str = "") -> Tuple[str, ...]:
    """The pre-minted coin ids seeding a UTXO universe.

    The default (empty) namespace reproduces the historical
    ``genesis-coin-{i}`` ids; client-traffic scenarios use per-client
    namespaces so independent clients never contend for the same coins.
    """
    prefix = f"genesis-coin-{namespace}-" if namespace else "genesis-coin-"
    return tuple(f"{prefix}{i}" for i in range(n))


@dataclass(frozen=True)
class Transaction:
    """A transfer consuming ``inputs`` and minting ``outputs``.

    ``tx_id`` commits to the content (fee included); coinbase
    transactions have no inputs.  ``fee`` is the priority the mempool
    orders by — higher pays more.

    ``signature`` is witness data (the issuing client's signature over
    the content id when the scenario authenticates).  Like blocks, it is
    excluded from ``stable_repr`` so ``tx_id`` is identical whether or
    not the transaction is signed.

    Every block id and consensus digest that covers a transaction
    encodes it again, and every relay sizes it again, on every replica,
    so ``stable_repr`` and ``wire_size`` memoize their results on the
    instance (``_MEMO``).  The memos are a per-process cache: they are no
    fields, so ``==``, ``hash`` and ``asdict`` never see them, and
    :meth:`__getstate__` keeps them out of pickles (block stores,
    campaign workers).  ``dataclasses.replace`` builds a fresh instance,
    so a signed copy starts without them.
    """

    tx_id: str
    inputs: Tuple[str, ...]
    outputs: Tuple[str, ...]
    issuer: str = ""
    fee: float = 0.0
    signature: Any = None

    _STABLE_REPR_EXCLUDE = ("signature",)
    _MEMO = ("_stable_repr", "_wire_size")

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        for memo in self._MEMO:
            state.pop(memo, None)
        return state

    @staticmethod
    def make(
        inputs: Iterable[str],
        outputs: Iterable[str],
        issuer: str = "",
        fee: float = 0.0,
    ) -> "Transaction":
        """Build a transaction with a content-derived id."""
        ins, outs = tuple(inputs), tuple(outputs)
        return Transaction(
            tx_id=sha256_hex("tx", ins, outs, issuer, fee),
            inputs=ins,
            outputs=outs,
            issuer=issuer,
            fee=fee,
        )


@dataclass
class TransactionGenerator:
    """Deterministic stream of transactions over an evolving coin set.

    ``double_spend_rate`` is the probability that a generated transaction
    re-spends an already-consumed coin (an *invalid* transaction used to
    test rejection paths).  ``fee_mean`` > 0 attaches an exponentially
    distributed fee to every draw (0 keeps the historical fee-less
    stream byte-identical).  ``genesis_coins`` overrides the unspent set
    the stream starts from — client-traffic scenarios give every client
    its own namespace so independent streams never spend each other's
    coins.

    :meth:`snapshot` / :meth:`restore` expose the generator state for
    fork switching: when a reorg strips the blocks a client's recent
    transactions landed in, the client rewinds and re-issues.  Because
    minted coin ids are derived from ``(seed, counter, inputs)``, a
    re-issue that consumes a different coin mints a *different* id — the
    re-minting collision of the positional scheme cannot occur.
    """

    seed: int
    issuers: Tuple[str, ...] = ("alice", "bob", "carol")
    double_spend_rate: float = 0.0
    fee_mean: float = 0.0
    genesis_coins: Optional[Tuple[str, ...]] = None
    _rng: random.Random = field(init=False, repr=False)
    _unspent: List[str] = field(init=False, repr=False)
    _spent: List[str] = field(init=False, repr=False)
    _counter: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)
        coins = (
            self.genesis_coins
            if self.genesis_coins is not None
            else default_genesis_coins()
        )
        self._unspent = list(coins)
        self._spent = []

    def _mint_id(self, inputs: Tuple[str, ...], issuer: str, fee: float) -> str:
        """A collision-free coin id committing to the *full* tx content.

        The id covers everything that distinguishes the transaction —
        seed, counter, consumed inputs, issuer, fee — so two mints can
        only share an id by being byte-identical transactions.  (An id
        over ``(seed, counter)`` alone re-mints after a fork-switch
        rewind; one over ``(seed, counter, inputs)`` still collides
        when a perturbed replay redraws the same input under a shifted
        issuer/fee stream.)
        """
        return "coin-" + sha256_hex(
            "coin", self.seed, self._counter, inputs, issuer, fee
        )[:24]

    def _fee(self) -> float:
        if self.fee_mean <= 0:
            return 0.0
        return round(self._rng.expovariate(1.0 / self.fee_mean), 6)

    def next_transaction(self) -> Transaction:
        """Draw the next transaction (valid unless a double spend fires)."""
        self._counter += 1
        issuer = self._rng.choice(self.issuers)
        if self._spent and self._rng.random() < self.double_spend_rate:
            coin = self._rng.choice(self._spent)
            inputs = (coin,)
            fee = self._fee()
            return Transaction.make(
                inputs, (self._mint_id(inputs, issuer, fee),), issuer, fee
            )
        if not self._unspent:
            # coinbase refill
            fee = self._fee()
            return Transaction.make((), (self._mint_id((), issuer, fee),), issuer, fee)
        coin = self._unspent.pop(self._rng.randrange(len(self._unspent)))
        self._spent.append(coin)
        inputs = (coin,)
        fee = self._fee()
        outputs = (self._mint_id(inputs, issuer, fee),)
        self._unspent.extend(outputs)
        return Transaction.make(inputs, outputs, issuer, fee)

    def batch(self, size: int) -> Tuple[Transaction, ...]:
        """Draw ``size`` transactions."""
        return tuple(self.next_transaction() for _ in range(size))

    # -- fork switching ------------------------------------------------------

    def snapshot(self) -> Tuple[Any, ...]:
        """Opaque generator state (counter, coin sets, RNG state)."""
        return (
            self._counter,
            tuple(self._unspent),
            tuple(self._spent),
            self._rng.getstate(),
        )

    def restore(self, state: Tuple[Any, ...]) -> None:
        """Rewind to a :meth:`snapshot` (the reorg/fork-switch path)."""
        counter, unspent, spent, rng_state = state
        self._counter = counter
        self._unspent = list(unspent)
        self._spent = list(spent)
        self._rng.setstate(rng_state)


class ChainValidator:
    """The contextual validity predicate: no double spends along a chain.

    ``genesis_coins`` seeds the unspent set.  ``chain_valid`` walks a
    whole chain; ``block_valid_in_context`` checks one payload given the
    coins already spent/minted by a prefix (used by nodes validating a
    candidate block against their adopted chain).
    """

    def __init__(self, genesis_coins: Iterable[str] = ()) -> None:
        self.genesis_coins: Set[str] = set(genesis_coins) or set(
            default_genesis_coins()
        )

    def _scan(
        self, transactions: Iterable[Transaction], minted: Set[str], spent: Set[str]
    ) -> bool:
        for tx in transactions:
            for coin in tx.inputs:
                known = coin in minted or coin in self.genesis_coins
                if not known or coin in spent:
                    return False
            for coin in tx.inputs:
                spent.add(coin)
            for coin in tx.outputs:
                if coin in minted:
                    return False  # re-minting an existing coin
                minted.add(coin)
        return True

    def chain_valid(self, chain: Chain) -> bool:
        """Whether the full chain is double-spend free."""
        minted: Set[str] = set()
        spent: Set[str] = set()
        for block in chain.non_genesis():
            if not self._scan(block.payload, minted, spent):
                return False
        return True

    def block_valid_in_context(
        self, prefix: Chain, payload: Iterable[Transaction]
    ) -> bool:
        """Whether ``payload`` is valid when appended after ``prefix``."""
        minted: Set[str] = set()
        spent: Set[str] = set()
        for block in prefix.non_genesis():
            if not self._scan(block.payload, minted, spent):
                return False
        return self._scan(payload, minted, spent)
