"""Open-loop client traffic: deterministic submission schedules.

A :class:`ClientTrafficScenario` describes *who submits what, where and
when*: a fleet of clients (each with its own coin namespace and
collision-free :class:`~repro.workloads.transactions.TransactionGenerator`
stream), an aggregate arrival rate, an ingress distribution over
replicas (uniform or skewed toward low-index replicas), and an optional
spam/flood adversary that floods duplicate and double-spending dust
transactions.

The schedule is *open loop*: :meth:`~ClientTrafficScenario
.compile_submissions` (one chain) and :meth:`~ClientTrafficScenario
.compile_shard_submissions` (one schedule per shard) precompute every
``(time, ingress replica, transaction batch)`` event from a
SHA-256-derived seed before the simulation starts, through one Poisson
loop from time 0 to the run's duration, so client load never reacts to
chain state and a serial and a parallel campaign execution of the same
cell see byte-identical traffic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro._util import prf_uint64
from repro.workloads.transactions import (
    Transaction,
    TransactionGenerator,
    default_genesis_coins,
)

__all__ = [
    "Submission",
    "ClientTrafficScenario",
    "traffic_presets",
    "shard_traffic_presets",
]

#: Transactions per honest submission event.
BATCH = 4
#: Pre-minted coins per client (and for the spammer's namespace).
COINS_PER_CLIENT = 6
#: Each client's reserve of coins lockable by cross-shard transfers.
XSHARD_COINS = 12
#: How many times the hot shard's arrival rate exceeds the others'.
HOT_WEIGHT = 4.0
#: Identical copies in one spam flood batch.
SPAM_COPIES = 6


@dataclass(frozen=True)
class Submission:
    """One scheduled client submission: a batch entering one replica."""

    time: float
    ingress: str
    txs: Tuple[Transaction, ...]


@dataclass(frozen=True)
class ClientTrafficScenario:
    """Parameters of an open-loop client workload (see module docstring).

    ``rate`` is the aggregate transaction arrival rate (tx per simulated
    time unit), arriving in batches of :data:`BATCH`.  ``ingress_skew``
    shapes where traffic enters: 0 is uniform, larger values
    concentrate submissions on low-index replicas
    (``weight ∝ 1/(i+1)^skew``).  ``spam_rate`` is the probability a
    submission event is a flood: :data:`SPAM_COPIES` duplicates of a
    zero-fee double-spending transaction.  ``pool_capacity`` bounds the
    replica pools of runs driven by this traffic.

    Sharded runs (``repro.shard``) add: ``cross_shard_fraction`` — the
    probability a submission is a cross-shard LOCK instead of a local
    batch; ``lock_timeout`` — how long a LOCK stays valid before the
    destination shard must abort it; ``hot_shard`` — one shard receiving
    :data:`HOT_WEIGHT`× the per-shard arrival rate.  ``shard``/``shards``
    scope a *facet*'s view: when ``shard >= 0``, :meth:`genesis_coins`
    returns only the coins of clients hashing to that shard.  The
    defaults leave the single-chain pipeline byte-identical.
    """

    name: str
    rate: float = 2.0
    n_clients: int = 8
    fee_mean: float = 10.0
    ingress_skew: float = 0.0
    spam_rate: float = 0.0
    pool_capacity: int = 1024
    cross_shard_fraction: float = 0.0
    lock_timeout: float = 60.0
    hot_shard: int = -1
    shard: int = -1  # -1 → unsharded view (all clients)
    shards: int = 1

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if not self.name:
            raise ValueError("traffic scenario needs a name")
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.n_clients < 1:
            raise ValueError("n_clients must be >= 1")
        if self.fee_mean < 0:
            raise ValueError("fee_mean must be >= 0")
        if self.ingress_skew < 0:
            raise ValueError("ingress_skew must be >= 0")
        if not 0.0 <= self.spam_rate <= 1.0:
            raise ValueError("spam_rate must be in [0, 1]")
        if self.pool_capacity < 0:
            raise ValueError("pool_capacity must be >= 0")
        if not 0.0 <= self.cross_shard_fraction <= 1.0:
            raise ValueError("cross_shard_fraction must be in [0, 1]")
        if self.lock_timeout <= 0:
            raise ValueError("lock_timeout must be positive")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.shard < -1 or self.shard >= self.shards:
            raise ValueError("shard must be -1 or in [0, shards)")
        if self.hot_shard < -1 or self.hot_shard >= self.shards:
            raise ValueError("hot_shard must be -1 or in [0, shards)")

    # -- coin universe -------------------------------------------------------

    def client_names(self) -> Tuple[str, ...]:
        return tuple(f"client{i}" for i in range(self.n_clients))

    def clients_of_shard(self, shard: int) -> Tuple[str, ...]:
        """The clients whose coins live on ``shard`` (PRF-hashed)."""
        from repro.shard.assignment import shard_of_user

        return tuple(
            client
            for client in self.client_names()
            if shard_of_user(client, self.shards) == shard
        )

    def genesis_coins(self) -> Tuple[str, ...]:
        """The union of every client's pre-minted coins.

        Replica pools and validators are seeded with this universe so
        client transactions are chain-valid from the first block.  A
        shard facet (``shard >= 0``) sees only the coins of clients
        hashing to that shard, plus their cross-shard lock reserve when
        the workload issues cross-shard transfers.
        """
        if self.shard >= 0:
            clients = self.clients_of_shard(self.shard)
            if not clients:
                raise ValueError(
                    f"no client hashes to shard {self.shard} of {self.shards} "
                    f"(n_clients={self.n_clients}); raise n_clients"
                )
        else:
            clients = self.client_names()
        coins: List[str] = []
        for client in clients:
            coins.extend(default_genesis_coins(COINS_PER_CLIENT, client))
            if self.cross_shard_fraction > 0:
                coins.extend(default_genesis_coins(XSHARD_COINS, f"{client}.x"))
        if self.spam_rate:
            # The flood adversary owns its own namespace: spam never
            # consumes (or corrupts the lineage of) honest client coins.
            coins.extend(default_genesis_coins(COINS_PER_CLIENT, "spammer"))
        return tuple(coins)

    # -- schedule ------------------------------------------------------------

    def _generators(
        self, clients: Tuple[str, ...], seed: int
    ) -> Dict[str, TransactionGenerator]:
        return {
            client: TransactionGenerator(
                seed=prf_uint64("traffic-client", seed, self.name, client),
                issuers=(client,),
                fee_mean=self.fee_mean,
                genesis_coins=default_genesis_coins(COINS_PER_CLIENT, client),
            )
            for client in clients
        }

    def _schedule(
        self,
        rng: random.Random,
        rate: float,
        horizon: float,
        clients: Tuple[str, ...],
        node_names: Tuple[str, ...],
        make_txs: Callable[[str, float], Tuple[Transaction, ...]],
    ) -> Tuple[Submission, ...]:
        """The Poisson loop both schedules share: events ``rate / BATCH``
        per time unit from time 0 until ``horizon``, each drawing its
        arrival gap, its client and its ingress replica from ``rng`` in
        that order, then ``make_txs(client, now)`` for its batch."""
        if self.ingress_skew <= 0:
            weights = [1.0] * len(node_names)
        else:
            weights = [
                1.0 / ((i + 1) ** self.ingress_skew) for i in range(len(node_names))
            ]
        events: List[Submission] = []
        now = 0.0
        while True:
            now += rng.expovariate(rate / BATCH)
            if now >= horizon:
                break
            client = clients[rng.randrange(len(clients))]
            ingress = rng.choices(node_names, weights=weights, k=1)[0]
            events.append(Submission(now, ingress, make_txs(client, now)))
        return tuple(events)

    def compile_submissions(
        self, node_names: Tuple[str, ...], seed: int, duration: float
    ) -> Tuple[Submission, ...]:
        """The full deterministic submission schedule for one run.

        ``seed`` is the protocol scenario's seed; the traffic stream is
        derived from it through the SHA-256 PRF (own stream per cell,
        independent of the simulator's RNG).  Events arrive
        Poisson-style at ``rate``, each carrying :data:`BATCH`
        transactions from a deterministically chosen client (or a spam
        flood), entering at a deterministically chosen replica.
        """
        if not node_names:
            raise ValueError("traffic needs at least one ingress replica")
        rng = random.Random(prf_uint64("traffic", seed, self.name))
        clients = self.client_names()
        generators = self._generators(clients, seed)
        spammer = TransactionGenerator(
            seed=prf_uint64("traffic-spammer", seed, self.name),
            issuers=("spammer",),
            fee_mean=0.0,
            genesis_coins=default_genesis_coins(COINS_PER_CLIENT, "spammer"),
        )

        def make_txs(client: str, now: float) -> Tuple[Transaction, ...]:
            if self.spam_rate and rng.random() < self.spam_rate:
                return _spam_batch(spammer, rng)
            return generators[client].batch(BATCH)

        return self._schedule(rng, self.rate, duration, clients, node_names, make_txs)

    # -- sharded schedule ----------------------------------------------------

    def compile_shard_submissions(
        self,
        members: Dict[int, Tuple[str, ...]],
        seed: int,
        duration: float,
    ) -> Dict[int, Tuple[Submission, ...]]:
        """Per-shard deterministic submission schedules for one run.

        ``members`` maps each shard id to the replicas running it
        (:meth:`ProtocolScenario.shard_members`); a shard's submissions
        enter only those replicas.
        ``rate`` is interpreted *per shard*, so aggregate offered load
        scales with the shard count; ``hot_shard`` receives
        :data:`HOT_WEIGHT`× that rate.  With probability
        ``cross_shard_fraction`` an event is a single cross-shard LOCK
        spending one coin from the issuing client's reserve, aimed at a
        PRF-chosen other shard with ``expiry = now + lock_timeout``;
        LOCK generation stops ``lock_timeout`` before the horizon so
        every transfer can settle inside the run.
        """
        if self.spam_rate:
            raise ValueError("spam traffic is single-shard only")
        if set(members) != set(range(self.shards)):
            raise ValueError(f"members must cover shards 0..{self.shards - 1}")
        return {
            k: self._compile_one_shard(k, members[k], seed, duration)
            for k in range(self.shards)
        }

    def _compile_one_shard(
        self, shard: int, node_names: Tuple[str, ...], seed: int, duration: float
    ) -> Tuple[Submission, ...]:
        from repro.shard.records import make_lock

        if not node_names:
            raise ValueError(f"shard {shard} has no replica")
        clients = self.clients_of_shard(shard)
        if not clients:
            raise ValueError(
                f"no client hashes to shard {shard} of {self.shards}; raise n_clients"
            )
        rng = random.Random(prf_uint64("shard-traffic", seed, self.name, shard))
        generators = self._generators(clients, seed)
        lock_horizon = duration - self.lock_timeout
        reserve_used = {client: 0 for client in clients}

        def make_txs(client: str, now: float) -> Tuple[Transaction, ...]:
            cross = (
                self.shards > 1
                and self.cross_shard_fraction > 0
                and now < lock_horizon
                and reserve_used[client] < XSHARD_COINS
                and rng.random() < self.cross_shard_fraction
            )
            if not cross:
                return generators[client].batch(BATCH)
            dst = rng.randrange(self.shards - 1)
            if dst >= shard:
                dst += 1
            coin = default_genesis_coins(XSHARD_COINS, f"{client}.x")[
                reserve_used[client]
            ]
            reserve_used[client] += 1
            fee = rng.expovariate(1.0 / self.fee_mean) if self.fee_mean > 0 else 0.0
            return (make_lock((coin,), shard, dst, now + self.lock_timeout, fee=fee),)

        rate = self.rate * (HOT_WEIGHT if shard == self.hot_shard else 1.0)
        return self._schedule(rng, rate, duration, clients, node_names, make_txs)


def _spam_batch(
    spammer: TransactionGenerator, rng: random.Random
) -> Tuple[Transaction, ...]:
    """A flood batch: zero-fee double spends, duplicated.

    The spammer re-spends a coin *its own* earlier transaction already
    consumed (a pool-level double spend every replica must filter) and
    submits :data:`SPAM_COPIES` identical copies (duplicate relay
    pressure).  Until the spammer has spent something, it floods
    duplicated zero-fee spends from its own namespace — never a draw
    from an honest client's generator, whose coin lineage would
    otherwise hinge on a spam transaction committing.
    """
    spent = spammer._spent
    if spent:
        coin = spent[rng.randrange(len(spent))]
        tx = Transaction.make(
            (coin,), (f"spam-{rng.getrandbits(48):012x}",), "spammer", fee=0.0
        )
    else:
        tx = spammer.next_transaction()
    return (tx,) * SPAM_COPIES


def traffic_presets() -> Dict[str, ClientTrafficScenario]:
    """The standard single-chain client workloads: a steady load and a
    spam flood against small pools."""
    return {
        "steady": ClientTrafficScenario(name="steady", rate=2.0),
        "spam-flood": ClientTrafficScenario(
            name="spam-flood",
            rate=3.0,
            spam_rate=0.5,
            pool_capacity=128,
            fee_mean=6.0,
        ),
    }


def shard_traffic_presets(
    duration: float = 240.0, n_shards: int = 4
) -> Dict[str, ClientTrafficScenario]:
    """The sharded client workloads (uniform / hot-shard skew).

    ``rate`` is per shard; ``lock_timeout`` is sized at 40% of the run
    so it exceeds every lifecycle-preset outage window (a partitioned
    destination heals before honest locks expire) while still letting
    timeout-driven aborts fire inside the run when a destination shard
    genuinely stalls.  ``shard-hot`` drives one shard at
    :data:`HOT_WEIGHT`× the per-shard rate with skewed ingress — the
    hot-shard stress from the campaign presets.
    """
    n_clients = max(8, 4 * n_shards)
    common = dict(
        rate=2.0,
        n_clients=n_clients,
        cross_shard_fraction=0.05,
        lock_timeout=duration * 0.4,
        shards=n_shards,
    )
    return {
        "shard-uniform": ClientTrafficScenario(name="shard-uniform", **common),
        "shard-hot": ClientTrafficScenario(
            name="shard-hot", hot_shard=0, ingress_skew=2.5, **common
        ),
    }
