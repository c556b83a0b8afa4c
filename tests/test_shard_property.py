"""Hypothesis properties for the sharding layer (``repro.shard``).

Two families:

* **Assignment** — ``shard_of_user`` is a pure PRF of ``(user, K)``:
  stable under arbitrary replica churn (the replica set is not even an
  input), in-range, and balanced — at 10k users no shard carries more
  than 2× the uniform share.
* **Two-phase atomicity** — end-to-end sharded runs under
  Hypothesis-chosen adversarial scheduling (seed, lock timeout,
  channel delay, churn outages) never violate the
  composed invariant: every expired LOCK commits or aborts (or is
  provably still in flight), and value is conserved on the raw final
  chains — the escrow coin is spent at most once, the transferred coin
  and the decision coin are minted at most once, and no transfer both
  commits and releases.

The record-derivation property (independently-acting replicas build
byte-identical decision bodies) rides along: it is what makes
pool-level dedup collapse duplicate decisions.
"""

import dataclasses

from hypothesis import example, given, settings, strategies as st

from repro.shard.assignment import shard_of_user
from repro.shard.records import (
    make_abort,
    make_commit,
    make_lock,
    make_release,
    parse_record,
)
from repro.shard.run import execute_sharded
from repro.workloads.scenarios import AdversarialScenario, ChurnEvent
from repro.workloads.traffic import ClientTrafficScenario

# -- assignment ----------------------------------------------------------------

users_strategy = st.lists(
    st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz0123456789-_.",
        min_size=1,
        max_size=16,
    ),
    min_size=1,
    max_size=40,
    unique=True,
)


@given(
    users=users_strategy,
    n_shards=st.integers(min_value=1, max_value=16),
    replicas_before=st.integers(min_value=1, max_value=64),
    replicas_after=st.integers(min_value=1, max_value=64),
)
@settings(max_examples=80, deadline=None)
def test_assignment_stable_under_replica_churn(
    users, n_shards, replicas_before, replicas_after
):
    """The user→shard map never depends on the replica population."""
    # The replica set is not an input: the assignment is the same pure
    # function before and after any churn.
    before = {user: shard_of_user(user, n_shards) for user in users}
    after = {user: shard_of_user(user, n_shards) for user in users}
    assert before == after
    assert all(0 <= shard < n_shards for shard in before.values())


@given(
    n_shards=st.integers(min_value=2, max_value=16),
    prefix=st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=8
    ),
)
@settings(max_examples=15, deadline=None)
def test_assignment_balanced_at_10k_users(n_shards, prefix):
    """At 10k users every shard holds ≤ 2× the uniform share."""
    n_users = 10_000
    counts = [0] * n_shards
    for i in range(n_users):
        counts[shard_of_user(f"{prefix}{i}", n_shards)] += 1
    assert sum(counts) == n_users
    uniform = n_users / n_shards
    assert max(counts) <= 2 * uniform, (
        f"shard load {max(counts)} exceeds 2× uniform ({uniform}) "
        f"for K={n_shards}, prefix={prefix!r}"
    )
    # No shard starves either (PRF, not a pathological constant).
    assert min(counts) > 0


# -- record derivation ---------------------------------------------------------


@given(
    coins=st.lists(
        st.text(alphabet="abcdef0123456789", min_size=4, max_size=12),
        min_size=1,
        max_size=4,
        unique=True,
    ),
    src=st.integers(min_value=0, max_value=7),
    dst=st.integers(min_value=0, max_value=7),
    expiry=st.floats(
        min_value=1.0, max_value=1e6, allow_nan=False, allow_infinity=False
    ),
    fee=st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
)
@settings(max_examples=120, deadline=None)
def test_records_derive_deterministically_from_lock(coins, src, dst, expiry, fee):
    """Independent replicas derive byte-identical decision records."""
    lock = make_lock(coins, src, dst, expiry, fee=fee)
    meta = parse_record(lock)
    assert meta is not None and meta.kind == "lock"
    assert (meta.src_shard, meta.dst_shard, meta.expiry) == (src, dst, expiry)
    for maker in (make_commit, make_abort, make_release):
        a, b = maker(lock), maker(lock)
        assert a.tx_id == b.tx_id, f"{maker.__name__} is not deterministic"
    # Decision uniqueness is a UTXO fact: both decisions mint xdec-tid.
    assert set(make_commit(lock).outputs) & set(make_abort(lock).outputs)
    # Release single-spends the escrow the lock minted.
    assert make_release(lock).inputs == lock.outputs


# -- two-phase atomicity under adversarial scheduling --------------------------


def _adversarial_scenario(seed, lock_frac, delta, outage):
    duration = 120.0
    traffic = ClientTrafficScenario(
        name="xshard-prop",
        rate=1.5,
        n_clients=8,
        shards=2,
        cross_shard_fraction=0.3,
        lock_timeout=duration * lock_frac,
    )
    churn = ()
    if outage:
        churn = (
            ChurnEvent(
                node="p3", leave_at=duration * 0.3, rejoin_at=duration * 0.6
            ),
        )
    return AdversarialScenario(
        name="xshard-prop",
        n_nodes=4,
        duration=duration,
        mean_block_interval=8.0,
        # Room for the offered load (1.5 tx/s per shard ≈ 12 per 8 s
        # block).  At the default 3 per block the pools back up 4×, the
        # fee auction starves low-fee LOCKs, and on rare schedules no
        # LOCK is ever mined: the run never reaches the two-phase path.
        tx_per_block=16,
        channel_delta=delta,
        seed=seed,
        shards=2,
        traffic=traffic,
        churn=churn,
    )


def _conservation_on_chains(run):
    """Raw-chain value conservation, independent of the checker."""
    spends = {}  # escrow coin → times spent across majority chains
    mints = {}  # record coin → times minted
    for chain in run.final_majority_chains().values():
        for block in chain.blocks:
            for tx in block.payload:
                meta = parse_record(tx)
                if meta is None:
                    continue
                for coin in tx.inputs:
                    if coin.startswith("xlock-"):
                        spends[coin] = spends.get(coin, 0) + 1
                for coin in tx.outputs:
                    if coin.startswith(("xlock-", "xc-", "xdec-")):
                        mints[coin] = mints.get(coin, 0) + 1
    for coin, n in spends.items():
        assert n <= 1, f"escrow {coin} spent {n} times (value duplicated)"
    for coin, n in mints.items():
        assert n <= 1, f"coin {coin} minted {n} times (value created)"


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    lock_frac=st.sampled_from((0.15, 0.3, 0.6)),
    delta=st.sampled_from((0.5, 1.0, 2.5)),
    outage=st.booleans(),
)
@settings(max_examples=8, deadline=None)
# Both of its LOCKs lost the fee auction when blocks held 3 transactions.
@example(seed=33142, lock_frac=0.6, delta=0.5, outage=False)
def test_two_phase_atomicity_under_adversarial_scheduling(
    seed, lock_frac, delta, outage
):
    """Every expired LOCK decides; no schedule duplicates value."""
    scenario = _adversarial_scenario(seed, lock_frac, delta, outage)
    run = execute_sharded(scenario)
    report = run.atomicity()
    assert report.ok, report.violations
    # Non-vacuous: the workload actually exercised the two-phase path.
    assert report.counts["locks"] + report.counts["pending"] > 0
    # Every decided-and-settled abort was released or is still pending;
    # every commit kept the escrow burned.  (Both are what report.ok
    # asserts — re-stated here on the raw chains.)
    _conservation_on_chains(run)


def test_k1_identity_is_exact():
    """K=1 'sharded' execution is the single-chain pipeline, verbatim."""
    scenario = dataclasses.replace(
        _adversarial_scenario(7, 0.3, 1.0, False),
        shards=1,
        traffic=dataclasses.replace(
            _adversarial_scenario(7, 0.3, 1.0, False).traffic,
            shards=1,
            cross_shard_fraction=0.0,
        ),
    )
    from repro.protocols.base import ProtocolRun
    from repro.protocols.bitcoin import BitcoinNode

    sharded = execute_sharded(scenario)
    direct = ProtocolRun.execute(BitcoinNode, scenario)
    chains_a = {
        n.name: tuple(b.block_id for b in n.selection.select(n.tree).blocks)
        for n in sharded.nodes
    }
    chains_b = {
        n.name: tuple(b.block_id for b in n.selection.select(n.tree).blocks)
        for n in direct.nodes
    }
    assert chains_a == chains_b
    # ...and so is every measurement: both are the same fold over the
    # same pipelines (a single chain has no shard_stats).
    for surface in (
        "mempool_stats",
        "sync_stats",
        "auth_stats",
        "gossip_stats",
        "storage_stats",
        "shard_stats",
        "node_heights",
        "node_fork_degrees",
        "max_fork_degree",
        "unknown_append_resolutions",
    ):
        assert getattr(sharded, surface)() == getattr(direct, surface)(), surface
    assert type(sharded) is type(direct)
    assert sharded.events_executed == direct.events_executed
    assert sharded.mempool_stats()["committed"]["txs"] > 0
