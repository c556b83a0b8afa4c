"""The block-store backends and the checkpoint/prune lifecycle.

Three layers of coverage:

* the :class:`~repro.storage.base.BlockStore` contract, parametrized
  over every backend (round-trip equality, idempotent puts, scan order,
  checkpoints, the factory grammar);
* differential tests: trees grown through each backend produce
  byte-identical fork-choice reads and frozen snapshots;
* the prune lifecycle: bounded hot set, faulting, ancestry queries and
  materialized deep reads on evicted prefixes, replica semantics.
"""

import dataclasses
import math
import pickle

import pytest

from repro.blocktree import (
    GENESIS,
    BlockTree,
    GHOSTSelection,
    HeaviestChain,
    LongestChain,
    PrunePolicy,
    make_block,
)
from repro.blocktree.block import Block
from repro.crypto.signatures import Signature
from repro.storage import (
    STORE_KINDS,
    AppendOnlyLogStore,
    CheckpointRecord,
    InMemoryStore,
    SQLiteStore,
    StoreError,
    decode_block,
    encode_block,
    open_store,
)
from repro.workloads.scenarios import TreeScenario

RULES = [LongestChain(), HeaviestChain(), GHOSTSelection()]


@pytest.fixture(params=sorted(STORE_KINDS))
def store(request, tmp_path):
    """One instance of every backend, file-backed under tmp_path."""
    kind = request.param
    if kind == "memory":
        yield InMemoryStore()
    elif kind == "log":
        s = AppendOnlyLogStore(str(tmp_path / "blocks.btlog"))
        yield s
        s.close()
    else:
        s = SQLiteStore(str(tmp_path / "blocks.db"))
        yield s
        s.close()


def _chain_blocks(n, parent=GENESIS, weight=1.0, payload=()):
    blocks = []
    for i in range(n):
        block = make_block(parent, label=f"b{i}", payload=payload, weight=weight)
        blocks.append(block)
        parent = block
    return blocks


# -- the BlockStore contract ---------------------------------------------------


def test_store_roundtrip_value_identity(store):
    block = make_block(GENESIS, label="x", payload=(1, ("tx", 2.5), "s"), creator=3,
                       nonce=7, weight=0.125)
    store.put(block)
    got = store.get(block.block_id)
    assert got == block  # dataclass equality: every field, payload included
    assert got.payload == (1, ("tx", 2.5), "s")
    assert block.block_id in store
    assert "missing" not in store
    with pytest.raises(KeyError):
        store.get("missing")


def test_store_put_is_idempotent(store):
    block = make_block(GENESIS, label="x")
    store.put(block)
    store.put(block)
    assert len(store) == 1


def test_store_scan_preserves_append_order(store):
    blocks = _chain_blocks(50)
    for block in blocks:
        store.put(block)
    assert [b.block_id for b in store.scan()] == [b.block_id for b in blocks]


def test_store_checkpoint_roundtrip(store):
    assert store.last_checkpoint() is None
    first = CheckpointRecord(block_id="a", height=3, block_count=5, note="one")
    second = CheckpointRecord(block_id="b", height=9, block_count=12)
    store.put_checkpoint(first)
    store.put_checkpoint(second)
    assert store.last_checkpoint() == second


def test_open_store_factory_grammar(tmp_path):
    assert isinstance(open_store("memory"), InMemoryStore)
    assert isinstance(open_store("sqlite"), SQLiteStore)  # :memory: default
    log = open_store("log", path=str(tmp_path / "a.btlog"))
    assert isinstance(log, AppendOnlyLogStore)
    log.close()
    inline = open_store(f"log:{tmp_path / 'b.btlog'}")
    assert isinstance(inline, AppendOnlyLogStore)
    inline.close()
    with pytest.raises(ValueError):
        open_store("bogus")
    with pytest.raises(ValueError):
        open_store("log")  # a log store is its file
    with pytest.raises(ValueError):
        open_store("memory", path="/tmp/nope")


def test_encode_decode_block_is_stable():
    """Every field of ``Block`` round-trips — the signature witness too
    (it is excluded from content ids, so only this codec carries it)."""
    unsigned = make_block(GENESIS, label="x", payload=("tx", 42), creator=1, weight=2.0)
    signed = dataclasses.replace(unsigned, signature=Signature("p1", "d1g35t"))
    for block in (unsigned, signed):
        restored = decode_block(encode_block(block))
        for f in dataclasses.fields(Block):
            assert getattr(restored, f.name) == getattr(block, f.name), f.name
        assert restored == block


def test_codec_stores_exactly_the_block_fields():
    """The stored record is the dataclass's field list, nothing else:
    a block whose every field holds its own name stores that name set."""
    names = [f.name for f in dataclasses.fields(Block)]
    stored = pickle.loads(encode_block(Block(*names)))
    assert sorted(stored) == sorted(names)


def test_durable_stores_refuse_copy(tmp_path):
    log = AppendOnlyLogStore(str(tmp_path / "c.btlog"))
    with pytest.raises(StoreError):
        log.copy()
    log.close()
    mem = InMemoryStore()
    block = make_block(GENESIS, label="x")
    mem.put(block)
    clone = mem.copy()
    mem.put(make_block(GENESIS, label="y"))
    assert len(clone) == 1 and block.block_id in clone


# -- trees through stores: differential ---------------------------------------


def _sampled_reads(tree_factory, scenario, every=199):
    tree = tree_factory()
    samples = {rule.name: [] for rule in RULES}
    for i, block in enumerate(scenario.blocks()):
        tree.add_block(block)
        if i % every == 0:
            for rule in RULES:
                chain = rule.select(tree)
                samples[rule.name].append((chain.tip_id, chain.height))
    return tree, samples


def test_tree_reads_identical_across_backends(tmp_path):
    scenario = TreeScenario(
        name="diff", n_blocks=3000, fork_rate=0.08, fork_window=6,
        weight_profile="heavytail",
    )
    ref_tree, ref = _sampled_reads(BlockTree, scenario)
    backends = {
        "log": lambda: BlockTree(store=AppendOnlyLogStore(str(tmp_path / "d.btlog"))),
        "sqlite": lambda: BlockTree(store=SQLiteStore(str(tmp_path / "d.db"))),
    }
    for name, factory in backends.items():
        tree, samples = _sampled_reads(factory, scenario)
        assert samples == ref, f"{name} reads diverged"
        assert tree.freeze() == ref_tree.freeze(), f"{name} edges diverged"
        tree._store.close()


def test_tree_scenario_build_accepts_store_specs(tmp_path):
    scenario = TreeScenario(name="spec", n_blocks=200)
    tree = scenario.build(store=f"log:{tmp_path / 'spec.btlog'}")
    assert len(tree) == 201
    tree._store.close()
    with pytest.raises(ValueError):
        scenario.build(tree=BlockTree(), store="memory")


# -- the prune lifecycle -------------------------------------------------------


def _pruned_pair(tmp_path, n=4000, cap=400, margin=16):
    scenario = TreeScenario(name="prune", n_blocks=n, fork_rate=0.05, fork_window=6)
    select = LongestChain().select
    reference = scenario.build(on_block=lambda t, b: select(t))
    pruned = scenario.build(
        store=AppendOnlyLogStore(str(tmp_path / "prune.btlog")),
        prune=PrunePolicy(hot_cap=cap, recent_reads=8, finality_margin=margin),
        on_block=lambda t, b: select(t),
    )
    return reference, pruned


def test_prune_bounds_hot_set_and_preserves_reads(tmp_path):
    reference, pruned = _pruned_pair(tmp_path)
    assert pruned.prune_count > 0 and pruned.evicted_total > 0
    assert pruned.peak_resident <= 400
    assert pruned.resident_count < len(pruned)
    assert len(pruned) == len(reference)
    ref_chain = LongestChain().select(reference)
    got_chain = LongestChain().select(pruned)
    assert (got_chain.tip_id, got_chain.height) == (ref_chain.tip_id, ref_chain.height)
    # Materializing across the evicted prefix faults value-identical blocks.
    assert got_chain.block_ids() == ref_chain.block_ids()
    assert list(got_chain) == list(ref_chain)
    assert pruned.fault_count > 0
    pruned._store.close()


def test_prune_keeps_membership_ancestry_and_freeze(tmp_path):
    reference, pruned = _pruned_pair(tmp_path)
    assert len(pruned) == len(reference)
    assert pruned.freeze() == reference.freeze()
    # Evicted blocks are still members with working index queries.
    deep_ids = [b.block_id for b in reference.blocks()][1:50]
    tip = LongestChain().select(pruned).tip_id
    for bid in deep_ids:
        assert bid in pruned
        assert pruned.height(bid) == reference.height(bid)
        assert pruned.is_ancestor(bid, tip) == reference.is_ancestor(bid, tip)
        assert pruned.get(bid) == reference.get(bid)  # faults from the log
    assert pruned.lca(deep_ids[5], tip) == reference.lca(deep_ids[5], tip)
    pruned._store.close()


def test_prune_writes_checkpoint_records(tmp_path):
    _, pruned = _pruned_pair(tmp_path)
    record = pruned._store.last_checkpoint()
    assert record is not None
    assert record.block_id == pruned.checkpoint_id
    assert record.height == pruned.checkpoint_height > 0
    assert pruned.is_ancestor(
        pruned.checkpoint_id, LongestChain().select(pruned).tip_id
    )
    pruned._store.close()


def test_failed_chain_to_does_not_poison_prune_lifecycle(tmp_path):
    """A KeyError probe via chain_to must not enter the read window."""
    tree = BlockTree(
        store=AppendOnlyLogStore(str(tmp_path / "poison.btlog")),
        prune=PrunePolicy(hot_cap=8, recent_reads=4, retry_interval=1),
    )
    parent = GENESIS
    select = LongestChain().select
    for i in range(4):
        block = make_block(parent, label=f"p{i}")
        tree.add_block(block)
        select(tree)
        parent = block
    with pytest.raises(KeyError):
        tree.chain_to("unknown-id")
    # Enough appends to force prune attempts over the read window; the
    # bogus id must not be in it, so these never raise.
    for i in range(40):
        block = make_block(parent, label=f"q{i}")
        tree.add_block(block)
        select(tree)
        parent = block
    assert tree.prune_count > 0
    tree._store.close()


def test_checkpoint_refuses_conflicting_branch(tmp_path):
    """Finality is monotone: a checkpoint never jumps across branches."""
    tree = BlockTree(
        store=AppendOnlyLogStore(str(tmp_path / "fork.btlog")),
        prune=PrunePolicy(hot_cap=10_000),
    )
    a = [make_block(GENESIS, label="a0")]
    b = [make_block(GENESIS, label="b0")]
    for i in range(1, 6):
        a.append(make_block(a[-1], label=f"a{i}"))
        b.append(make_block(b[-1], label=f"b{i}"))
    for block in a + b:
        tree.add_block(block)
    tree.checkpoint(a[2].block_id)
    # Same height on the other branch: not an extension -> refused.
    with pytest.raises(ValueError):
        tree.checkpoint(b[2].block_id)
    # Higher block on the conflicting branch: still refused.
    with pytest.raises(ValueError):
        tree.checkpoint(b[5].block_id)
    tree.checkpoint(a[4].block_id)  # extending the prefix is fine
    assert tree.checkpoint_height == 5
    tree._store.close()


def test_build_store_honors_inline_spec_path(tmp_path):
    from repro.workloads.scenarios import ProtocolScenario

    scenario = ProtocolScenario(name="x", store=f"log:{tmp_path}")
    store = scenario.build_store("p7")
    store.put(make_block(GENESIS, label="x"))
    store.close()
    assert (tmp_path / "p7.btlog").exists()


def test_manual_checkpoint_refuses_regression(tmp_path):
    tree = BlockTree(
        store=AppendOnlyLogStore(str(tmp_path / "m.btlog")),
        prune=PrunePolicy(hot_cap=10_000),
    )
    blocks = _chain_blocks(10)
    for block in blocks:
        tree.add_block(block)
    tree.checkpoint(blocks[5].block_id)
    assert tree.checkpoint_height == 6
    with pytest.raises(ValueError):
        tree.checkpoint(blocks[2].block_id)
    with pytest.raises(KeyError):
        tree.checkpoint("missing")
    tree._store.close()


def test_prune_policy_validation():
    with pytest.raises(ValueError):
        PrunePolicy(hot_cap=1)
    with pytest.raises(ValueError):
        PrunePolicy(hot_cap=10, recent_reads=0)
    with pytest.raises(ValueError):
        PrunePolicy(hot_cap=10, finality_margin=-1)
    assert PrunePolicy(hot_cap=800).effective_retry() == max(64, 100)


def test_ghost_selection_survives_pruning(tmp_path):
    """GHOST's lazy weight backlog must not depend on evicted Block objects."""
    scenario = TreeScenario(
        name="ghost-prune", n_blocks=3000, burst_every=32, burst_width=4
    )
    select = GHOSTSelection().select
    long_select = LongestChain().select
    reference = scenario.build(on_block=lambda t, b: long_select(t))
    pruned = scenario.build(
        store=AppendOnlyLogStore(str(tmp_path / "g.btlog")),
        prune=PrunePolicy(hot_cap=300, finality_margin=8),
        on_block=lambda t, b: long_select(t),
    )
    assert pruned.evicted_total > 0
    # The first GHOST read flushes the whole backlog post-eviction.
    ref_chain = select(reference)
    got_chain = select(pruned)
    assert (got_chain.tip_id, got_chain.height) == (ref_chain.tip_id, ref_chain.height)
    assert pruned.subtree_weight(GENESIS.block_id) == reference.subtree_weight(
        GENESIS.block_id
    )
    pruned._store.close()


def test_scenario_store_knob_validation():
    from repro.workloads.scenarios import ProtocolScenario

    with pytest.raises(ValueError):
        ProtocolScenario(name="x", store="bogus")
    with pytest.raises(ValueError):
        ProtocolScenario(name="x", prune_hot_cap=1)
    with pytest.raises(ValueError):
        ProtocolScenario(name="x", store="memory", prune_hot_cap=64)
    scenario = ProtocolScenario(name="x", store="log", prune_hot_cap=64)
    assert scenario.build_prune().hot_cap == 64
    assert ProtocolScenario(name="x").build_prune() is None
    assert isinstance(ProtocolScenario(name="x").build_store("p0"), InMemoryStore)


def test_protocol_run_on_durable_store(tmp_path, monkeypatch):
    """One short bitcoin run per durable backend, identical final chains."""
    from repro.protocols.base import ProtocolRun
    from repro.protocols.bitcoin import BitcoinNode
    from repro.workloads.scenarios import ProtocolScenario

    # A shallow confirmation depth, so an 18-block run does checkpoint.
    monkeypatch.setattr(ProtocolScenario, "PRUNE_MARGIN", 2)

    def final(scenario):
        run = ProtocolRun.execute(BitcoinNode, scenario)
        return (
            {k: (c.tip_id, c.height) for k, c in run.final_chains().items()},
            run.storage_stats(),
        )

    base = dict(name="bitcoin", n_nodes=3, duration=90.0, mean_block_interval=6.0)
    ref, _ = final(ProtocolScenario(**base))
    got, stats = final(
        ProtocolScenario(
            **base,
            store="log",
            store_dir=str(tmp_path),
            prune_hot_cap=8,
        )
    )
    assert got == ref
    assert all(s["blocks"] > 1 for s in stats.values())
    assert all(s["prune_count"] for s in stats.values())
    assert (tmp_path / "p0.btlog").exists()


def test_copy_requires_copyable_store(tmp_path):
    tree = BlockTree(store=AppendOnlyLogStore(str(tmp_path / "copy.btlog")))
    tree.add_block(make_block(GENESIS, label="a"))
    with pytest.raises(StoreError):
        tree.copy()
    tree._store.close()
    plain = BlockTree()
    plain.add_block(make_block(GENESIS, label="a"))
    clone = plain.copy()
    clone.add_block(make_block(GENESIS, label="b"))
    assert len(plain) == 2 and len(clone) == 3


def test_stats_shape():
    tree = BlockTree()
    for block in _chain_blocks(5):
        tree.add_block(block)
    stats = tree.stats()
    assert stats["blocks"] == 6 and stats["resident"] == 6
    assert stats["fault_count"] == 0 and stats["prune_count"] == 0
    assert math.isfinite(stats["checkpoint_height"])
