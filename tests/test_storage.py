"""The block-store backends and the trees that write through them.

Two layers of coverage:

* the :class:`~repro.storage.base.BlockStore` contract, parametrized
  over both backends (round-trip equality, idempotent puts, scan order,
  the factory grammar);
* differential tests: a tree grown through the log store produces
  byte-identical fork-choice reads and frozen snapshots, and a protocol
  run on the log store ends on the chains of the in-memory run.
"""

import dataclasses
import pickle

import pytest

from repro.blocktree.block import GENESIS, Block, make_block
from repro.blocktree.selection import GHOSTSelection, HeaviestChain, LongestChain
from repro.blocktree.tree import BlockTree
from repro.crypto.signatures import Signature
from repro.storage import STORE_KINDS, open_store
from repro.storage.base import StoreError, decode_block, encode_block
from repro.storage.logstore import AppendOnlyLogStore
from repro.storage.memory import InMemoryStore
from repro.workloads.scenarios import TreeScenario

RULES = [LongestChain(), HeaviestChain(), GHOSTSelection()]


@pytest.fixture(params=sorted(STORE_KINDS))
def store(request, tmp_path):
    """One instance of every backend, file-backed under tmp_path."""
    kind = request.param
    if kind == "memory":
        yield InMemoryStore()
    else:
        s = AppendOnlyLogStore(str(tmp_path / "blocks.btlog"))
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


def test_open_store_factory_grammar(tmp_path):
    assert isinstance(open_store("memory"), InMemoryStore)
    log = open_store("log", path=str(tmp_path / "a.btlog"))
    assert isinstance(log, AppendOnlyLogStore)
    log.close()
    with pytest.raises(ValueError):
        open_store("bogus")
    with pytest.raises(ValueError, match="log"):  # one durable backend
        open_store("sqlite", path=str(tmp_path / "b.db"))
    with pytest.raises(ValueError):  # the location is ``path``, not the kind
        open_store(f"log:{tmp_path / 'c.btlog'}")
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
    tree, samples = _sampled_reads(
        lambda: BlockTree(store=AppendOnlyLogStore(str(tmp_path / "d.btlog"))),
        scenario,
    )
    assert samples == ref, "log reads diverged"
    assert tree.freeze() == ref_tree.freeze(), "log edges diverged"
    tree._store.close()


def test_tree_scenario_build_accepts_store_specs(tmp_path):
    scenario = TreeScenario(name="spec", n_blocks=200)
    tree = scenario.build(store=open_store("log", path=str(tmp_path / "spec.btlog")))
    assert len(tree) == 201
    tree._store.close()
    with pytest.raises(ValueError):
        scenario.build(tree=BlockTree(), store=InMemoryStore())


def test_build_store_honors_store_dir(tmp_path):
    from repro.workloads.scenarios import ProtocolScenario

    scenario = ProtocolScenario(name="x", store="log", store_dir=str(tmp_path))
    store = scenario.build_store("p7")
    store.put(make_block(GENESIS, label="x"))
    store.close()
    assert (tmp_path / "p7.btlog").exists()


def test_scenario_store_is_a_keyword_not_a_path():
    """``kind:directory`` would be a file to ``open_store`` but a
    directory to the scenario; the directory belongs in ``store_dir``."""
    from repro.workloads.scenarios import ProtocolScenario

    with pytest.raises(ValueError, match="store_dir"):
        ProtocolScenario(name="x", store="log:/x")


def test_durable_store_needs_a_directory():
    """Without ``store_dir`` each replica's log would land in a temp
    directory that nothing removes; the scenario refuses instead."""
    from repro.workloads.scenarios import ProtocolScenario

    with pytest.raises(ValueError, match="store_dir.*--workdir"):
        ProtocolScenario(name="x", store="log")


def test_scenario_store_knob_validation(tmp_path):
    from repro.workloads.scenarios import ProtocolScenario

    with pytest.raises(ValueError):
        ProtocolScenario(name="x", store="bogus")
    scenario = ProtocolScenario(name="x", store="log", store_dir=str(tmp_path))
    log = scenario.build_store("p0")
    assert isinstance(log, AppendOnlyLogStore)
    log.close()
    assert isinstance(ProtocolScenario(name="x").build_store("p0"), InMemoryStore)


def test_protocol_run_on_durable_store(tmp_path):
    """One short bitcoin run per durable backend, identical final chains."""
    from repro.protocols.base import ProtocolRun
    from repro.protocols.bitcoin import BitcoinNode
    from repro.workloads.scenarios import ProtocolScenario

    def final(scenario):
        run = ProtocolRun.execute(BitcoinNode, scenario)
        return (
            {k: (c.tip_id, c.height) for k, c in run.final_chains().items()},
            run.storage_stats(),
        )

    base = dict(name="bitcoin", n_nodes=3, duration=90.0, mean_block_interval=6.0)
    ref, _ = final(ProtocolScenario(**base))
    got, stats = final(ProtocolScenario(**base, store="log", store_dir=str(tmp_path)))
    assert got == ref
    assert all(s["blocks"] > 1 for s in stats.values())
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
    assert tree.stats() == {"blocks": 6}
