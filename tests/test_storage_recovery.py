"""Crash recovery: kill/reopen an AppendOnlyLogStore mid-scenario.

The log store's recovery contract (``logstore.py`` module docstring):
every record fully written before a crash survives; a torn tail — a
partial head, a short body, or a CRC-corrupted body — is truncated on
reopen and the store keeps working.  These tests kill a scenario run at
an arbitrary block, mutilate the log tail the way a crash would, replay
the survivors into a fresh tree and assert its reads match the
uninterrupted run block for block.
"""

import os

import pytest

from repro.blocktree import BlockTree, LongestChain, PrunePolicy, make_block
from repro.blocktree.block import GENESIS
from repro.net import Network, Simulator, SynchronousChannel
from repro.protocols.base import PassiveNode
from repro.storage import AppendOnlyLogStore, StoreError
from repro.storage.logstore import _HEAD, _MAGIC
from repro.workloads.scenarios import ProtocolScenario, TreeScenario

SCENARIO = TreeScenario(name="crash", n_blocks=2000, fork_rate=0.06, fork_window=5)
KILL_AT = 1312  # an arbitrary mid-scenario block index


def _read_after_each_block(tree, blocks):
    """Grow ``tree`` and return the (tip id, height) verdict per append."""
    select = LongestChain().select
    verdicts = []
    for block in blocks:
        tree.add_block(block)
        chain = select(tree)
        verdicts.append((chain.tip_id, chain.height))
    return verdicts


@pytest.fixture
def uninterrupted():
    """The oracle: the same scenario run start-to-finish in RAM."""
    return _read_after_each_block(BlockTree(), SCENARIO.blocks())


def test_kill_and_reopen_matches_uninterrupted_run(tmp_path, uninterrupted):
    path = str(tmp_path / "crash.btlog")
    blocks = list(SCENARIO.blocks())

    # Phase 1: run up to the kill point, then "crash" (drop all state
    # without closing; the OS file survives, the process memory doesn't).
    store = AppendOnlyLogStore(path)
    tree = BlockTree(store=store, prune=PrunePolicy(hot_cap=300, finality_margin=8))
    before_kill = _read_after_each_block(tree, blocks[:KILL_AT])
    assert before_kill == uninterrupted[:KILL_AT]
    store.flush()  # the crash happens after the last durability point
    del tree, store

    # Phase 2: reopen, replay, and verify the rebuilt tree answers the
    # kill-point read exactly like the uninterrupted run did.
    reopened = AppendOnlyLogStore(path)
    rebuilt = BlockTree.replay(
        reopened, prune=PrunePolicy(hot_cap=300, finality_margin=8)
    )
    assert len(rebuilt) == KILL_AT + 1
    # Recovery itself runs under the bounded hot set (synthetic reads
    # during replay drive the prune lifecycle) — a replica sized for the
    # cap must not need the whole tree resident just to reboot.
    assert rebuilt.peak_resident <= 300
    chain = LongestChain().select(rebuilt)
    assert (chain.tip_id, chain.height) == uninterrupted[KILL_AT - 1]
    # The checkpoint marker survives the crash too.
    assert rebuilt.checkpoint_height > 0
    assert reopened.last_checkpoint().block_id == rebuilt.checkpoint_id

    # Phase 3: finish the scenario on the rebuilt tree; every remaining
    # read must match the run that never crashed.
    after = _read_after_each_block(rebuilt, blocks[KILL_AT:])
    assert after == uninterrupted[KILL_AT:]
    reopened.close()


def _store_with_chain(path, n=40):
    store = AppendOnlyLogStore(path)
    parent = GENESIS
    blocks = []
    for i in range(n):
        block = make_block(parent, label=f"c{i}")
        store.put(block)
        blocks.append(block)
        parent = block
    store.flush()
    return store, blocks


@pytest.mark.parametrize("torn_bytes", [1, _HEAD.size - 1, _HEAD.size + 3])
def test_torn_tail_is_truncated_on_reopen(tmp_path, torn_bytes):
    """A record cut anywhere — head or body — rolls back to the prefix."""
    path = str(tmp_path / "torn.btlog")
    store, blocks = _store_with_chain(path)
    store.close()
    full_size = os.path.getsize(path)

    # Simulate a crash mid-write: append a record prefix that never
    # finished (torn head and torn body variants).
    with open(path, "ab") as fh:
        record = _HEAD.pack(b"B", 1000, 12345) + b"x" * 64
        fh.write(record[:torn_bytes])

    reopened = AppendOnlyLogStore(path)
    assert len(reopened) == len(blocks)  # every complete record survived
    assert os.path.getsize(path) == full_size  # the torn tail is gone
    # The log keeps accepting appends after recovery.
    extra = make_block(blocks[-1], label="post-crash")
    reopened.put(extra)
    reopened.flush()
    assert reopened.get(extra.block_id) == extra
    reopened.close()


def test_corrupt_crc_tail_is_dropped(tmp_path):
    path = str(tmp_path / "crc.btlog")
    store, blocks = _store_with_chain(path)
    store.close()
    # Flip one byte in the *last* record's body: CRC now fails, so the
    # reopen must drop exactly that record and keep the prefix.
    with open(path, "r+b") as fh:
        fh.seek(-1, os.SEEK_END)
        last = fh.read(1)
        fh.seek(-1, os.SEEK_END)
        fh.write(bytes([last[0] ^ 0xFF]))
    reopened = AppendOnlyLogStore(path)
    assert len(reopened) == len(blocks) - 1
    assert blocks[-1].block_id not in reopened
    assert blocks[-2].block_id in reopened
    reopened.close()


def test_bad_magic_is_refused(tmp_path):
    path = tmp_path / "notalog.btlog"
    path.write_bytes(b"definitely not a block log" + b"\x00" * 32)
    with pytest.raises(StoreError):
        AppendOnlyLogStore(str(path))


def test_reopen_empty_file_starts_fresh(tmp_path):
    path = tmp_path / "empty.btlog"
    path.write_bytes(b"")
    store = AppendOnlyLogStore(str(path))
    assert len(store) == 0
    store.put(make_block(GENESIS, label="a"))
    store.close()
    reopened = AppendOnlyLogStore(str(path))
    assert len(reopened) == 1
    reopened.close()
    assert path.read_bytes().startswith(_MAGIC)


def test_unflushed_tail_may_be_lost_but_prefix_survives(tmp_path):
    """Without a flush, the OS buffer may hold the tail — after closing
    abruptly via the raw fd the replay still recovers a consistent prefix."""
    path = str(tmp_path / "unflushed.btlog")
    store, blocks = _store_with_chain(path, n=30)
    # Append more blocks but *only* flush the Python buffer, then reopen
    # from the bytes on disk (a same-machine crash loses nothing that
    # reached the page cache, so all 35 survive here; the point is the
    # replay accepts whatever prefix is on disk).
    parent = blocks[-1]
    for i in range(5):
        block = make_block(parent, label=f"u{i}")
        store.put(block)
        parent = block
    store.flush()
    store.close()
    reopened = AppendOnlyLogStore(path)
    assert len(reopened) >= 30
    reopened.close()


def _sync_crash_run(tmp_path, crash_at, recover_at, n_blocks=60):
    """A late joiner on a durable log store fast-syncing ``n_blocks``,
    optionally crashing mid-RANGE and recovering from its own log."""
    scenario = ProtocolScenario(
        name="sync-crash",
        n_nodes=2,
        duration=200.0,
        store="log",
        store_dir=str(tmp_path),
        sync_batch=8,
    )
    sim = Simulator(seed=9)
    net = Network(sim, channel=SynchronousChannel(delta=scenario.channel_delta))
    server, client = (
        net.register(PassiveNode(name, scenario)) for name in scenario.node_names()
    )
    fill = TreeScenario(name="sync-fill", n_blocks=n_blocks, fork_rate=0.05)
    for block in fill.blocks():
        server.tree.add_block(block)
    client.offline = True
    net.start()
    sim.schedule_at(2.0, client.lifecycle_join)
    at_crash = {}
    if crash_at is not None:

        def crash():
            at_crash["blocks"] = len(client.tree) - 1  # minus genesis
            client.lifecycle_crash()

        sim.schedule_at(crash_at, crash)
        sim.schedule_at(recover_at, client.lifecycle_recover)
    sim.run(until=200.0)
    return server, client, at_crash


def test_crash_mid_sync_resumes_byte_identical(tmp_path):
    """Kill the syncing replica between RANGE batches, reopen its log
    store, and let the resumed sync finish: the final tree must be
    byte-identical to an uninterrupted sync of the same scenario."""
    oracle_server, oracle, _ = _sync_crash_run(
        tmp_path / "uninterrupted", crash_at=None, recover_at=None
    )
    assert oracle.tree.freeze() == oracle_server.tree.freeze()

    # With delta=1 and batch=8, batches land every 2s from t≈6: t=9.5
    # falls squarely between RANGE responses — a mid-sync crash.
    server, client, at_crash = _sync_crash_run(
        tmp_path / "crashed", crash_at=9.5, recover_at=20.0
    )
    assert 0 < at_crash["blocks"] < 60  # the sync really was in flight
    assert client.sync_totals["syncs_started"] >= 2  # join + post-recovery
    assert client.sync_totals["syncs_completed"] >= 1
    assert client.tree.freeze() == server.tree.freeze()
    assert client.tree.freeze() == oracle.tree.freeze()
    # The durable log carried the pre-crash prefix across the restart
    # and kept absorbing the resumed sync.
    client.tree._store.flush()
    reopened = AppendOnlyLogStore(str(tmp_path / "crashed" / "p1.btlog"))
    assert len(reopened) == 60
    reopened.close()


@pytest.mark.parametrize("store", ["log", "sqlite"])
def test_signatures_survive_crash_recovery(tmp_path, store):
    """A recovered replica replays — and then serves — *signed* blocks.

    p2 and p0 crash and recover from their durable stores, then p1
    joins and fast-syncs the whole chain from them: a codec dropping
    ``Block.signature`` makes the joiner reject every served block as
    ``block:unsigned`` and end the run far behind.
    """
    from repro.protocols.bitcoin import run_bitcoin
    from repro.workloads.scenarios import AdversarialScenario, CrashEvent, JoinEvent

    run = run_bitcoin(
        AdversarialScenario(
            name="signed-recovery",
            n_nodes=3,
            seed=5,
            duration=600.0,
            mean_block_interval=10.0,
            auth=True,
            store=store,
            store_dir=str(tmp_path),
            crashes=(
                CrashEvent(node="p2", at=200.0, recover_at=250.0),
                CrashEvent(node="p0", at=300.0, recover_at=330.0),
            ),
            joins=(JoinEvent(node="p1", at=400.0),),
        )
    )
    assert run.auth_stats()["totals"].get("block:unsigned", 0) == 0
    for node in run.nodes:
        unsigned = [
            b.short()
            for b in node.tree.blocks()
            if not b.is_genesis and b.signature is None
        ]
        assert not unsigned, (node.name, unsigned)
    heights = {height for _, height in run.node_heights()}
    assert len(heights) == 1 and heights.pop() > 0
    assert run.sync_stats()["per_node"]["p1"]["blocks_synced"] > 0
