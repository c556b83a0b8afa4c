"""Frontier fast-sync tests (:mod:`repro.net.sync`).

Units for the frontier/diff arithmetic, then end-to-end
:class:`SyncManager` runs over :class:`PassiveNode` networks: a late
joiner catching up byte-identically, batch bounding, timeout → backoff →
peer rotation, and graceful degradation back to plain gossip when every
attempt is exhausted.
"""

from __future__ import annotations

from dataclasses import replace

from repro._util import prf_uint64
from repro.blocktree.block import GENESIS, make_block
from repro.blocktree.tree import BlockTree
from repro.net.channels import SynchronousChannel
from repro.net.process import Network
from repro.net.reconcile import wire_size
from repro.net.simulator import Simulator
from repro.net.sync import (
    SYNC_BLOCKS,
    SYNC_DIFF,
    SYNC_FRONTIER,
    Frontier,
    frontier_of,
    known_ids,
    missing_ids,
)
from repro.protocols.base import PassiveNode
from repro.protocols.bitcoin import run_bitcoin
from repro.workloads.scenarios import ProtocolScenario, TreeScenario


def grow_chain(tree: BlockTree, n: int, parent=GENESIS, tag: str = "c"):
    """Append a linear chain of ``n`` blocks to ``tree``; returns them."""
    blocks = []
    for i in range(n):
        parent = make_block(parent, label=f"{tag}{i}")
        tree.add_block(parent)
        blocks.append(parent)
    return blocks


def forky_fill(tree: BlockTree, n_blocks: int, seed: int = 11):
    """Fill ``tree`` with a deterministic forky workload."""
    blocks = list(
        TreeScenario(
            name="fill", n_blocks=n_blocks, seed=seed, fork_rate=0.08, fork_window=4
        ).blocks()
    )
    for block in blocks:
        tree.add_block(block)
    return blocks


def sync_network(n_nodes: int = 2, seed: int = 3, **overrides):
    """A network of passive replicas wired for sync tests."""
    scenario = ProtocolScenario(
        name="sync-net", n_nodes=n_nodes, duration=600.0, **overrides
    )
    sim = Simulator(seed=seed)
    net = Network(sim, channel=SynchronousChannel(delta=scenario.channel_delta))
    nodes = [
        net.register(PassiveNode(name, scenario)) for name in scenario.node_names()
    ]
    return sim, net, nodes


class TestFrontier:
    def test_frontier_summarizes_tips(self):
        tree = BlockTree()
        a = grow_chain(tree, 3, tag="a")
        b = make_block(a[0], label="fork")
        tree.add_block(b)
        frontier = frontier_of(tree)
        assert frontier == Frontier(tips=tree.leaf_ids())

    def test_tip_cap_keeps_the_tallest(self):
        tree = BlockTree()
        tall = grow_chain(tree, 5, tag="tall")[-1]
        for i in range(6):
            tree.add_block(make_block(GENESIS, label=f"stub{i}"))
        frontier = frontier_of(tree, max_tips=3)
        assert len(frontier.tips) == 3
        assert tall.block_id in frontier.tips

    def test_wire_bytes_counts_every_tip(self):
        tree = BlockTree()
        grow_chain(tree, 2)
        small = frontier_of(tree)
        tree.add_block(make_block(GENESIS, label="extra-leaf"))
        large = frontier_of(tree)
        assert large.wire_bytes() > small.wire_bytes()
        # wire_size must pick up the modelled encoding, not the repr.
        assert wire_size((SYNC_FRONTIER, "p1/s1", small)) >= small.wire_bytes()

    def test_frontier_is_hashable_cache_key(self):
        tree = BlockTree()
        grow_chain(tree, 2)
        assert frontier_of(tree) == frontier_of(tree)
        assert {frontier_of(tree): "cached"}


class TestDiffArithmetic:
    def _pair(self, extra: int = 10):
        """A server tree strictly ahead of a client tree."""
        server, client = BlockTree(), BlockTree()
        shared = grow_chain(server, 5, tag="s")
        for block in shared:
            client.add_block(block)
        grow_chain(server, extra, parent=shared[-1], tag="gap")
        return server, client

    def test_known_ids_covers_the_shared_prefix(self):
        server, client = self._pair()
        known = known_ids(server, frontier_of(client))
        assert known == set(client.iter_ids())

    def test_missing_is_the_exact_set_difference(self):
        server, client = self._pair(extra=12)
        missing = missing_ids(server, frontier_of(client))
        assert set(missing) == set(server.iter_ids()) - set(client.iter_ids())

    def test_missing_is_parent_before_child(self):
        server, client = self._pair(extra=12)
        missing = missing_ids(server, frontier_of(client))
        position = {bid: i for i, bid in enumerate(missing)}
        for bid in missing:
            parent = server.parent_id(bid)
            assert parent in known_ids(
                server, frontier_of(client)
            ) or position[parent] < position[bid]

    def test_height_band_filters(self):
        server, client = self._pair(extra=12)
        band = missing_ids(server, frontier_of(client), lo=7, hi=10)
        assert band
        assert all(7 <= server.height(bid) < 10 for bid in band)

    def test_foreign_tips_never_shrink_the_diff(self):
        # A client-private block the server has never seen must not make
        # the server believe the client knows more than it does.
        server, client = self._pair()
        client.add_block(make_block(GENESIS, label="private"))
        missing = missing_ids(server, frontier_of(client))
        assert set(missing) == set(server.iter_ids()) - set(client.iter_ids())


class TestSyncEndToEnd:
    def test_late_joiner_catches_up_byte_identical(self):
        sim, net, (server, client) = sync_network()
        forky_fill(server.tree, 300)
        client.offline = True
        net.start()
        sim.schedule_at(5.0, client.lifecycle_join)
        sim.run(until=120.0)
        assert client.tree.freeze() == server.tree.freeze()
        assert client.sync.state == "done"
        assert client.metrics["sync"]["syncs_started"] == 1
        assert client.metrics["sync"]["syncs_completed"] == 1
        assert client.metrics["sync"]["blocks_synced"] == 300
        assert client.metrics["sync"]["catch_up_s"] > 0
        assert client.metrics["sync"]["bytes_received"] > 0
        assert server.metrics["sync"]["blocks_served"] == 300

    def test_batches_are_bounded_by_sync_batch(self):
        sim, net, (server, client) = sync_network(sync_batch=10)
        grow_chain(server.tree, 45)
        client.offline = True
        net.start()
        sim.schedule_at(1.0, client.lifecycle_join)
        sim.run(until=120.0)
        assert client.tree.freeze() == server.tree.freeze()
        # 45 blocks in batches of 10: FRONTIER, 5×RANGE, confirm FRONTIER.
        assert client.metrics["sync"]["messages_sent"] == 7
        assert client.metrics["sync"]["blocks_synced"] == 45
        assert server.metrics["sync"]["blocks_served"] == 45

    def test_sync_converges_while_the_chain_grows(self):
        sim, net, (server, client) = sync_network(sync_batch=16)
        tip = grow_chain(server.tree, 80)[-1]
        client.offline = True
        net.start()
        sim.schedule_at(2.0, client.lifecycle_join)
        # Mid-sync the server's chain keeps growing; the confirm round
        # must pick up the fresh suffix.
        sim.schedule_at(4.0, lambda: grow_chain(server.tree, 20, parent=tip, tag="new"))
        sim.run(until=200.0)
        assert client.tree.freeze() == server.tree.freeze()
        assert client.sync.state == "done"
        assert client.metrics["sync"]["blocks_synced"] == 100
        assert client.sync.rounds >= 2

    def test_start_sync_is_single_flight(self):
        sim, net, (server, client) = sync_network()
        grow_chain(server.tree, 10)
        net.start()
        assert client.sync.start_sync() is True
        assert client.sync.start_sync() is False  # already in flight
        sim.run(until=60.0)
        assert client.metrics["sync"]["syncs_started"] == 1
        assert client.metrics["sync"]["syncs_completed"] == 1

    def test_timeouts_exhaust_then_degrade_to_gossip(self):
        # channel_delta=0.5 derives a 2.0 s timeout and a 1.0 s backoff.
        sim, net, (server, client) = sync_network(channel_delta=0.5)
        client.sync.max_attempts = 3
        grow_chain(server.tree, 20)
        server.offline = True  # every request is lost
        net.start()
        sim.schedule_at(1.0, client.sync.start_sync)
        sim.run(until=100.0)
        assert client.sync.state == "failed"
        assert client.metrics["sync"]["syncs_failed"] == 1
        assert client.metrics["sync"]["timeouts"] == 3
        assert client.metrics["sync"]["retries"] == 2
        # Graceful degradation: the replica still listens to gossip.
        block = make_block(GENESIS, label="gossiped")
        client.deliver_block_body("p0", block)
        assert block.block_id in client.tree

    def test_rotation_finds_a_live_peer(self):
        sim, net, nodes = sync_network(n_nodes=3, channel_delta=0.5)
        client, servers = nodes[0], nodes[1:]
        for server in servers:
            forky_fill(server.tree, 60)
        # Kill exactly the peer the PRF will pick first; the retry must
        # rotate to the surviving server and complete.
        scenario = client.scenario
        cursor = prf_uint64("sync-peer", scenario.seed, client.name, 1) % 2
        dead = servers[cursor]
        dead.offline = True
        net.start()
        sim.schedule_at(1.0, client.sync.start_sync)
        sim.run(until=200.0)
        assert client.sync.state == "done"
        assert client.metrics["sync"]["timeouts"] >= 1
        assert client.metrics["sync"]["syncs_completed"] == 1
        live = [s for s in servers if s is not dead][0]
        assert client.tree.freeze() == live.tree.freeze()


class TestSyncEvidence:
    def test_range_reply_piggybacks_the_servers_evidence(self):
        sim, net, (server, client) = sync_network(auth=True)
        parent = GENESIS
        for i in range(5):
            parent = server.auth.sign_block(make_block(parent, label=f"s{i}"), "p0")
            server.tree.add_block(parent)
        # p0 signs two rivals on one parent: the server holds the evidence.
        key = server.auth.keypair_for("p0")
        rivals = [make_block(GENESIS, label=name, creator=0) for name in "ab"]
        a, b = (replace(r, signature=key.sign("block", r.block_id)) for r in rivals)
        assert server.auth.check_block(a) == "ok"
        assert server.auth.check_block(b) == "equivocation"
        (evidence,) = server.auth.evidence.values()
        sent = []
        send = server.send
        server.send = lambda dst, message: (sent.append(message), send(dst, message))
        client.offline = True
        net.start()
        sim.schedule_at(1.0, client.lifecycle_join)
        sim.run(until=60.0)
        assert client.tree.freeze() == server.tree.freeze()
        assert client.auth.banned_ids == {a.block_id, b.block_id}
        replies = [m for m in sent if m[0] in (SYNC_DIFF, SYNC_BLOCKS)]
        (blocks_reply,) = [m for m in replies if m[0] == SYNC_BLOCKS]
        assert blocks_reply[4] == (evidence,)
        assert server.metrics["sync"]["bytes_sent"] == sum(map(wire_size, replies))
        # The evidence is charged whole: framing, signer, parent, both rivals.
        assert wire_size(evidence) == 4 + 3 + 8 + wire_size(a) + wire_size(b)


class TestSyncStatsPlumbing:
    def test_fault_free_runs_report_no_sync_stats(self):
        scenario = ProtocolScenario(
            name="quiet", n_nodes=3, duration=40.0, mean_block_interval=8.0
        )
        run = run_bitcoin(scenario)
        assert run.sync_stats() == {}

    def test_totals_sum_per_node_counters(self):
        sim, net, (server, client) = sync_network()
        grow_chain(server.tree, 25)
        client.offline = True
        net.start()
        sim.schedule_at(1.0, client.lifecycle_join)
        sim.run(until=120.0)
        per_node = {n.name: dict(n.metrics["sync"]) for n in (server, client)}
        assert per_node[client.name]["syncs_completed"] == 1
        total_msgs = sum(s["messages_sent"] for s in per_node.values())
        assert total_msgs == (
            per_node[server.name]["messages_sent"]
            + per_node[client.name]["messages_sent"]
        )
        assert per_node[server.name]["blocks_served"] == 25
