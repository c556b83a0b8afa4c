"""Tests for Network/SimProcess, flooding gossip, LRC and Update Agreement."""

import pytest

from repro.blocktree.block import GENESIS, make_block
from repro.net import (
    LossyChannel,
    MessageDropAdversary,
    Network,
    PartitionAdversary,
    SimProcess,
    Simulator,
    SynchronousChannel,
    check_lrc,
    check_update_agreement,
)
from repro.protocols.base import PassiveNode
from repro.workloads.scenarios import GOSSIP_TAG, ProtocolScenario


class Echo(SimProcess):
    """Collects every message it receives."""

    def __init__(self, name):
        super().__init__(name)
        self.received = []

    def on_message(self, src, message):
        self.received.append((src, message))


def gossip_network(n=4, channel=None, seed=1):
    """Passive replicas on the forward-once flood transport."""
    scenario = ProtocolScenario(name="flood", n_nodes=n, duration=100.0, gossip="flood")
    sim = Simulator(seed=seed)
    net = Network(sim, channel=channel or SynchronousChannel())
    nodes = [
        net.register(PassiveNode(name, scenario)) for name in scenario.node_names()
    ]
    return sim, net, nodes


def publish(node, label):
    """``node`` authors a block on genesis: announce it, then adopt it."""
    block = make_block(GENESIS, label=label, creator=node.index)
    node.announce_block(block)
    node.adopt_block(block, relay=False)
    return block


def delivered(node):
    """The blocks ``node`` holds besides genesis."""
    return [b for b in node.tree.blocks() if not b.is_genesis]


class TestNetwork:
    def test_send_delivers(self):
        sim = Simulator(seed=1)
        net = Network(sim)
        a, b = net.register(Echo("a")), net.register(Echo("b"))
        sim.schedule(0.0, lambda: a.send("b", "hello"))
        sim.run()
        assert b.received == [("a", "hello")]

    def test_broadcast_excludes_self_by_default(self):
        sim = Simulator(seed=1)
        net = Network(sim)
        nodes = [net.register(Echo(f"p{i}")) for i in range(3)]
        sim.schedule(0.0, lambda: nodes[0].broadcast("x"))
        sim.run()
        assert nodes[0].received == []
        assert all(n.received == [("p0", "x")] for n in nodes[1:])

    def test_fifo_per_pair(self):
        sim = Simulator(seed=3)
        net = Network(sim, channel=SynchronousChannel(delta=5.0, min_delay=0.1))
        a, b = net.register(Echo("a")), net.register(Echo("b"))

        def burst():
            for i in range(20):
                a.send("b", i)

        sim.schedule(0.0, burst)
        sim.run()
        payloads = [m for _, m in b.received]
        assert payloads == sorted(payloads)

    def test_crashed_process_neither_sends_nor_receives(self):
        sim = Simulator(seed=1)
        net = Network(sim)
        a, b = net.register(Echo("a")), net.register(Echo("b"))
        net.crash("b", at=0.0)
        sim.schedule(1.0, lambda: a.send("b", "x"))
        sim.run()
        assert b.received == []
        assert net.correct_processes() == ["a"]

    def test_duplicate_name_rejected(self):
        net = Network(Simulator())
        net.register(Echo("a"))
        with pytest.raises(ValueError):
            net.register(Echo("a"))

    def test_timer_fires(self):
        sim = Simulator(seed=1)
        net = Network(sim)

        class Timed(SimProcess):
            def __init__(self, name):
                super().__init__(name)
                self.fired = []

            def on_start(self):
                self.call_later(2.0, self.tick, "tick")

            def tick(self, tag):
                self.fired.append((tag, self.now))

        t = net.register(Timed("t"))
        net.start()
        sim.run()
        assert t.fired == [("tick", 2.0)]

    def test_message_counters(self):
        sim = Simulator(seed=1)
        net = Network(sim)
        a, b = net.register(Echo("a")), net.register(Echo("b"))
        sim.schedule(0.0, lambda: a.send("b", "m"))
        sim.run()
        assert net.messages_sent == 1 and net.messages_delivered == 1


class TestFloodingLRC:
    def test_flood_reaches_everyone(self):
        sim, net, nodes = gossip_network(n=5)
        sim.schedule(0.0, lambda: publish(nodes[0], "blk1"))
        sim.run()
        assert all(len(delivered(n)) == 1 for n in nodes)

    def test_publisher_self_delivers(self):
        sim, net, nodes = gossip_network(n=3)
        blocks = []
        sim.schedule(0.0, lambda: blocks.append(publish(nodes[0], "blk1")))
        sim.run()
        assert delivered(nodes[0]) == blocks

    def test_lrc_holds_without_faults(self):
        sim, net, nodes = gossip_network(n=4)
        sim.schedule(0.0, lambda: publish(nodes[1], "blkA"))
        sim.schedule(1.0, lambda: publish(nodes[2], "blkB"))
        sim.run()
        checks = check_lrc(net.recorder.history())
        assert checks["validity"].ok and checks["agreement"].ok

    def test_update_agreement_holds_without_faults(self):
        sim, net, nodes = gossip_network(n=4)
        sim.schedule(0.0, lambda: publish(nodes[0], "blk1"))
        sim.run()
        checks = check_update_agreement(net.recorder.history())
        assert all(c.ok for c in checks.values())

    def test_drop_adversary_breaks_r3_and_agreement(self):
        blk1 = make_block(GENESIS, label="blk1", creator=0)
        adversary = MessageDropAdversary(
            matcher=lambda s, d, m: d == "p3" and m[:2] == (GOSSIP_TAG, blk1.block_id)
        )
        channel = LossyChannel(SynchronousChannel(), adversary)
        sim, net, nodes = gossip_network(n=4, channel=channel)
        sim.schedule(0.0, lambda: publish(nodes[0], "blk1"))
        sim.run()
        assert adversary.dropped >= 1
        correct = [n.name for n in nodes]
        checks = check_update_agreement(net.recorder.history(), correct)
        assert not checks["R3"].ok
        lrc = check_lrc(net.recorder.history(), correct)
        assert not lrc["agreement"].ok

    def test_partition_adversary_blocks_cross_traffic(self):
        adversary = PartitionAdversary(
            groups=(frozenset({"p0", "p1"}), frozenset({"p2", "p3"})),
        )
        channel = LossyChannel(SynchronousChannel(), adversary)
        sim, net, nodes = gossip_network(n=4, channel=channel)
        sim.schedule(0.0, lambda: publish(nodes[0], "blk1"))
        sim.run()
        assert len(delivered(nodes[1])) == 1
        assert len(delivered(nodes[2])) == 0
        assert adversary.dropped > 0

    def test_partition_heals(self):
        adversary = PartitionAdversary(
            groups=(frozenset({"p0", "p1"}), frozenset({"p2", "p3"})),
            heal_at=10.0,
        )
        channel = LossyChannel(SynchronousChannel(), adversary)
        sim, net, nodes = gossip_network(n=4, channel=channel)
        sim.schedule(20.0, lambda: publish(nodes[0], "late"))
        sim.run()
        assert len(delivered(nodes[2])) == 1

    def test_r2_violation_detected(self):
        # Hand-build a history where an update has no matching receive.
        from repro.histories import HistoryRecorder

        rec = HistoryRecorder()
        rec.instant("i", "send", ("b0", "b1", "i"))
        rec.instant("i", "receive", ("b0", "b1", "i"))
        rec.instant("i", "update", ("b0", "b1", "i"))
        rec.instant("j", "update", ("b0", "b1", "i"))  # no receive at j!
        checks = check_update_agreement(rec.history(), correct_procs=["i", "j"])
        assert checks["R1"].ok
        assert not checks["R2"].ok

    def test_r1_violation_detected(self):
        from repro.histories import HistoryRecorder

        rec = HistoryRecorder()
        rec.instant("i", "update", ("b0", "b1", "i"))  # own block, never sent
        checks = check_update_agreement(rec.history(), correct_procs=["i"])
        assert not checks["R1"].ok
