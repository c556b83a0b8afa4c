"""Tests for the leader-based ordering service (Hyperledger backbone)."""


from repro.consensus import OrderingService
from repro.net import Network, SimProcess, Simulator, SynchronousChannel


class Orderer(SimProcess):
    def __init__(self, name, cluster, timeout=20.0):
        super().__init__(name)
        self.delivered = []
        self.ordering = OrderingService(
            host=self,
            cluster=cluster,
            on_deliver=lambda seq, batch: self.delivered.append((seq, batch)),
            timeout=timeout,
        )

    def on_start(self):
        self.ordering.start()


def cluster(n=3, seed=1, timeout=20.0):
    sim = Simulator(seed=seed)
    net = Network(sim, channel=SynchronousChannel(delta=1.0))
    names = [f"o{i}" for i in range(n)]
    nodes = [net.register(Orderer(name, names, timeout=timeout)) for name in names]
    net.start()
    return sim, net, nodes


class TestOrderingHappyPath:
    def test_single_batch_delivered_everywhere(self):
        sim, net, nodes = cluster()
        sim.schedule(0.0, lambda: nodes[0].ordering.submit("batch0"))
        sim.run(until=100)
        for node in nodes:
            assert node.delivered == [(0, "batch0")]

    def test_total_order_identical_across_nodes(self):
        sim, net, nodes = cluster()
        for i in range(6):
            submitter = nodes[i % 3]
            sim.schedule(i * 0.5, lambda s=submitter, i=i: s.ordering.submit(f"b{i}"))
        sim.run(until=200)
        sequences = [tuple(n.delivered) for n in nodes]
        assert sequences[0] == sequences[1] == sequences[2]
        seqs = [s for s, _ in nodes[0].delivered]
        assert seqs == sorted(seqs) == list(range(len(seqs)))

    def test_follower_forwards_to_leader(self):
        sim, net, nodes = cluster()
        sim.schedule(0.0, lambda: nodes[2].ordering.submit("fwd"))
        sim.run(until=100)
        assert nodes[0].delivered and nodes[0].delivered[0][1] == "fwd"

    def test_leader_identity(self):
        sim, net, nodes = cluster()
        assert nodes[0].ordering.is_leader
        assert not nodes[1].ordering.is_leader


class TestOrderingFailover:
    def test_leader_crash_fails_over(self):
        sim, net, nodes = cluster(timeout=10.0)
        sim.schedule(0.0, lambda: nodes[0].ordering.submit("pre-crash"))
        net.crash("o0", at=5.0)
        sim.schedule(12.0, lambda: nodes[1].ordering.submit("post-crash"))
        sim.run(until=400)
        survivors = nodes[1:]
        for node in survivors:
            batches = [b for _, b in node.delivered]
            assert "pre-crash" in batches
            assert "post-crash" in batches
        assert survivors[0].delivered == survivors[1].delivered

    def test_no_duplicate_delivery_after_failover(self):
        sim, net, nodes = cluster(timeout=10.0)
        for i in range(3):
            sim.schedule(i * 0.2, lambda i=i: nodes[0].ordering.submit(f"b{i}"))
        net.crash("o0", at=30.0)
        sim.run(until=300)
        for node in nodes[1:]:
            batches = [b for _, b in node.delivered]
            assert len(batches) == len(set(batches))
