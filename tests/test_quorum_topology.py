"""Regression suite: quorum protocols on sparse overlays (PR 8 caveat).

The quorum-broadcast vote phases (PBFT prepare/commit, Red Belly
proposal collection, BA* soft/cert votes, committee-PoW candidate
floods, the Fabric ordering cluster) historically assumed a clique:
``broadcast`` had to reach *every* committee member.  On a ring,
small-world or geo overlay a one-hop broadcast only reaches direct
neighbours, so votes from non-adjacent replicas never arrived and
quorums starved — documented as a caveat in docs/architecture.md.

:class:`~repro.consensus.relay.QuorumRelay` fixes this by flooding
committee messages multi-hop through ``Network.neighbors_of`` with
forward-once dedup, attributing each delivery to the *origin* replica.
These tests pin the fix at three levels:

* relay unit semantics (multi-hop reach, dedup, origin attribution);
* PBFT on a ring — including a contrast run with the relay forced
  inactive, which reproduces the historical starvation;
* full protocol runs (byzcoin / redbelly / algorand / hyperledger) on
  sparse topologies reaching the same verdicts as on the clique.
"""

import pytest

from repro.consensus import PBFTComponent
from repro.consensus.relay import QuorumRelay
from repro.blocktree import LengthScore
from repro.consistency import BTStrongConsistency
from repro.net import Network, SimProcess, Simulator, SynchronousChannel
from repro.net.overlay import build_overlay
from repro.protocols import run_algorand, run_byzcoin, run_hyperledger, run_redbelly
from repro.workloads.scenarios import ProtocolScenario

# (topology, minimum legal degree): geo triangulations need degree >= 4.
SPARSE = (("ring", 2), ("small-world", 4), ("geo", 4))
SCORE = LengthScore()


# -- relay unit semantics -------------------------------------------------------


class _Collector(SimProcess):
    """Host recording every (origin, inner) its relay delivers."""

    def __init__(self, name):
        super().__init__(name)
        self.got = []  # relay deliveries
        self.bare = []  # (src, message) arrivals that were no envelope
        self.sent = []  # (dst, message) in send order
        self.relay = QuorumRelay(self, tag="t-relay", deliver=self._deliver)

    def _deliver(self, origin, inner):
        self.got.append((origin, inner))

    def send(self, dst, message):
        self.sent.append((dst, message))
        super().send(dst, message)

    def on_message(self, src, message):
        if not self.relay.on_message(src, message):
            self.bare.append((src, message))


def ring_collectors(n=6, seed=3):
    sim = Simulator(seed=seed)
    names = [f"p{i}" for i in range(n)]
    overlay = build_overlay("ring", names, seed=seed, degree=2)
    net = Network(sim, channel=SynchronousChannel(delta=1.0), overlay=overlay)
    nodes = [net.register(_Collector(name)) for name in names]
    return sim, net, nodes


class TestQuorumRelayUnit:
    def test_flood_reaches_every_non_origin_member(self):
        sim, net, nodes = ring_collectors(n=6)
        sim.schedule(0.0, lambda: nodes[0].relay.broadcast("vote-A"))
        sim.run(until=50)
        for node in nodes[1:]:
            assert node.got == [("p0", "vote-A")], node.name

    def test_cyclic_topology_delivers_exactly_once(self):
        # A ring is one big cycle: without dedup the envelope would orbit
        # forever; with it every member sees each (origin, seq) once.
        sim, net, nodes = ring_collectors(n=6)
        sim.schedule(0.0, lambda: nodes[2].relay.broadcast("x"))
        sim.schedule(0.0, lambda: nodes[2].relay.broadcast("y"))
        sim.run(until=50)
        for node in nodes:
            if node.name == "p2":
                continue
            assert node.got == [("p2", "x"), ("p2", "y")], node.name

    def test_origin_attribution_not_last_hop(self):
        sim, net, nodes = ring_collectors(n=6)
        sim.schedule(0.0, lambda: nodes[0].relay.broadcast("ballot"))
        sim.run(until=50)
        # p3 sits opposite p0 on the ring: the envelope arrived via p2 or
        # p4, but the delivery must be attributed to the origin.
        origins = {origin for origin, _ in nodes[3].got}
        assert origins == {"p0"}

    def test_foreign_messages_fall_through(self):
        sim, net, nodes = ring_collectors(n=3)
        assert nodes[0].relay.on_message("p1", ("other-tag", "p1", 0, "z")) is False
        assert nodes[0].relay.on_message("p1", "not-an-envelope") is False
        assert nodes[0].got == []

    def test_inactive_without_overlay(self):
        sim = Simulator(seed=1)
        net = Network(sim, channel=SynchronousChannel(delta=1.0))
        node = net.register(_Collector("p0"))
        assert node.relay.active is False

    def test_include_self_on_full_topology_is_the_one_hop_broadcast(self):
        sim = Simulator(seed=1)
        net = Network(sim, channel=SynchronousChannel(delta=1.0))
        nodes = [net.register(_Collector(f"p{i}")) for i in range(4)]
        sim.schedule(0.0, lambda: nodes[1].relay.broadcast("vote", include_self=True))
        sim.run(until=50)
        # Exactly SimProcess.broadcast(include_self=True): one bare copy
        # per member in name order, the origin in its sorted slot.
        assert nodes[1].sent == [(f"p{i}", "vote") for i in range(4)]
        for node in nodes:
            assert node.bare == [("p1", "vote")] and node.got == [], node.name
            assert node is nodes[1] or node.sent == []  # nothing is forwarded

    def test_include_self_on_ring_floods_peers_first_then_self_once(self):
        sim, net, nodes = ring_collectors(n=6)
        sim.schedule(0.0, lambda: nodes[0].relay.broadcast("vote", include_self=True))
        sim.run(until=50)
        origin = nodes[0]
        neighbours = list(net.neighbors_of("p0"))
        envelope = ("t-relay", "p0", 0, "vote")
        # Channel delays draw from the simulator RNG per send, so the
        # order is part of a run's identity: envelopes to the overlay
        # neighbours first, the origin's own bare copy last.
        assert origin.sent[: len(neighbours) + 1] == [
            *((peer, envelope) for peer in neighbours),
            ("p0", "vote"),
        ]
        assert origin.bare == [("p0", "vote")] and origin.got == []
        for node in nodes[1:]:
            assert node.got == [("p0", "vote")] and node.bare == [], node.name


# -- PBFT on a ring -------------------------------------------------------------


class _Replica(SimProcess):
    def __init__(self, name, peers, timeout=10.0):
        super().__init__(name)
        self.decisions = {}
        self.pbft = PBFTComponent(
            host=self,
            peers=peers,
            on_decide=lambda inst, value: self.decisions.__setitem__(inst, value),
            timeout=timeout,
        )

    def on_message(self, src, message):
        self.pbft.on_message(src, message)

    def on_timer(self, tag):
        self.pbft.on_timer(tag)


def pbft_ring(n=7, seed=5):
    sim = Simulator(seed=seed)
    names = [f"r{i}" for i in range(n)]
    overlay = build_overlay("ring", names, seed=seed, degree=2)
    net = Network(sim, channel=SynchronousChannel(delta=1.0), overlay=overlay)
    replicas = [net.register(_Replica(name, names)) for name in names]
    return sim, net, replicas


class TestPBFTOnRing:
    def test_all_replicas_decide_on_ring(self):
        sim, net, replicas = pbft_ring(n=7)
        for r in replicas:
            sim.schedule(0.0, lambda r=r: r.pbft.propose("inst0", f"value-{r.name}"))
        sim.run(until=300)
        decisions = {r.name: r.decisions.get("inst0") for r in replicas}
        assert all(v is not None for v in decisions.values()), decisions
        assert len(set(decisions.values())) == 1
        assert decisions["r0"] == "value-r0"  # view-0 primary's value

    def test_one_hop_broadcast_starves_on_ring(self, monkeypatch):
        # The historical failure mode: force the relay inactive so vote
        # phases fall back to one-hop broadcast.  On a degree-2 ring of 7
        # a replica's votes reach only its two neighbours (quorum is 5),
        # so no replica can decide.
        monkeypatch.setattr(QuorumRelay, "active", property(lambda self: False))
        sim, net, replicas = pbft_ring(n=7)
        for r in replicas:
            sim.schedule(0.0, lambda r=r: r.pbft.propose("inst0", f"value-{r.name}"))
        sim.run(until=300)
        assert all(r.decisions.get("inst0") is None for r in replicas)


# -- full protocol runs on sparse topologies -----------------------------------


class TestProtocolsOnSparseTopologies:
    @pytest.mark.parametrize("kind,degree", SPARSE)
    def test_byzcoin_strong_consistency_on_sparse(self, kind, degree):
        run = run_byzcoin(
            ProtocolScenario(
                name=f"byzcoin-{kind}",
                mean_block_interval=20.0,
                duration=200.0,
                seed=9,
                topology=kind,
                topology_degree=degree,
            )
        )
        assert run.max_fork_degree() == 1
        assert BTStrongConsistency(score=SCORE).check(run.history.purged()).ok
        finals = run.final_chains()
        assert len({c.tip.block_id for c in finals.values()}) == 1
        assert finals["p0"].height >= 2  # quorums no longer starve

    def test_redbelly_commits_on_ring(self):
        run = run_redbelly(
            ProtocolScenario(
                name="redbelly-ring",
                round_length=20.0,
                duration=200.0,
                seed=7,
                topology="ring",
                topology_degree=2,
            )
        )
        assert run.max_fork_degree() == 1
        finals = run.final_chains()
        assert len({c.tip.block_id for c in finals.values()}) == 1
        assert finals["p0"].height >= 2

    def test_algorand_commits_on_ring(self):
        run = run_algorand(
            ProtocolScenario(
                name="algorand-ring",
                round_length=25.0,
                duration=200.0,
                seed=4,
                topology="ring",
                topology_degree=2,
            )
        )
        assert run.max_fork_degree() == 1
        finals = run.final_chains()
        assert len({c.block_ids() for c in finals.values()}) == 1
        assert finals["p0"].height >= 2

    def test_hyperledger_commits_on_ring(self):
        run = run_hyperledger(
            ProtocolScenario(
                name="hyperledger-ring",
                round_length=15.0,
                duration=200.0,
                seed=3,
                topology="ring",
                topology_degree=2,
            )
        )
        assert run.max_fork_degree() == 1
        finals = run.final_chains()
        assert len({c.tip.block_id for c in finals.values()}) == 1
        assert finals["p0"].height >= 2
