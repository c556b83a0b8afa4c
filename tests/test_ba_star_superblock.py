"""Tests for BA* (Algorand) and the Red Belly superblock component."""


from repro.consensus.ba_star import BAStarComponent
from repro.consensus.superblock import SuperblockComponent
from repro.crypto.vrf import VRFKey
from repro.net.channels import SynchronousChannel
from repro.net.process import Network, SimProcess
from repro.net.simulator import Simulator


class BANode(SimProcess):
    def __init__(self, name, peers, stakes, step_time=5.0, seed=0):
        super().__init__(name)
        self.decisions = {}
        self.ba = BAStarComponent(
            host=self,
            peers=peers,
            stakes=stakes,
            on_decide=lambda inst, v: self.decisions.__setitem__(inst, v),
            vrf_key=VRFKey(seed=seed, owner=name),
            step_time=step_time,
        )


def ba_cluster(n=5, seed=1, step_time=5.0, delta=1.0):
    sim = Simulator(seed=seed)
    net = Network(sim, channel=SynchronousChannel(delta=delta))
    names = [f"a{i}" for i in range(n)]
    stakes = {name: 1.0 / n for name in names}
    nodes = [
        net.register(BANode(name, names, stakes, step_time=step_time, seed=i))
        for i, name in enumerate(names)
    ]
    return sim, net, nodes


class TestBAStar:
    def test_agreement_in_synchronous_run(self):
        sim, net, nodes = ba_cluster(n=5)
        for node in nodes:
            sim.schedule(0.0, lambda n=node: n.ba.propose("r1", f"blk-{n.name}"))
        sim.run(until=500)
        decided = [n.decisions.get("r1") for n in nodes]
        assert all(d is not None for d in decided)
        assert len(set(decided)) == 1

    def test_decided_value_was_proposed(self):
        sim, net, nodes = ba_cluster(n=5, seed=3)
        proposals = {f"blk-{n.name}" for n in nodes}
        for node in nodes:
            sim.schedule(0.0, lambda n=node: n.ba.propose("r1", f"blk-{n.name}"))
        sim.run(until=500)
        assert nodes[0].decisions["r1"] in proposals

    def test_multiple_rounds(self):
        sim, net, nodes = ba_cluster(n=5)
        for rnd in ("r1", "r2"):
            for node in nodes:
                sim.schedule(0.0, lambda n=node, r=rnd: n.ba.propose(r, f"{r}-{n.name}"))
        sim.run(until=800)
        for rnd in ("r1", "r2"):
            decided = {n.decisions.get(rnd) for n in nodes}
            assert len(decided) == 1 and None not in decided

    def test_desynchronized_step_time_may_stall_but_never_disagrees(self):
        # Step time smaller than network delay: quorums can fail (liveness),
        # but safety must hold across many seeds.
        for seed in range(5):
            sim, net, nodes = ba_cluster(n=5, seed=seed, step_time=0.2, delta=5.0)
            for node in nodes:
                sim.schedule(0.0, lambda n=node: n.ba.propose("r", f"b-{n.name}"))
            sim.run(until=300)
            decided = [n.decisions.get("r") for n in nodes if n.decisions.get("r")]
            assert len(set(decided)) <= 1

    def test_crash_minority_still_decides(self):
        sim, net, nodes = ba_cluster(n=5)
        net.crash("a4", at=0.0)
        for node in nodes[:4]:
            sim.schedule(0.0, lambda n=node: n.ba.propose("r", f"b-{n.name}"))
        sim.run(until=500)
        decided = {n.decisions.get("r") for n in nodes[:4]}
        assert None not in decided and len(decided) == 1


class SBNode(SimProcess):
    def __init__(self, name, peers):
        super().__init__(name)
        self.decisions = {}
        self.sb = SuperblockComponent(
            host=self,
            peers=peers,
            on_decide=lambda rnd, v: self.decisions.__setitem__(rnd, v),
        )


def sb_cluster(n=4, seed=1):
    sim = Simulator(seed=seed)
    net = Network(sim, channel=SynchronousChannel(delta=1.0))
    names = [f"m{i}" for i in range(n)]
    nodes = [net.register(SBNode(name, names)) for name in names]
    return sim, net, nodes


class TestSuperblock:
    def test_superblock_contains_all_proposals(self):
        sim, net, nodes = sb_cluster(n=4)
        for node in nodes:
            sim.schedule(0.0, lambda n=node: n.sb.propose("round1", f"tx-{n.name}"))
        sim.run(until=300)
        decided = nodes[0].decisions["round1"]
        proposers = [who for who, _ in decided]
        assert proposers == sorted(proposers)
        assert len(decided) == 4

    def test_all_members_agree(self):
        sim, net, nodes = sb_cluster(n=4)
        for node in nodes:
            sim.schedule(0.0, lambda n=node: n.sb.propose("r", f"tx-{n.name}"))
        sim.run(until=300)
        values = {repr(n.decisions.get("r")) for n in nodes}
        assert len(values) == 1 and "None" not in values

    def test_crashed_member_excluded_but_round_decides(self):
        sim, net, nodes = sb_cluster(n=4)
        net.crash("m3", at=0.0)
        for node in nodes[:3]:
            sim.schedule(0.0, lambda n=node: n.sb.propose("r", f"tx-{n.name}"))
        sim.run(until=300)
        decided = nodes[0].decisions.get("r")
        assert decided is not None
        assert all(who != "m3" for who, _ in decided)

    def test_decision_of_accessor(self):
        sim, net, nodes = sb_cluster(n=4)
        for node in nodes:
            sim.schedule(0.0, lambda n=node: n.sb.propose("r", f"tx-{n.name}"))
        sim.run(until=300)
        assert nodes[2].sb.decision_of("r") is not None
