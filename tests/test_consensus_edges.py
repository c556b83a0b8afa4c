"""Deeper consensus-layer scenarios: view-change safety, BA committees,
superblock fault tolerance, ordering failover chains."""


from repro.consensus.ba_star import BAStarComponent
from repro.consensus.pbft import PBFTComponent
from repro.consensus.superblock import SuperblockComponent
from repro.crypto.vrf import VRFKey
from repro.net.channels import SynchronousChannel
from repro.net.process import Network, SimProcess
from repro.net.simulator import Simulator


class Replica(SimProcess):
    def __init__(self, name, peers, timeout=6.0, equivocate=False):
        super().__init__(name)
        self.decisions = {}
        self.pbft = PBFTComponent(
            host=self,
            peers=peers,
            on_decide=lambda i, v: self.decisions.__setitem__(i, v),
            timeout=timeout,
            byzantine_equivocate=equivocate,
        )


def cluster(n=4, seed=1, timeout=6.0, equivocators=()):
    sim = Simulator(seed=seed)
    net = Network(sim, channel=SynchronousChannel(delta=1.0))
    names = [f"r{i}" for i in range(n)]
    nodes = [
        net.register(Replica(name, names, timeout, name in equivocators))
        for name in names
    ]
    return sim, net, nodes


class TestPBFTViewChangeSafety:
    def test_prepared_value_carries_into_new_view(self):
        """A replica that prepared in view 0 locks the value: even after a
        view change, the decided value is the view-0 pre-prepared one."""
        sim, net, nodes = cluster(n=4, timeout=6.0)
        for node in nodes:
            sim.schedule(0.0, lambda n=node: n.pbft.propose("i", f"v-{n.name}"))
        # Crash the primary *after* the pre-prepare went out (mid-protocol).
        net.crash("r0", at=1.2)
        sim.run(until=400)
        decided = {repr(n.decisions.get("i")) for n in nodes[1:]}
        decided.discard("None")
        assert len(decided) == 1
        # Either the locked view-0 value or the new primary's own — but
        # never two different values (safety).

    def test_seven_replicas_two_crashes(self):
        sim, net, nodes = cluster(n=7, timeout=6.0)
        net.crash("r5", at=0.0)
        net.crash("r6", at=0.0)
        for node in nodes[:5]:
            sim.schedule(0.0, lambda n=node: n.pbft.propose("i", f"v-{n.name}"))
        sim.run(until=400)
        decided = {n.decisions.get("i") for n in nodes[:5]}
        assert None not in decided and len(decided) == 1

    def test_consecutive_primary_crashes(self):
        sim, net, nodes = cluster(n=7, timeout=4.0)
        net.crash("r0", at=0.0)   # view-0 primary
        net.crash("r1", at=0.0)   # view-1 primary
        for node in nodes[2:]:
            sim.schedule(0.0, lambda n=node: n.pbft.propose("i", f"v-{n.name}"))
        sim.run(until=800)
        decided = {n.decisions.get("i") for n in nodes[2:]}
        assert None not in decided and len(decided) == 1
        assert decided == {"v-r2"}  # view-2 primary drives the decision


class BANode(SimProcess):
    def __init__(self, name, peers, stakes, committee_fraction=None, seed=0):
        super().__init__(name)
        self.decisions = {}
        self.ba = BAStarComponent(
            host=self,
            peers=peers,
            stakes=stakes,
            on_decide=lambda i, v: self.decisions.__setitem__(i, v),
            vrf_key=VRFKey(seed=seed, owner=name),
            step_time=5.0,
            committee_fraction=committee_fraction,
        )


class TestBACommitteeSampling:
    def test_lottery_mode_still_safe(self):
        """With an explicit committee fraction, quorums may fail (liveness)
        but decided values never conflict."""
        for seed in range(4):
            sim = Simulator(seed=seed)
            net = Network(sim, channel=SynchronousChannel(delta=1.0))
            names = [f"a{i}" for i in range(6)]
            stakes = {n: 1.0 / 6 for n in names}
            nodes = [
                net.register(BANode(n, names, stakes, committee_fraction=4.0, seed=i))
                for i, n in enumerate(names)
            ]
            for node in nodes:
                sim.schedule(0.0, lambda n=node: n.ba.propose("r", f"b-{n.name}"))
            sim.run(until=400)
            decided = {n.decisions.get("r") for n in nodes if n.decisions.get("r")}
            assert len(decided) <= 1

    def test_stake_weighted_priority_favours_whales(self):
        """The proposer priority distribution shifts with stake."""
        whale = VRFKey(seed=1, owner="whale")
        minnow = VRFKey(seed=2, owner="minnow")
        names = ["whale", "minnow"]
        from repro.consensus.ba_star import BAStarComponent as BA

        class Host:  # minimal stand-in for priority computation only
            name = "whale"

        wins = 0
        rounds = 60
        for r in range(rounds):
            ba_w = BA.__new__(BA)
            ba_w.vrf_key, ba_w.stakes, ba_w.peers = whale, {"whale": 0.8, "minnow": 0.2}, names
            ba_w.host = type("H", (), {"name": "whale"})()
            _, pw = BA._selected(ba_w, r, 0, "proposer")
            ba_m = BA.__new__(BA)
            ba_m.vrf_key, ba_m.stakes, ba_m.peers = minnow, {"whale": 0.8, "minnow": 0.2}, names
            ba_m.host = type("H", (), {"name": "minnow"})()
            _, pm = BA._selected(ba_m, r, 0, "proposer")
            wins += pw > pm
        assert wins > rounds // 2  # 80% stake wins the priority race mostly


class SBNode(SimProcess):
    def __init__(self, name, peers):
        super().__init__(name)
        self.decisions = {}
        self.sb = SuperblockComponent(
            host=self,
            peers=peers,
            on_decide=lambda r, v: self.decisions.__setitem__(r, v),
        )


class TestSuperblockFaults:
    def test_multiple_rounds_with_crash_between(self):
        sim = Simulator(seed=4)
        net = Network(sim, channel=SynchronousChannel(delta=1.0))
        names = [f"m{i}" for i in range(4)]
        nodes = [net.register(SBNode(n, names)) for n in names]
        for node in nodes:
            sim.schedule(0.0, lambda n=node: n.sb.propose("r1", f"x-{n.name}"))
        net.crash("m3", at=40.0)
        for node in nodes[:3]:
            sim.schedule(50.0, lambda n=node: n.sb.propose("r2", f"y-{n.name}"))
        sim.run(until=400)
        r1 = {repr(n.decisions.get("r1")) for n in nodes[:3]}
        r2 = {repr(n.decisions.get("r2")) for n in nodes[:3]}
        assert len(r1) == 1 and "None" not in r1
        assert len(r2) == 1 and "None" not in r2
        # Round 2's superblock excludes the crashed member.
        decided_r2 = nodes[0].decisions["r2"]
        assert all(who != "m3" for who, _ in decided_r2)
