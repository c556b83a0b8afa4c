"""Tests for the PBFT component: agreement, crash/equivocating primary."""

import pytest

from repro.consensus import PBFTComponent
from repro.net import Network, SimProcess, Simulator, SynchronousChannel


class Replica(SimProcess):
    """Host process running one PBFT component."""

    def __init__(self, name, peers, byzantine_equivocate=False, timeout=10.0):
        super().__init__(name)
        self.decisions = {}
        self.pbft = PBFTComponent(
            host=self,
            peers=peers,
            on_decide=self._decided,
            timeout=timeout,
            byzantine_equivocate=byzantine_equivocate,
        )

    def _decided(self, instance_id, value):
        self.decisions[instance_id] = value


def pbft_cluster(n=4, seed=1, equivocators=(), timeout=10.0):
    sim = Simulator(seed=seed)
    net = Network(sim, channel=SynchronousChannel(delta=1.0))
    names = [f"r{i}" for i in range(n)]
    replicas = [
        net.register(
            Replica(name, names, byzantine_equivocate=(name in equivocators),
                    timeout=timeout)
        )
        for name in names
    ]
    return sim, net, replicas


class TestPBFTHappyPath:
    def test_all_replicas_decide_primary_value(self):
        sim, net, replicas = pbft_cluster(n=4)
        for r in replicas:
            sim.schedule(0.0, lambda r=r: r.pbft.propose("inst0", f"value-{r.name}"))
        sim.run(until=200)
        decisions = {r.name: r.decisions.get("inst0") for r in replicas}
        assert all(v is not None for v in decisions.values())
        assert len(set(decisions.values())) == 1
        assert decisions["r0"] == "value-r0"  # view-0 primary's value

    def test_multiple_instances_independent(self):
        sim, net, replicas = pbft_cluster(n=4)
        for inst in ("a", "b"):
            for r in replicas:
                sim.schedule(0.0, lambda r=r, i=inst: r.pbft.propose(i, f"{i}:{r.name}"))
        sim.run(until=300)
        for inst in ("a", "b"):
            values = {r.decisions.get(inst) for r in replicas}
            assert len(values) == 1 and None not in values

    def test_decision_of_accessor(self):
        sim, net, replicas = pbft_cluster(n=4)
        for r in replicas:
            sim.schedule(0.0, lambda r=r: r.pbft.propose("x", r.name))
        sim.run(until=200)
        assert replicas[1].pbft.decision_of("x") is not None
        assert replicas[1].pbft.decision_of("nope") is None

    @pytest.mark.parametrize("n", [4, 7])
    def test_f_derived_from_n(self, n):
        sim, net, replicas = pbft_cluster(n=n)
        assert replicas[0].pbft.f == (n - 1) // 3
        assert replicas[0].pbft.quorum == 2 * replicas[0].pbft.f + 1


class TestPBFTFaults:
    def test_crashed_primary_triggers_view_change(self):
        sim, net, replicas = pbft_cluster(n=4, timeout=5.0)
        net.crash("r0", at=0.0)  # view-0 primary dead
        for r in replicas[1:]:
            sim.schedule(0.5, lambda r=r: r.pbft.propose("inst", f"v-{r.name}"))
        sim.run(until=500)
        survivors = replicas[1:]
        decisions = {r.decisions.get("inst") for r in survivors}
        assert None not in decisions
        assert len(decisions) == 1
        assert decisions == {"v-r1"}  # view-1 primary r1 proposes its value

    def test_crash_follower_harmless(self):
        sim, net, replicas = pbft_cluster(n=4)
        net.crash("r3", at=0.0)
        for r in replicas[:3]:
            sim.schedule(0.0, lambda r=r: r.pbft.propose("inst", f"v-{r.name}"))
        sim.run(until=200)
        decisions = {r.decisions.get("inst") for r in replicas[:3]}
        assert decisions == {"v-r0"}

    def test_equivocating_primary_no_disagreement(self):
        sim, net, replicas = pbft_cluster(n=4, equivocators=("r0",), timeout=5.0)
        for r in replicas:
            sim.schedule(0.0, lambda r=r: r.pbft.propose("inst", f"v-{r.name}"))
        sim.run(until=500)
        decided = [r.decisions.get("inst") for r in replicas[1:]]
        decided = [d for d in decided if d is not None]
        # Safety: whoever decided agrees.
        assert len(set(map(repr, decided))) <= 1
        # Liveness: after the view change the honest primary r1 drives it.
        assert decided, "honest replicas never decided after equivocation"

    def test_two_crashes_of_four_stall_but_stay_safe(self):
        sim, net, replicas = pbft_cluster(n=4, timeout=5.0)
        net.crash("r2", at=0.0)
        net.crash("r3", at=0.0)
        for r in replicas[:2]:
            sim.schedule(0.0, lambda r=r: r.pbft.propose("inst", r.name))
        sim.run(until=100, max_events=50_000)
        # With f=1 and two crashed replicas there is no quorum: no decision,
        # but also no disagreement.
        decided = [r.decisions.get("inst") for r in replicas[:2]]
        assert all(d is None for d in decided)
