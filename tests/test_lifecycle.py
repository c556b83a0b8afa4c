"""Node-lifecycle fault injection: crash/rejoin, late join, eclipse-heal.

Covers the scenario compilation (lifecycle events → timed actions), the
churn-suspension regression the robustness issue demanded (a suspended
node authors *nothing* inside its offline window), the three lifecycle
presets ending Strong-Prefix-consistent with the majority view, and the
bounded orphan parking with stale-orphan discard.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.blocktree.block import GENESIS, make_block
from repro.net import Network, Simulator, SynchronousChannel
from repro.protocols.base import BlockchainNode, PassiveNode
from repro.protocols.bitcoin import run_bitcoin
from repro.protocols.classify import majority_view
from repro.workloads.scenarios import (
    AdversarialScenario,
    ChurnEvent,
    CrashEvent,
    EclipseEvent,
    JoinEvent,
    ProtocolScenario,
    adversarial_scenarios,
)
from repro.workloads.traffic import traffic_presets


def preset(name: str, duration: float = 160.0, **overrides):
    scenario = adversarial_scenarios(n_nodes=4, duration=duration)[name]
    return dataclasses.replace(scenario, **overrides) if overrides else scenario


def appends_by(run, node: str):
    """(invocation time, op) for every append authored by ``node``."""
    return [
        (op.invocation.time, op) for op in run.history.appends() if op.proc == node
    ]


class TestLifecycleCompilation:
    def test_crash_rejoin_schedule(self):
        scenario = preset("crash-rejoin", duration=240.0)
        assert scenario.lifecycle_schedule() == (
            (72.0, "crash", "p3"),
            (144.0, "recover", "p3"),
        )
        assert scenario.initially_offline() == frozenset()

    def test_late_join_schedule_and_initial_offline(self):
        scenario = preset("late-join", duration=240.0)
        assert scenario.lifecycle_schedule() == ((120.0, "join", "p3"),)
        assert scenario.initially_offline() == frozenset({"p3"})

    def test_eclipse_heal_schedule_and_channel(self):
        scenario = preset("eclipse-heal", duration=240.0)
        assert scenario.lifecycle_schedule() == ((144.0, "heal", "p3"),)
        _channel, faults = scenario.build_channel()
        (eclipse,) = faults["eclipses"]
        assert eclipse.victim == "p3"
        assert (eclipse.start_at, eclipse.heal_at) == (60.0, 144.0)

    def test_churn_compiles_to_suspend_resume(self):
        schedule = preset("node-churn", duration=240.0).lifecycle_schedule()
        assert ("suspend" in {a for _, a, _ in schedule}) and (
            "resume" in {a for _, a, _ in schedule}
        )
        assert schedule == tuple(sorted(schedule))

    def test_event_validation(self):
        with pytest.raises(ValueError):
            CrashEvent(node="p0", at=10.0, recover_at=5.0).validate(("p0",))
        with pytest.raises(ValueError):
            JoinEvent(node="p9", at=10.0).validate(("p0", "p1"))
        with pytest.raises(ValueError):
            EclipseEvent(node="p0", start=10.0, heal_at=10.0).validate(("p0",))

    def test_overlapping_lifecycle_windows_rejected(self):
        with pytest.raises(ValueError, match="overlapping lifecycle"):
            AdversarialScenario(
                name="clash",
                n_nodes=3,
                duration=100.0,
                churn=(ChurnEvent(node="p2", leave_at=10.0, rejoin_at=60.0),),
                crashes=(CrashEvent(node="p2", at=30.0, recover_at=80.0),),
            )


class TestChurnSuspension:
    """The churn regression: an offline node is *suspended*, not merely
    filtered — its timers stop, so it authors no blocks in the window."""

    def test_no_blocks_authored_inside_churn_window(self):
        scenario = preset("node-churn")
        run = run_bitcoin(scenario)
        assert run.faults["churn"].dropped > 0
        for event in scenario.churn:
            start, end = event.window()
            end = scenario.duration if end is None else end
            inside = [
                t for t, _ in appends_by(run, event.node) if start <= t < end
            ]
            assert inside == []
        # The churned nodes still mine outside their windows.
        assert any(appends_by(run, e.node) for e in scenario.churn)

    def test_suspended_node_converges_after_rejoin(self):
        scenario = preset("node-churn")
        run = run_bitcoin(scenario)
        chains = run.final_chains()
        view = majority_view(chains)
        for event in scenario.churn:
            assert chains[event.node].comparable(view)


class TestCrashRejoin:
    def test_crash_rejoin_preset_ends_consistent(self):
        scenario = preset("crash-rejoin", mean_block_interval=8.0)
        run = run_bitcoin(scenario)
        (crash,) = scenario.crashes
        chains = run.final_chains()
        assert chains[crash.node].comparable(majority_view(chains))
        assert chains[crash.node].height > 0
        stats = run.sync_stats()
        assert stats["totals"]["syncs_started"] >= 1
        assert stats["per_node"][crash.node]["blocks_synced"] > 0
        # Crash loses RAM: nothing is authored while down.
        down = [
            t
            for t, _ in appends_by(run, crash.node)
            if crash.at <= t < crash.recover_at
        ]
        assert down == []

    def test_crash_recovers_tree_from_durable_store(self, tmp_path):
        scenario = ProtocolScenario(
            name="crash-store",
            n_nodes=2,
            duration=60.0,
            store="log",
            store_dir=str(tmp_path),
        )
        sim = Simulator(seed=5)
        net = Network(sim, channel=SynchronousChannel(delta=scenario.channel_delta))
        node, _peer = (
            net.register(PassiveNode(name, scenario))
            for name in scenario.node_names()
        )
        parent = GENESIS
        for i in range(30):
            parent = make_block(parent, label=f"d{i}")
            node.adopt_block(parent, relay=False)
        before = node.tree.freeze()
        node.lifecycle_crash()
        assert len(node.tree) == 1  # RAM gone: placeholder genesis tree
        node.lifecycle_recover()
        assert node.tree.freeze() == before  # replayed from the log

    def test_crash_and_recover_reboot_ram_and_keep_the_apparatus(self, tmp_path):
        """Crash and recovery are two more calls of what the constructor
        calls: every RAM attribute ``_boot`` owns comes back a fresh
        object, the measurement apparatus is the same object throughout."""
        scenario = ProtocolScenario(
            name="reboot",
            n_nodes=2,
            duration=60.0,
            store="log",
            store_dir=str(tmp_path),
            auth=True,
            traffic=traffic_presets(60.0)["steady"],
        )
        sim = Simulator(seed=5)
        net = Network(sim, channel=SynchronousChannel(delta=scenario.channel_delta))
        node, _peer = (
            net.register(PassiveNode(name, scenario))
            for name in scenario.node_names()
        )
        ram = (
            "tree", "orphans", "_parked_ids", "seen_blocks", "received_marks",
            "rejected_blocks", "pool", "packer", "tx_seen", "transport", "sync",
            "auth",
        )
        apparatus = ("sync_totals", "open_appends", "_carry", "txgen")
        sealed = node.seal_block(make_block(GENESIS, label="mine", creator=0))
        node.begin_append(sealed)
        node.adopt_block(sealed, relay=False)
        node.tx_gossip_received = 7
        node.sync_totals["syncs_started"] = 3
        verified = node.auth_report()["verified"]
        assert verified >= 1
        kept = {name: getattr(node, name) for name in apparatus}
        generations = [{name: getattr(node, name) for name in ram}]
        node.lifecycle_crash()
        assert node.offline and len(node.tree) == 1
        generations.append({name: getattr(node, name) for name in ram})
        node.lifecycle_recover()
        assert not node.offline and sealed.block_id in node.tree
        generations.append({name: getattr(node, name) for name in ram})
        for name in ram:
            objects = [generation[name] for generation in generations]
            assert len({id(obj) for obj in objects}) == 3, name
        for name in apparatus:
            assert getattr(node, name) is kept[name], name
        assert node.tx_gossip_received == 7
        assert sealed.block_id in node.open_appends
        assert node.sync_totals["syncs_started"] == 3 + 1  # + the recovery sync
        # Counters of both lost authenticators are in the carry; the
        # slashing journal came along, so the rival is refused.
        assert node.auth.counters["verified"] == 0
        assert node.auth_report()["verified"] == verified
        # So are those of every other rebuilt component with counters.
        assert sorted(node._carry) == ["auth", "packer", "pool", "transport"]
        rival = make_block(GENESIS, label="rival", creator=0)
        assert node.auth.sign_block(rival, node.name).signature is None
        assert node.seen_blocks == set(node.tree.iter_ids())
        assert (node._parked_ids.cap, node.rejected_blocks.cap) == (2048, 4096)

    def test_crash_keeps_the_crashed_replicas_traffic_counters(self, monkeypatch):
        """A crash rebuilds transport, pool and packer; what they counted
        before it still shows in the run's per-node stats."""
        scenario = preset(
            "crash-rejoin",
            duration=240.0,
            traffic=traffic_presets(240.0)["steady"],
            crashes=(CrashEvent(node="p3", at=120.0, recover_at=216.0),),
        )
        before_crash = {}
        crash = BlockchainNode.lifecycle_crash

        def sampling_crash(node):
            before_crash["messages_sent"] = node.transport.messages_sent
            before_crash["accepted"] = node.pool.accepted
            crash(node)

        monkeypatch.setattr(BlockchainNode, "lifecycle_crash", sampling_crash)
        run = run_bitcoin(scenario)
        assert before_crash["accepted"] > 0
        sent = run.gossip_stats()["per_node"]["p3"]["messages_sent"]
        accepted = run.mempool_stats()["per_node"]["p3"]["accepted"]
        assert sent >= before_crash["messages_sent"]
        assert accepted >= before_crash["accepted"]

    def test_crash_with_memory_store_recovers_empty(self):
        scenario = ProtocolScenario(name="crash-mem", n_nodes=2, duration=60.0)
        sim = Simulator(seed=5)
        net = Network(sim, channel=SynchronousChannel(delta=scenario.channel_delta))
        node, _peer = (
            net.register(PassiveNode(name, scenario))
            for name in scenario.node_names()
        )
        node.adopt_block(make_block(GENESIS, label="x"), relay=False)
        node.lifecycle_crash()
        node.lifecycle_recover()
        # Nothing survives an in-memory store: full resync is the
        # correct degenerate recovery.
        assert len(node.tree) == 1
        assert node.sync_totals["syncs_started"] >= 1


class TestGuardedTimers:
    """``SimProcess.call_later`` is the replica's one timer guard: a
    call armed in an earlier life never fires into a later one."""

    def _pair(self, **overrides):
        scenario = ProtocolScenario(name="timers", n_nodes=2, duration=60.0, **overrides)
        sim = Simulator(seed=5)
        net = Network(sim, channel=SynchronousChannel(delta=scenario.channel_delta))
        nodes = [
            net.register(PassiveNode(name, scenario))
            for name in scenario.node_names()
        ]
        return sim, nodes

    @pytest.mark.parametrize("outage", [None, "suspend/resume", "crash/recover"])
    def test_call_later_fires_once_unless_an_outage_intervenes(self, outage):
        sim, (node, _peer) = self._pair()
        fired = []
        node.call_later(10.0, fired.append, "before")
        if outage is not None:
            down, up = outage.split("/")
            sim.schedule(1.0, lambda: node.apply_lifecycle(down))
            sim.schedule(2.0, lambda: node.apply_lifecycle(up))
            sim.schedule(3.0, lambda: node.call_later(10.0, fired.append, "after"))
        sim.run(until=30.0)
        assert fired == (["before"] if outage is None else ["after"])

    @pytest.mark.parametrize("crash", [False, True])
    def test_component_timers_of_a_crashed_life_never_run(self, crash):
        """A reconcile tick and a sync timeout armed before a crash die
        with the epoch, not in the recovered replica's fresh components."""
        sim, (node, peer) = self._pair(gossip="reconcile")
        runs = []
        node.transport._tick = lambda: runs.append("tick")
        node.sync._on_timeout = lambda: runs.append("timeout")
        peer.offline = True  # nobody answers: the sync request times out
        node.transport.on_start()
        assert node.sync.start_sync()
        if crash:
            sim.schedule(1.0, node.lifecycle_crash)
            sim.schedule(2.0, node.lifecycle_recover)
        sim.run(until=30.0)
        assert sorted(runs) == ([] if crash else ["tick", "timeout"])


class TestLateJoin:
    def test_late_joiner_ends_consistent_and_silent_before_join(self):
        scenario = preset("late-join", mean_block_interval=8.0)
        run = run_bitcoin(scenario)
        (join,) = scenario.joins
        early = [t for t, _ in appends_by(run, join.node) if t < join.at]
        assert early == []
        chains = run.final_chains()
        assert chains[join.node].height > 0
        assert chains[join.node].comparable(majority_view(chains))
        stats = run.sync_stats()
        assert stats["per_node"][join.node]["syncs_started"] >= 1
        assert stats["per_node"][join.node]["blocks_synced"] > 0


class TestEclipseHeal:
    def test_eclipse_bites_then_heals_consistent(self):
        scenario = preset("eclipse-heal", mean_block_interval=8.0)
        run = run_bitcoin(scenario)
        (eclipse,) = scenario.eclipses
        (fault,) = run.faults["eclipses"]
        assert fault.dropped > 0  # the filter actually cut traffic
        chains = run.final_chains()
        assert chains[eclipse.node].comparable(majority_view(chains))
        stats = run.sync_stats()
        assert stats["per_node"][eclipse.node]["syncs_started"] >= 1


class TestOrphanBounds:
    def _node(self):
        scenario = ProtocolScenario(name="orphans", n_nodes=2, duration=60.0)
        sim = Simulator(seed=5)
        net = Network(sim, channel=SynchronousChannel(delta=scenario.channel_delta))
        nodes = [
            net.register(PassiveNode(name, scenario))
            for name in scenario.node_names()
        ]
        return nodes[0]

    def test_parked_orphans_are_tracked_in_the_bound(self):
        node = self._node()
        parent = make_block(GENESIS, label="p")
        child = make_block(parent, label="c")
        assert not node.adopt_block(child, relay=False)  # parked: parent unknown
        assert child.block_id in node._parked_ids
        assert node.orphans[parent.block_id] == [child]
        node.adopt_block(parent, relay=False)  # parent arrives: child drains
        assert child.block_id in node.tree
        assert node.orphans == {}

    def test_evicted_orphans_are_discarded_not_retried(self):
        node = self._node()
        parent = make_block(GENESIS, label="p")
        child = make_block(parent, label="c")
        node.adopt_block(child, relay=False)
        # Simulate the FIFO bound evicting the parked id long before the
        # parent ever shows up: the body must be dropped, not retried
        # forever.
        node._parked_ids.discard(child.block_id)
        node._discard_stale_orphans()
        assert node.orphans == {}

    def test_children_of_rejected_parents_are_discarded(self):
        node = self._node()
        parent = make_block(GENESIS, label="bad-parent")
        child = make_block(parent, label="c")
        node.adopt_block(child, relay=False)
        node.rejected_blocks.add(parent.block_id)
        node._discard_stale_orphans()
        assert node.orphans == {}
