"""Set-reconciliation gossip tests.

Covers the Erlay-style transport (``gossip="reconcile"``) end to end —
dissemination efficiency, refinement properties (LRC / R1–R3) under the
adversarial presets, the byte-identity gate against flooding — and the
three dissemination bugfixes that ride along: relay-before-validate,
permanent tx blacklisting, and unbounded dedup sets.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro._util import BoundedSet
from repro.blocktree.block import make_block
from repro.campaign.grid import CampaignGrid
from repro.mempool import TX_GOSSIP_TAG
from repro.net import Network, Simulator, SynchronousChannel
from repro.net.broadcast import FloodingGossip, check_lrc, check_update_agreement
from repro.net.channels import ChannelModel
from repro.net.reconcile import (
    RECON_REQ,
    FloodTransport,
    ReconcileTransport,
    build_transport,
    wire_size,
)
from repro.protocols.base import ProtocolRun
from repro.protocols.bitcoin import BitcoinNode, run_bitcoin
from repro.protocols.byzantine import ForgingMiner
from repro.protocols.hyperledger import HyperledgerNode
from repro.workloads.scenarios import (
    GOSSIP_TAG,
    ProtocolScenario,
    adversarial_scenarios,
)
from repro.workloads.traffic import traffic_presets
from repro.workloads.transactions import Transaction


@dataclasses.dataclass
class ConstantChannel(ChannelModel):
    """Fixed-delay channel that consumes no simulator randomness.

    The identity gate compares committed chains across transports; any
    per-message rng draw would entangle the two runs' random streams
    through their (different) message counts.
    """

    delta: float = 0.7

    def delay(self, src, dst, message, rng, now):
        return self.delta


def steady_scenario(name, gossip, n_nodes=5, duration=120.0):
    return ProtocolScenario(
        name=name,
        n_nodes=n_nodes,
        duration=duration,
        mean_block_interval=10.0,
        tx_per_block=6,
        gossip=gossip,
        traffic=traffic_presets(duration)["steady"],
    )


class TestTransportSelection:
    def test_build_transport_kinds(self):
        scenario = ProtocolScenario(name="t", n_nodes=3, duration=30.0)
        node = BitcoinNode("p0", scenario)
        assert isinstance(build_transport("flood", node), FloodTransport)
        assert isinstance(build_transport("reconcile", node), ReconcileTransport)
        with pytest.raises(ValueError):
            build_transport("carrier-pigeon", node)

    def test_flood_transport_speaks_the_legacy_tags(self):
        # The flood transport must stay wire-compatible with the tags the
        # selfish-miner matcher and the mempool pipeline key on.
        scenario = ProtocolScenario(name="t", n_nodes=3, duration=30.0)
        node = BitcoinNode("p0", scenario)
        assert node.transport.kind == "flood"
        assert GOSSIP_TAG == "blk-gossip" or GOSSIP_TAG  # tag exists
        assert TX_GOSSIP_TAG  # tag exists

    def test_scenario_validates_gossip_knobs(self):
        with pytest.raises(ValueError):
            ProtocolScenario(name="x", gossip="smoke-signals")
        with pytest.raises(ValueError):
            ProtocolScenario(name="x", gossip="reconcile", recon_interval=0.0)
        scenario = ProtocolScenario(name="x", gossip="reconcile", recon_interval=5.0)
        assert scenario.gossip == "reconcile"

    def test_campaign_grid_gossip_axis(self):
        with pytest.raises(ValueError):
            CampaignGrid(protocols=("bitcoin",), gossip="telepathy")
        grid = CampaignGrid(
            protocols=("bitcoin",),
            scenarios=("default", "partition-heal"),
            seeds=(None, 7),
            gossip="reconcile",
        )
        cells = grid.expand()
        assert cells and all(c.scenario.gossip == "reconcile" for c in cells)
        # The default grid keeps baseline cells byte-identical to
        # classify_protocol: flood everywhere.
        flood_cells = CampaignGrid(
            protocols=("bitcoin",), scenarios=("default",)
        ).expand()
        assert all(c.scenario.gossip == "flood" for c in flood_cells)


class TestReconcileDissemination:
    def test_duplicate_relay_ratio_collapses(self):
        """Flooding re-sends each tx to nearly every peer; reconciliation
        pulls only the set difference, so redundancy collapses."""
        stats = {}
        for kind in ("flood", "reconcile"):
            run = run_bitcoin(steady_scenario(f"dup-{kind}", kind, n_nodes=9))
            stats[kind] = run.mempool_stats()
            assert stats[kind]["committed"]["txs"] > 0
        flood_dup = stats["flood"]["duplicate_relay_ratio"]
        recon_dup = stats["reconcile"]["duplicate_relay_ratio"]
        assert flood_dup > 0.7  # ~ (n-2)/(n-1) for forward-once flooding
        assert recon_dup < 0.3
        assert recon_dup < flood_dup / 3

    def test_reconcile_sends_fewer_tx_bytes(self):
        totals = {}
        for kind in ("flood", "reconcile"):
            run = run_bitcoin(steady_scenario(f"bytes-{kind}", kind))
            gs = run.gossip_stats()
            assert gs["transport"] == kind
            assert set(gs["per_node"]) == set(
                n.name for n in run.nodes
            )
            totals[kind] = gs["totals"]
        assert totals["reconcile"]["tx_bytes_sent"] < totals["flood"]["tx_bytes_sent"]
        assert totals["reconcile"]["messages_sent"] < totals["flood"]["messages_sent"]

    def test_reconcile_rounds_actually_run(self):
        run = run_bitcoin(steady_scenario("rounds", "reconcile"))
        per_node = run.gossip_stats()["per_node"]
        assert sum(s["rounds_completed"] for s in per_node.values()) > 0

    def test_properties_hold_on_default_scenario(self):
        for kind in ("flood", "reconcile"):
            run = run_bitcoin(steady_scenario(f"props-{kind}", kind))
            lrc = check_lrc(run.history)
            ua = check_update_agreement(run.history)
            assert all(c.ok for c in lrc.values()), kind
            assert all(c.ok for c in ua.values()), kind

    def test_wire_size_estimator(self):
        assert wire_size("abcd") == 5
        assert wire_size(7) == 8
        assert wire_size(None) == 1
        assert wire_size(("ab", 1)) > wire_size(("ab",))

    def test_block_wire_bytes_matches_generic_recursion(self):
        """Block.wire_bytes (the analytic fast path) must equal what the
        generic dataclass-field recursion would have computed."""
        import dataclasses as dc

        from repro.blocktree.block import GENESIS, make_block

        samples = [
            GENESIS,
            make_block(GENESIS, label="plain"),
            make_block(GENESIS, label="txs", payload=("t1", "t2xx"), creator=3),
            make_block(GENESIS, payload=(1, 2.5, None, ("nested", 7)), nonce=9),
        ]
        for block in samples:
            generic = 4 + sum(
                wire_size(getattr(block, f.name)) for f in dc.fields(block)
            )
            assert block.wire_bytes() == generic


class TestPartitionHealRepair:
    """Theorem 4.7 in reverse: forward-once flooding severed by a
    partition never recovers Update Agreement, while periodic set
    reconciliation repairs the tip sets after the heal."""

    def _run(self, gossip):
        scenario = dataclasses.replace(
            adversarial_scenarios(n_nodes=4, duration=240.0)["partition-heal"],
            mean_block_interval=6.0,
            gossip=gossip,
        )
        return run_bitcoin(scenario)

    def test_flooding_stays_divorced_after_heal(self):
        run = self._run("flood")
        chains = {k: c.block_ids() for k, c in run.final_chains().items()}
        assert chains["p0"] != chains["p2"]
        assert not check_update_agreement(run.history)["R3"].ok
        assert not check_lrc(run.history)["agreement"].ok

    def test_reconciliation_repairs_agreement_after_heal(self):
        run = self._run("reconcile")
        assert run.faults["partitions"][0].dropped > 0  # the cut did bite
        chains = {k: c.block_ids() for k, c in run.final_chains().items()}
        assert len(set(chains.values())) == 1  # all four converge
        ua = check_update_agreement(run.history)
        assert ua["R1"].ok and ua["R2"].ok and ua["R3"].ok
        lrc = check_lrc(run.history)
        assert lrc["validity"].ok and lrc["agreement"].ok

    def test_reconcile_survives_node_churn(self):
        scenario = dataclasses.replace(
            adversarial_scenarios(n_nodes=4, duration=160.0)["node-churn"],
            gossip="reconcile",
        )
        run = run_bitcoin(scenario)
        assert run.faults["churn"].dropped > 0
        chains = {k: c.block_ids() for k, c in run.final_chains().items()}
        assert len(set(chains.values())) == 1
        ua = check_update_agreement(run.history)
        assert all(c.ok for c in ua.values())

    def test_selfish_withholding_still_bites_reconcile_traffic(self):
        # The selfish matcher must recognize the reconcile transport's
        # block announcements/bodies, not only legacy flood messages.
        scenario = dataclasses.replace(
            adversarial_scenarios(n_nodes=4, duration=200.0)["selfish-miner"],
            gossip="reconcile",
        )
        run = run_bitcoin(scenario)
        assert run.faults["selfish"].delayed > 0


class TestIdentityGate:
    def test_committed_chains_identical_across_transports(self):
        """With a constant-delay channel and an rng-free protocol the
        transport must be observationally transparent: both gossip kinds
        commit byte-identical chains at every node."""
        chains = {}
        for kind in ("flood", "reconcile"):
            scenario = ProtocolScenario(
                name="identity",  # same name: same per-replica tx streams
                n_nodes=5,
                duration=90.0,
                mean_block_interval=10.0,
                tx_per_block=4,
                gossip=kind,
                round_length=15.0,
            )
            run = ProtocolRun.execute(
                HyperledgerNode, scenario, channel=ConstantChannel()
            )
            chains[kind] = {
                node.name: tuple(
                    b.block_id for b in node.selection.select(node.tree).blocks
                )
                for node in run.nodes
            }
        assert chains["flood"] == chains["reconcile"]
        lens = {len(c) for c in chains["flood"].values()}
        assert lens and min(lens) > 1  # the runs actually committed blocks


class TestValidateBeforeRelay:
    def test_forged_blocks_are_not_re_relayed(self):
        """An honest node must validate before relaying: a malformed
        block dies at the first honest hop instead of being amplified to
        the whole network (the relay-before-validate bug)."""
        scenario = ProtocolScenario(
            name="bitcoin",
            n_nodes=4,
            duration=120.0,
            mean_block_interval=10.0,
            seed=7,
            pow_difficulty_bits=8,
        )
        sim = Simulator(seed=scenario.seed)
        net = Network(sim, channel=SynchronousChannel(delta=scenario.channel_delta))
        nodes = []
        for i, name in enumerate(scenario.node_names()):
            cls = ForgingMiner if i == 0 else BitcoinNode
            nodes.append(net.register(cls(name, scenario)))
        relayed: dict = {n.name: [] for n in nodes}

        def wrap(node):
            orig = node.transport.relay_block

            def relay(block, _orig=orig, _name=node.name):
                relayed[_name].append(block.block_id)
                return _orig(block)

            node.transport.relay_block = relay

        for node in nodes[1:]:
            wrap(node)
        net.start()
        sim.run(until=scenario.duration + 60.0)

        forger, honest = nodes[0], nodes[1:]
        assert forger.blocks_mined >= 1
        forged = {
            bid for node in honest for bid in node.rejected_blocks
        }
        assert forged  # the forgeries reached and were refused by peers
        for node in honest:
            assert not forged & set(relayed[node.name])
        # Honest blocks still relay: the fix suppresses only junk.
        assert any(relayed[node.name] for node in honest)


class TestBlacklistFix:
    def test_reorg_then_resubmit_is_accepted(self):
        """A tx rejected as a double spend against the current chain must
        stay re-judgeable: after a reorg makes it valid, a gossiped
        resubmission is accepted (the permanent-blacklist bug)."""
        duration = 60.0
        scenario = ProtocolScenario(
            name="reorg-blacklist",
            n_nodes=2,
            duration=duration,
            traffic=traffic_presets(duration)["steady"],
        )
        sim = Simulator(seed=scenario.seed)
        net = Network(sim, channel=SynchronousChannel(delta=0.5))
        nodes = [net.register(BitcoinNode(n, scenario)) for n in scenario.node_names()]
        node = nodes[0]
        coins = scenario.traffic.genesis_coins()

        spend_a = Transaction.make((coins[0], coins[1]), ("a-out",), "t", fee=1.0)
        spend_b = Transaction.make((coins[0],), ("b-out",), "t", fee=1.0)
        conflict = Transaction.make((coins[1],), ("c-out",), "t", fee=1.0)

        # Chain A commits spend_a: coins[0] and coins[1] are consumed.
        block_a = make_block(node.tree.genesis, label="A1", payload=(spend_a,))
        assert node.adopt_block(block_a, relay=False)
        node.read()
        assert spend_a.tx_id in node.pool.view.committed

        # conflict double-spends coins[1] against chain A: rejected, but
        # NOT blacklisted.
        assert node.submit_transactions((conflict,)) == 0
        assert conflict.tx_id not in node.tx_seen

        # Reorg to a longer branch B where coins[1] is unspent (B spends
        # only coins[0], so the returned spend_a is invalid and dropped).
        block_b1 = make_block(node.tree.genesis, label="B1", payload=(spend_b,))
        block_b2 = make_block(block_b1, label="B2")
        assert node.adopt_block(block_b1, relay=False)
        assert node.adopt_block(block_b2, relay=False)
        node.read()
        assert spend_b.tx_id in node.pool.view.committed
        assert not node.pool.is_held(spend_a.tx_id)

        # The resubmission arrives over gossip — pre-fix it died in the
        # tx_seen blacklist; now it is accepted and held.
        node.ingest_gossiped_txs((conflict,))
        assert node.pool.is_held(conflict.tx_id)

    def test_accepted_then_evicted_ids_stay_marked(self):
        """The dual hazard: an id the pool accepted (hence relayed) must
        be marked seen even if the same batch evicted it again, or every
        returning gossip copy restarts an accept-evict-relay storm."""
        duration = 240.0
        run = run_bitcoin(
            ProtocolScenario(
                name="storm",
                n_nodes=4,
                duration=duration,
                mean_block_interval=10.0,
                tx_per_block=6,
                traffic=traffic_presets(duration)["spam-flood"],
            )
        )
        stats = run.mempool_stats()
        assert stats["committed"]["txs"] > 0
        # Forward-once flooding: every node relays a given id at most
        # once, so receives are bounded by ids * n * (n-1).  The
        # pre-fix storm blows through this within the spam window.
        total_received = sum(
            n["tx_gossip_received"] for n in stats["per_node"].values()
        )
        distinct = len(
            {tx.tx_id for sub in run.submissions for tx in sub.txs}
        )
        n = run.scenario.n_nodes
        assert total_received <= distinct * n * (n - 1)


class TestBoundedSeenSets:
    def test_long_run_prunes_dedup_sets(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ProtocolScenario, "PRUNE_MARGIN", 2)
        duration = 360.0
        scenario = ProtocolScenario(
            name="bounded",
            n_nodes=4,
            duration=duration,
            mean_block_interval=5.0,
            tx_per_block=6,
            traffic=traffic_presets(duration)["steady"],
            store="log",
            store_dir=str(tmp_path),
            prune_hot_cap=8,
        )
        run = run_bitcoin(scenario)
        node = run.nodes[0]
        assert node._seen_pruned_at > 0  # the checkpoint prune ran
        updates = sum(
            1
            for op in run.history.operations()
            if op.name == "update" and op.proc == node.name
        )
        assert len(node.seen_blocks) < updates
        # tx_seen was intersected with the held set at the checkpoint:
        # it holds fewer ids than the node ever marked.
        marked_ever = node.pool.reaped + len(node.pool.held_ids())
        assert len(node.tx_seen) < marked_ever
        assert node.rejected_blocks.cap == 4096

    def test_flooding_gossip_seen_cap(self):
        scenario = ProtocolScenario(name="t", n_nodes=3, duration=30.0)
        sim = Simulator(seed=0)
        net = Network(sim, channel=SynchronousChannel(delta=0.5))
        host = net.register(BitcoinNode("p0", scenario))
        net.register(BitcoinNode("p1", scenario))
        net.register(BitcoinNode("p2", scenario))
        gossip = FloodingGossip(
            host=host, deliver=lambda mid, payload: None, record=False, max_seen=16
        )
        for i in range(100):
            gossip.publish(f"m{i}", (f"parent{i}", f"m{i}", 0))
        assert len(gossip.seen) == 16  # FIFO-capped, not 100
        assert isinstance(gossip.seen, BoundedSet)

    def test_bounded_set_semantics(self):
        s = BoundedSet(cap=3)
        for item in ("a", "b", "c", "d"):
            s.add(item)
        assert "a" not in s and set(s) == {"b", "c", "d"}
        s.add("b")  # re-add of a member is a no-op, not a refresh
        s.add("e")
        assert "b" not in s and "c" in s  # FIFO: b was the oldest entry
        s.discard("zzz")  # absent discard is silent
        unbounded = BoundedSet()
        for i in range(100):
            unbounded.add(str(i))
        assert len(unbounded) == 100
        with pytest.raises(ValueError):
            BoundedSet(cap=-1)


class TestReconcileRoundProtocol:
    def test_round_gating_skips_idle_peers(self):
        """A node whose pool/tip clock has not moved since the last
        completed round with a peer does not re-initiate against it."""
        scenario = ProtocolScenario(
            name="gate", n_nodes=2, duration=30.0, gossip="reconcile"
        )
        sim = Simulator(seed=1)
        net = Network(sim, channel=SynchronousChannel(delta=0.2))
        a = net.register(BitcoinNode("p0", scenario))
        net.register(BitcoinNode("p1", scenario))
        transport = a.transport
        assert isinstance(transport, ReconcileTransport)
        sent = []
        orig = transport._send

        def spy(dst, msg):
            sent.append(msg[0])
            return orig(dst, msg)

        transport._send = spy
        # Nothing changed since start: ticks must not emit REQ forever.
        for _ in range(6):
            transport._maybe_initiate(sim.now)
        reqs = [tag for tag in sent if tag == RECON_REQ]
        assert len(reqs) <= 1  # one opening round at most, then gated
