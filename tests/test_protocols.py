"""Integration tests for the seven Table 1 protocol models."""

import pytest

from repro.blocktree.score import LengthScore
from repro.blocktree.tree import BlockTree
from repro.consensus.ordering import DELIVER
from repro.consistency.criteria import BTEventualConsistency, BTStrongConsistency
from repro.net.broadcast import check_lrc, check_update_agreement
from repro.net.channels import SynchronousChannel
from repro.net.process import Network
from repro.net.simulator import Simulator
from repro.protocols.algorand import run_algorand
from repro.protocols.bitcoin import run_bitcoin
from repro.protocols.byzcoin import run_byzcoin
from repro.protocols.ethereum import run_ethereum
from repro.protocols.hyperledger import HyperledgerNode, run_hyperledger
from repro.protocols.peercensus import run_peercensus
from repro.protocols.redbelly import run_redbelly
from repro.workloads.scenarios import ProtocolScenario

SCORE = LengthScore()

FAST = dict(duration=150.0, seed=11)


class TestBitcoin:
    @pytest.fixture(scope="class")
    def run(self):
        return run_bitcoin(
            ProtocolScenario(
                name="bitcoin", mean_block_interval=10.0, channel_delta=3.0, **FAST
            )
        )

    def test_chains_converge(self, run):
        finals = run.final_chains()
        tips = {c.tip.block_id for c in finals.values()}
        assert len(tips) == 1

    def test_chain_grows(self, run):
        assert run.final_chains()["p0"].height >= 5

    def test_eventual_but_not_strong(self, run):
        h = run.history.purged()
        assert BTEventualConsistency(score=SCORE).check(h).ok
        # Bitcoin forks under this contended scenario; SC must fail.
        assert not BTStrongConsistency(score=SCORE).check(h).ok

    def test_lrc_and_update_agreement_hold(self, run):
        correct = run.node_names
        assert all(c.ok for c in check_update_agreement(run.history, correct).values())
        assert all(c.ok for c in check_lrc(run.history, correct).values())

    def test_deterministic_replay(self):
        s = ProtocolScenario(name="bitcoin", duration=80.0, seed=3)
        r1, r2 = run_bitcoin(s), run_bitcoin(s)
        assert r1.final_chains()["p0"].block_ids() == r2.final_chains()["p0"].block_ids()
        assert len(r1.history.events) == len(r2.history.events)

    def test_merit_drives_block_share(self):
        s = ProtocolScenario(
            name="bitcoin",
            n_nodes=3,
            merits=(0.8, 0.1, 0.1),
            duration=500.0,
            mean_block_interval=8.0,
            seed=5,
        )
        run = run_bitcoin(s)
        chain = run.final_chains()["p0"]
        creators = [b.creator for b in chain.non_genesis()]
        share0 = creators.count(0) / len(creators)
        assert share0 > 0.5  # 80% hash power ⇒ majority of blocks


class TestEthereum:
    @pytest.fixture(scope="class")
    def run(self):
        return run_ethereum(
            ProtocolScenario(
                name="ethereum", mean_block_interval=6.0, channel_delta=3.0, **FAST
            )
        )

    def test_uses_ghost(self, run):
        assert run.nodes[0].selection.name == "ghost"

    def test_converges_and_ec(self, run):
        finals = run.final_chains()
        assert len({c.tip.block_id for c in finals.values()}) == 1
        assert BTEventualConsistency(score=SCORE).check(run.history.purged()).ok

    def test_faster_blocks_than_bitcoin(self, run):
        bit = run_bitcoin(
            ProtocolScenario(
                name="bitcoin", mean_block_interval=10.0, channel_delta=3.0, **FAST
            )
        )
        assert len(run.nodes[0].tree) >= len(bit.nodes[0].tree)


class TestCommitteeProtocols:
    @pytest.mark.parametrize(
        "runner,name",
        [
            (run_byzcoin, "byzcoin"),
            (run_peercensus, "peercensus"),
        ],
    )
    def test_strong_consistency_and_no_forks(self, runner, name):
        run = runner(
            ProtocolScenario(name=name, mean_block_interval=20.0, duration=200.0, seed=9)
        )
        assert run.max_fork_degree() == 1
        h = run.history.purged()
        assert BTStrongConsistency(score=SCORE).check(h).ok
        finals = run.final_chains()
        assert len({c.tip.block_id for c in finals.values()}) == 1
        assert finals["p0"].height >= 3

    def test_byzcoin_smallest_digest_rule(self):
        from repro.blocktree.block import GENESIS, make_block
        from repro.protocols.byzcoin import ByzCoinNode

        node = ByzCoinNode.__new__(ByzCoinNode)
        node.candidates = {}
        node.committed_height = 0
        a = make_block(GENESIS, label="aa")
        b = make_block(GENESIS, label="bb")
        node.candidates[1] = [a, b]
        best = ByzCoinNode.best_candidate(node, 1)
        assert best.block_id == min(a.block_id, b.block_id)


class TestAlgorand:
    @pytest.fixture(scope="class")
    def run(self):
        return run_algorand(
            ProtocolScenario(name="algorand", round_length=25.0, duration=200.0, seed=4)
        )

    def test_one_block_per_round_no_forks(self, run):
        assert run.max_fork_degree() == 1

    def test_strong_consistency(self, run):
        assert BTStrongConsistency(score=SCORE).check(run.history.purged()).ok

    def test_all_nodes_agree(self, run):
        finals = run.final_chains()
        assert len({c.block_ids() for c in finals.values()}) == 1


class TestRedBelly:
    @pytest.fixture(scope="class")
    def run(self):
        return run_redbelly(
            ProtocolScenario(name="redbelly", round_length=30.0, n_nodes=4,
                             duration=200.0, seed=6)
        )

    def test_superblocks_contain_multiple_proposals(self, run):
        chain = run.final_chains()["p0"]
        # Superblocks merge proposals: payload larger than one node's batch.
        big = [b for b in chain.non_genesis() if len(b.payload) > run.scenario.tx_per_block]
        assert big, "no superblock merged more than one proposal"

    def test_strong_consistency(self, run):
        assert BTStrongConsistency(score=SCORE).check(run.history.purged()).ok
        assert run.max_fork_degree() == 1


class TestHyperledger:
    @pytest.fixture(scope="class")
    def run(self):
        return run_hyperledger(
            ProtocolScenario(name="hyperledger", round_length=15.0, duration=200.0, seed=8)
        )

    def test_identical_chains_everywhere(self, run):
        finals = run.final_chains()
        assert len({c.block_ids() for c in finals.values()}) == 1

    def test_strong_consistency(self, run):
        assert BTStrongConsistency(score=SCORE).check(run.history.purged()).ok

    def test_orderer_cluster_is_prefix(self, run):
        assert run.nodes[0].is_orderer
        assert not run.nodes[4].is_orderer

    def test_peers_get_blocks_from_orderers(self, run):
        # Non-orderer peers hold the same chain height as orderers.
        finals = run.final_chains()
        assert finals["p4"].height == finals["p0"].height >= 3

    def test_redelivery_after_recovery_appends_nothing(self, tmp_path):
        """The delivered-sequence index is rebuilt from the replayed tree:
        a sequence already in it is not appended a second time, whichever
        message re-delivers it."""
        scenario = ProtocolScenario(
            name="hyperledger", n_nodes=4, store="log", store_dir=str(tmp_path)
        )
        net = Network(Simulator(seed=1), channel=SynchronousChannel(delta=1.0))
        nodes = [
            net.register(HyperledgerNode(name, scenario))
            for name in scenario.node_names()
        ]
        peer = nodes[3]
        assert not peer.is_orderer
        batches = [("p0", seq, (f"tx{seq}",)) for seq in range(3)]
        peer.on_message("p0", ("hl-block", 0, batches[0]))
        peer.on_message("p0", (DELIVER, 0, 1, batches[1]))
        peer.lifecycle_crash()
        peer.lifecycle_recover()
        replayed = sorted(b.label for b in peer.tree.blocks())
        assert replayed == ["b0", "blk0", "blk1"]
        appends = peer.report("appends")
        begun = appends["begun"]
        peer.on_message("p0", (DELIVER, 0, 0, batches[0]))
        peer.on_message("p0", ("hl-block", 1, batches[1]))
        assert (len(peer.tree), appends["begun"]) == (3, begun)
        peer.on_message("p0", ("hl-block", 2, batches[2]))
        assert (len(peer.tree), appends["begun"]) == (4, begun + 1)

    def test_delivery_path_never_scans_the_tree(self, monkeypatch):
        calls = {"deliveries": 0, "scans": 0}
        delivering = []
        blocks, append = BlockTree.blocks, HyperledgerNode._append_block

        def counted_blocks(tree):
            calls["scans"] += bool(delivering)
            return blocks(tree)

        def counted_append(node, seq, batch):
            calls["deliveries"] += 1
            delivering.append(seq)
            try:
                append(node, seq, batch)
            finally:
                delivering.pop()

        monkeypatch.setattr(BlockTree, "blocks", counted_blocks)
        monkeypatch.setattr(HyperledgerNode, "_append_block", counted_append)
        run_hyperledger(
            ProtocolScenario(
                name="hyperledger", round_length=15.0, duration=80.0, seed=8
            )
        )
        assert calls["deliveries"] > 0
        assert calls["scans"] == 0
