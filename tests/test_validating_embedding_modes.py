"""Tests for contextual tx validation and the sequential-consistency mode."""


from repro.blocktree.block import GENESIS, make_block
from repro.blocktree.chain import Chain
from repro.blocktree.selection import LongestChain
from repro.consistency.embedding import linearize_bt_history
from repro.histories.builder import HistoryRecorder
from repro.net.channels import SynchronousChannel
from repro.net.process import Network
from repro.net.simulator import Simulator
from repro.protocols.validating import DoubleSpendMiner, ValidatingBitcoinNode
from repro.workloads.scenarios import ProtocolScenario


def mixed_validation_run(seed=17, duration=150.0):
    scenario = ProtocolScenario(
        name="bitcoin",
        n_nodes=4,
        duration=duration,
        mean_block_interval=10.0,
        seed=seed,
    )
    sim = Simulator(seed=scenario.seed)
    net = Network(sim, channel=SynchronousChannel(delta=scenario.channel_delta))
    nodes = []
    for i, name in enumerate(scenario.node_names()):
        cls = DoubleSpendMiner if i == 0 else ValidatingBitcoinNode
        nodes.append(net.register(cls(name, scenario)))
    net.start()
    sim.run(until=scenario.duration + 60.0)
    return nodes


class TestContextualValidation:
    def test_honest_blocks_pass_context_check(self):
        scenario = ProtocolScenario(name="bitcoin", duration=100.0, seed=3)
        from repro.protocols.base import ProtocolRun

        run = ProtocolRun.execute(ValidatingBitcoinNode, scenario)
        assert run.final_chains()["p0"].height >= 2

    def test_double_spender_first_block_ok_rest_rejected(self):
        nodes = mixed_validation_run()
        honest = nodes[1:]
        for node in honest:
            chain = node.selection.select(node.tree)
            attacker_blocks = [b for b in chain.non_genesis() if b.creator == 0]
            # At most one attacker block (the first genesis-coin-0 spend)
            # can ever be valid on any single chain.
            assert len(attacker_blocks) <= 1

    def test_conflicting_spends_never_coexist_on_a_chain(self):
        from repro.workloads.transactions import ChainValidator

        nodes = mixed_validation_run()
        validator = ChainValidator()
        for node in nodes[1:]:
            chain = node.selection.select(node.tree)
            assert validator.chain_valid(chain)

    def test_rejections_recorded(self):
        nodes = mixed_validation_run()
        attacker = nodes[0]
        if attacker.blocks_mined >= 2:
            assert any(node.rejected_blocks for node in nodes[1:])


class TestSequentialConsistencyMode:
    SELECTION = LongestChain()

    def test_stale_cross_process_read_sc_but_not_lin(self):
        """j reads genesis strictly after i's height-1 read completed:
        not linearizable, but sequentially consistent (j's op can be
        reordered before the append since only process order binds)."""
        b1 = make_block(GENESIS, label="1")
        rec = HistoryRecorder()
        ap = rec.begin("env", "append", (b1.block_id, b1.parent_id))
        rec.end("env", ap, "append", True)
        rec.record_read("i", Chain.of([GENESIS, b1]))
        rec.record_read("j", Chain.genesis())  # stale, non-overlapping
        h = rec.history()
        lin = linearize_bt_history(h, self.SELECTION, real_time=True)
        seq = linearize_bt_history(h, self.SELECTION, real_time=False)
        assert not lin.ok and lin.decided
        assert seq.ok

    def test_per_process_order_still_binds_in_sc_mode(self):
        """A single process reading height 1 then genesis is not even
        sequentially consistent (local monotonicity broken)."""
        b1 = make_block(GENESIS, label="1")
        rec = HistoryRecorder()
        ap = rec.begin("env", "append", (b1.block_id, b1.parent_id))
        rec.end("env", ap, "append", True)
        rec.record_read("i", Chain.of([GENESIS, b1]))
        rec.record_read("i", Chain.genesis())
        h = rec.history()
        seq = linearize_bt_history(h, self.SELECTION, real_time=False)
        assert seq.decided and not seq.ok

    def test_linearizable_implies_sequentially_consistent(self):
        b1 = make_block(GENESIS, label="1")
        rec = HistoryRecorder()
        ap = rec.begin("p", "append", (b1.block_id, b1.parent_id))
        rec.end("p", ap, "append", True)
        rec.record_read("p", Chain.of([GENESIS, b1]))
        h = rec.history()
        assert linearize_bt_history(h, self.SELECTION, real_time=True).ok
        assert linearize_bt_history(h, self.SELECTION, real_time=False).ok

    def test_forked_reads_fail_both_modes(self):
        b1 = make_block(GENESIS, label="1")
        b2 = make_block(GENESIS, label="2")
        rec = HistoryRecorder()
        for b in (b1, b2):
            ap = rec.begin("env", "append", (b.block_id, b.parent_id))
            rec.end("env", ap, "append", True)
        rec.record_read("i", Chain.of([GENESIS, b1]))
        rec.record_read("j", Chain.of([GENESIS, b2]))
        h = rec.history()
        # Two sibling appends can never both be formal BT-ADT appends:
        # the second must extend the first (f selects the longer chain).
        assert not linearize_bt_history(h, self.SELECTION, real_time=True).ok
        assert not linearize_bt_history(h, self.SELECTION, real_time=False).ok
