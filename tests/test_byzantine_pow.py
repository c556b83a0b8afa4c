"""Tests for real-PoW validation and Byzantine miner behaviours."""


from repro.net.channels import SynchronousChannel
from repro.net.process import Network
from repro.net.simulator import Simulator
from repro.protocols.base import ProtocolRun
from repro.protocols.bitcoin import BitcoinNode
from repro.protocols.byzantine import (
    EquivocatingMiner,
    ForgingMiner,
    WithholdingMiner,
)
from repro.workloads.scenarios import ProtocolScenario


def mixed_run(byzantine_cls, n=4, byz_index=0, seed=5, bits=8, duration=120.0):
    """Run a Bitcoin network where one node runs a Byzantine subclass."""
    scenario = ProtocolScenario(
        name="bitcoin",
        n_nodes=n,
        duration=duration,
        mean_block_interval=10.0,
        seed=seed,
        pow_difficulty_bits=bits,
    )

    def configure(net, nodes):
        pass

    sim = Simulator(seed=scenario.seed)
    net = Network(sim, channel=SynchronousChannel(delta=scenario.channel_delta))
    nodes = []
    for i, name in enumerate(scenario.node_names()):
        cls = byzantine_cls if i == byz_index else BitcoinNode
        nodes.append(net.register(cls(name, scenario)))
    net.start()
    sim.run(until=scenario.duration + 60.0)
    for node in nodes:
        node.read()
    return scenario, nodes


class TestRealPoWMode:
    def test_honest_pow_blocks_validate_and_spread(self):
        scenario = ProtocolScenario(
            name="bitcoin",
            duration=100.0,
            mean_block_interval=12.0,
            seed=3,
            pow_difficulty_bits=8,
        )
        run = ProtocolRun.execute(BitcoinNode, scenario)
        finals = run.final_chains()
        assert finals["p0"].height >= 3
        assert len({c.tip.block_id for c in finals.values()}) == 1
        # Every committed block carries a verifiable nonce.
        node = run.nodes[0]
        for block in finals["p0"].non_genesis():
            assert node.validate_incoming(block)

    def test_pow_disabled_accepts_nonce_zero(self):
        scenario = ProtocolScenario(name="bitcoin", pow_difficulty_bits=0)
        node = BitcoinNode("p0", scenario)
        from repro.blocktree.block import GENESIS, make_block

        assert node.validate_incoming(make_block(GENESIS, label="x"))


class TestForgingMiner:
    def test_forged_blocks_rejected_by_honest_nodes(self):
        scenario, nodes = mixed_run(ForgingMiner, seed=7)
        honest = nodes[1:]
        forger = nodes[0]
        assert forger.blocks_mined >= 1
        for node in honest:
            chain = node.selection.select(node.tree)
            creators = {b.creator for b in chain.non_genesis()}
            assert 0 not in creators  # the forger's blocks never enter
            assert node.rejected_blocks  # and were explicitly refused

    def test_honest_chain_still_grows_and_converges(self):
        scenario, nodes = mixed_run(ForgingMiner, seed=7)
        honest = nodes[1:]
        tips = {n.selection.select(n.tree).tip.block_id for n in honest}
        assert len(tips) == 1
        assert honest[0].selection.select(honest[0].tree).height >= 2


class TestEquivocatingMiner:
    def test_network_still_converges_despite_equivocation(self):
        scenario, nodes = mixed_run(EquivocatingMiner, seed=9, bits=0, duration=150.0)
        honest = nodes[1:]
        tips = {n.selection.select(n.tree).tip.block_id for n in honest}
        assert len(tips) == 1

    def test_equivocation_produces_visible_forks(self):
        scenario, nodes = mixed_run(EquivocatingMiner, seed=9, bits=0, duration=150.0)
        max_forks = max(n.tree.max_fork_degree() for n in nodes[1:])
        assert max_forks >= 2


class TestWithholdingMiner:
    def test_withheld_blocks_eventually_released(self):
        scenario, nodes = mixed_run(WithholdingMiner, seed=11, bits=0, duration=150.0)
        withholder = nodes[0]
        honest = nodes[1:]
        assert withholder.blocks_mined >= 1
        # After release + settle, honest nodes know the withheld blocks
        # that ended up on the main chain.
        tips = {n.selection.select(n.tree).tip.block_id for n in honest}
        assert len(tips) == 1

    def test_withholding_extends_divergence_window(self):
        from repro.analysis.metrics import convergence_lags

        scenario = ProtocolScenario(
            name="bitcoin", duration=200.0, mean_block_interval=10.0, seed=13
        )
        baseline = ProtocolRun.execute(BitcoinNode, scenario)
        base_lags = convergence_lags(baseline)

        sim = Simulator(seed=scenario.seed)
        net = Network(sim, channel=SynchronousChannel(delta=scenario.channel_delta))
        nodes = [
            net.register(
                (WithholdingMiner if i == 0 else BitcoinNode)(f"p{i}", scenario)
            )
            for i in range(scenario.n_nodes)
        ]
        net.start()
        sim.run(until=scenario.duration + 60.0)
        from repro.protocols.base import ProtocolRun as PR

        selfish = PR(
            scenario=scenario,
            history=net.recorder.history(),
            nodes=nodes,
            network=net,
            simulator=sim,
        )
        selfish_lags = convergence_lags(selfish)
        if base_lags and selfish_lags:
            assert max(selfish_lags) >= max(base_lags)
