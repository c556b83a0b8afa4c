"""Tests for the scenario subsystem: generators, validation, smoke runs.

Covers the three scenario layers: deterministic tree workloads
(:class:`TreeScenario`), the adversarial network matrix
(:class:`AdversarialScenario` compiled into channels/faults) and the
simulator plumbing (periodic sampling) they ride on.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.net.channels import SynchronousChannel
from repro.net.simulator import Simulator
from repro.protocols.bitcoin import run_bitcoin
from repro.workloads.scenarios import (
    AdversarialScenario,
    ChurnEvent,
    PartitionWindow,
    ProtocolScenario,
    TrafficBurst,
    TreeScenario,
    adversarial_scenarios,
    skewed_merits,
    tree_scenarios,
)


class TestTreeScenarioGenerators:
    @pytest.mark.parametrize("name", sorted(tree_scenarios()))
    def test_deterministic_per_seed(self, name):
        scenario = tree_scenarios()[name].at_scale(1200)
        ids_a = [b.block_id for b in scenario.blocks()]
        ids_b = [b.block_id for b in scenario.blocks()]
        assert ids_a == ids_b
        assert len(ids_a) == 1200
        assert scenario.build().freeze() == scenario.build().freeze()

    def test_different_seed_different_stream(self):
        base = tree_scenarios()["forky-10k"].at_scale(300)
        other = dataclasses.replace(base, seed=base.seed + 1)
        assert [b.block_id for b in base.blocks()] != [
            b.block_id for b in other.blocks()
        ]

    def test_streams_are_parent_before_child(self):
        for scenario in tree_scenarios().values():
            tree = scenario.at_scale(500).build()  # add_block raises on orphans
            assert len(tree) == 501

    def test_shapes_differ_by_scenario(self):
        trees = {
            name: sc.at_scale(800).build() for name, sc in tree_scenarios().items()
        }
        assert len(trees["linear-10k"].leaves()) == 1
        assert len(trees["forky-10k"].leaves()) > 10
        assert trees["bursty-10k"].max_fork_degree() >= 6
        # Selfish overtaking keeps the winner flipping between branches:
        # the chain is much shorter than the block count.
        heights = {
            name: max(t.height(b.block_id) for b in t.blocks())
            for name, t in trees.items()
        }
        assert heights["selfish-10k"] < heights["linear-10k"]

    def test_at_scale_preserves_shape_parameters(self):
        scaled = tree_scenarios()["selfish-10k"].at_scale(50_000)
        assert scaled.n_blocks == 50_000
        assert scaled.selfish_lead == tree_scenarios()["selfish-10k"].selfish_lead

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_blocks=0),
            dict(fork_rate=1.5),
            dict(fork_rate=-0.1),
            dict(fork_window=0),
            dict(weight_profile="gaussian"),
            dict(selfish_lead=-1),
            dict(selfish_lead=2, selfish_power=0.0),
            dict(selfish_lead=2, selfish_power=1.0),
            dict(burst_every=-3),
            dict(burst_every=10, burst_width=0),
            dict(name=""),
        ],
    )
    def test_parameter_validation(self, kwargs):
        params = dict(name="bad", n_blocks=100)
        params.update(kwargs)
        with pytest.raises(ValueError):
            TreeScenario(**params)


class TestAdversarialScenarioValidation:
    def test_partition_must_reference_known_nodes(self):
        with pytest.raises(ValueError):
            AdversarialScenario(
                name="p",
                n_nodes=2,
                partitions=(PartitionWindow(groups=(("p0",), ("p9",))),),
            )

    def test_partition_groups_must_be_disjoint(self):
        with pytest.raises(ValueError):
            AdversarialScenario(
                name="p",
                n_nodes=2,
                partitions=(PartitionWindow(groups=(("p0",), ("p0", "p1"))),),
            )

    def test_partition_needs_two_groups(self):
        with pytest.raises(ValueError):
            AdversarialScenario(
                name="p", n_nodes=2, partitions=(PartitionWindow(groups=(("p0",),)),)
            )

    def test_partition_heals_after_start(self):
        with pytest.raises(ValueError):
            AdversarialScenario(
                name="p",
                n_nodes=2,
                partitions=(
                    PartitionWindow(groups=(("p0",), ("p1",)), start=50.0, heal_at=10.0),
                ),
            )

    def test_churn_rejoin_after_leave(self):
        with pytest.raises(ValueError):
            AdversarialScenario(
                name="c",
                n_nodes=2,
                churn=(ChurnEvent(node="p0", leave_at=30.0, rejoin_at=30.0),),
            )

    def test_churn_unknown_node(self):
        with pytest.raises(ValueError):
            AdversarialScenario(
                name="c", n_nodes=2, churn=(ChurnEvent(node="p7", leave_at=1.0),)
            )

    def test_burst_factor_positive(self):
        with pytest.raises(ValueError):
            AdversarialScenario(
                name="b", n_nodes=2, bursts=(TrafficBurst(at=0, duration=10, factor=0),)
            )

    def test_burst_start_not_negative(self):
        with pytest.raises(ValueError):
            TrafficBurst(at=-1.0, duration=10.0).validate()

    def test_selfish_node_must_exist(self):
        with pytest.raises(ValueError):
            AdversarialScenario(name="s", n_nodes=2, selfish_nodes=("p5",))

    def test_merits_length_checked(self):
        with pytest.raises(ValueError):
            ProtocolScenario(name="m", n_nodes=3, merits=(0.5, 0.5))

    def test_burst_compresses_interval_only_in_window(self):
        scenario = AdversarialScenario(
            name="b",
            mean_block_interval=20.0,
            bursts=(TrafficBurst(at=100.0, duration=50.0, factor=4.0),),
        )
        assert scenario.block_interval_at(50.0) == 20.0
        assert scenario.block_interval_at(100.0) == 5.0
        assert scenario.block_interval_at(149.9) == 5.0
        assert scenario.block_interval_at(150.0) == 20.0


class TestOneScenarioType:
    def test_adversarial_scenario_is_protocol_scenario(self):
        assert AdversarialScenario is ProtocolScenario

    def test_fault_free_scenario_compiles_to_a_bare_channel(self):
        scenario = ProtocolScenario(name="plain", channel_delta=2.5)
        channel, faults = scenario.build_channel()
        assert type(channel) is SynchronousChannel
        assert channel == SynchronousChannel(delta=2.5)
        assert faults == {}
        assert scenario.lifecycle_schedule() == ()
        assert scenario.initially_offline() == frozenset()
        assert scenario.byzantine_map() == {}
        for now in (0.0, 17.5, scenario.duration, 1e9):
            assert scenario.block_interval_at(now) == scenario.mean_block_interval


class TestSkewedMerits:
    def test_normalized_and_deterministic(self):
        merits = skewed_merits(6, exponent=1.4, seed=3)
        assert len(merits) == 6
        assert sum(merits) == pytest.approx(1.0)
        assert merits == skewed_merits(6, exponent=1.4, seed=3)
        assert merits != skewed_merits(6, exponent=1.4, seed=4)

    def test_skew_grows_with_exponent(self):
        flat = skewed_merits(8, exponent=0.0, seed=0)
        steep = skewed_merits(8, exponent=2.0, seed=0)
        assert max(flat) == pytest.approx(1 / 8)
        assert max(steep) > 0.5

    def test_usable_as_scenario_merits(self):
        scenario = ProtocolScenario(name="skew", n_nodes=5, merits=skewed_merits(5))
        assert sum(scenario.merit_of(i) for i in range(5)) == pytest.approx(1.0)


class TestAdversarialSmokeRuns:
    """Each adversarial axis actually bites when run through the simulator."""

    def test_partition_splits_the_network(self):
        scenario = dataclasses.replace(
            adversarial_scenarios(n_nodes=4, duration=240.0)["partition-heal"],
            mean_block_interval=6.0,
        )
        run = run_bitcoin(scenario)
        (partition,) = run.faults["partitions"]
        assert partition.dropped > 0
        # Flooding is forward-once with no catch-up sync, so blocks mined
        # during the split never cross afterwards: each side converges
        # internally but the sides stay divorced — the partition-prone
        # environment in which Eventual Prefix provably fails.
        chains = {k: c.block_ids() for k, c in run.final_chains().items()}
        assert chains["p0"] == chains["p1"]
        assert chains["p2"] == chains["p3"]
        assert chains["p0"] != chains["p2"]

    def test_churn_isolates_nodes(self):
        scenario = adversarial_scenarios(n_nodes=4, duration=160.0)["node-churn"]
        run = run_bitcoin(scenario)
        assert run.faults["churn"].dropped > 0

    def test_selfish_withholding_delays_own_blocks(self):
        scenario = AdversarialScenario(
            name="selfish-strong",
            n_nodes=4,
            duration=200.0,
            mean_block_interval=10.0,
            merits=(0.7, 0.1, 0.1, 0.1),  # the selfish node dominates
            selfish_nodes=("p0",),
        )
        run = run_bitcoin(scenario)
        assert run.faults["selfish"].delayed > 0

    def test_burst_speeds_up_production(self):
        quiet = AdversarialScenario(
            name="quiet", n_nodes=3, duration=200.0, mean_block_interval=20.0, seed=5
        )
        bursty = dataclasses.replace(
            quiet,
            name="bursty",
            bursts=(TrafficBurst(at=40.0, duration=120.0, factor=8.0),),
        )
        blocks_quiet = max(len(n.tree) for n in run_bitcoin(quiet).nodes)
        blocks_bursty = max(len(n.tree) for n in run_bitcoin(bursty).nodes)
        assert blocks_bursty > blocks_quiet

    def test_metrics_sampling_records_time_series(self):
        scenario = adversarial_scenarios(n_nodes=4, duration=160.0)["skewed-merit"]
        run = run_bitcoin(scenario)
        assert len(run.samples) > 5
        times = [t for t, _, _ in run.samples]
        assert times == sorted(times)
        assert all(t <= scenario.duration for t in times)

    def test_runs_are_deterministic_per_seed(self):
        scenario = adversarial_scenarios(n_nodes=4, duration=160.0)["partition-heal"]
        run_a = run_bitcoin(scenario)
        run_b = run_bitcoin(scenario)
        chains_a = {k: c.block_ids() for k, c in run_a.final_chains().items()}
        chains_b = {k: c.block_ids() for k, c in run_b.final_chains().items()}
        assert chains_a == chains_b
        assert len(run_a.history.operations()) == len(run_b.history.operations())


class TestSimulatorEvery:
    def test_fires_at_interval_until_bound(self):
        sim = Simulator(seed=0)
        fired = []
        sim.every(10.0, lambda: fired.append(sim.now), until=55.0)
        sim.run(until=200.0)
        assert fired == [10.0, 20.0, 30.0, 40.0, 50.0]

    def test_rejects_nonpositive_interval(self):
        sim = Simulator(seed=0)
        with pytest.raises(ValueError):
            sim.every(0.0, lambda: None)
