"""Campaign engine: grid expansion, seed hygiene, parallel determinism,
single-cell parity with ``classify_protocol``, and the CLI front end."""

import json
from dataclasses import replace

import pytest

from repro.campaign import (
    PROTOCOLS,
    SCENARIO_PRESETS,
    CampaignGrid,
    run_campaign,
    run_single_cell,
)
from repro.campaign.__main__ import main as campaign_main
from repro.campaign.grid import AUTH_SCENARIO_PRESETS, SHARD_SCENARIO_PRESETS
from repro.protocols import classify_all, classify_protocol
from repro.protocols.classify import majority_view
from repro.workloads import default_scenarios
from repro.workloads.scenarios import TreeScenario, derive_seed

QUICK = dict(duration=60.0)


def quick_grid(**overrides):
    spec = dict(
        protocols=("bitcoin", "hyperledger"),
        scenarios=("default", "partition-heal"),
        seeds=(2024,),
        n_nodes=4,
        duration=60.0,
    )
    spec.update(overrides)
    return CampaignGrid(**spec)


class TestGridExpansion:
    def test_size_and_row_major_order(self):
        grid = quick_grid(seeds=(1, 2))
        cells = grid.expand()
        assert len(cells) == grid.size() == 2 * 2 * 2
        assert [c.cell_id for c in cells[:4]] == [
            "bitcoin/default/0",
            "bitcoin/default/1",
            "bitcoin/partition-heal/0",
            "bitcoin/partition-heal/1",
        ]

    def test_baseline_seed_keeps_preset_verbatim(self):
        grid = CampaignGrid(
            protocols=("bitcoin",), scenarios=("default",), seeds=(None,)
        )
        (cell,) = grid.expand()
        assert cell.scenario == default_scenarios()["bitcoin"]

    def test_derived_seeds_are_distinct_across_cells(self):
        grid = CampaignGrid(seeds=(2024, 2024 + 1), duration=60.0)
        seeds = [c.scenario.seed for c in grid.expand()]
        assert len(set(seeds)) == len(seeds)  # 7 × 6 × 2 distinct streams

    def test_durable_store_gets_per_cell_directories(self, tmp_path):
        grid = quick_grid(store="log", workdir=str(tmp_path))
        dirs = [c.scenario.store_dir for c in grid.expand()]
        assert len(set(dirs)) == len(dirs)
        assert all(d.startswith(str(tmp_path)) for d in dirs)

    def test_auto_workdir_is_created_once_and_reused(self):
        import os

        grid = quick_grid(store="log")
        first = [c.scenario.store_dir for c in grid.expand()]
        second = [c.scenario.store_dir for c in grid.expand()]
        assert first == second  # one cached temp root, not one per expand
        root = grid.effective_workdir()
        assert os.path.isdir(root)
        grid.cleanup_workdir()
        assert not os.path.isdir(root)

    def test_run_campaign_cleans_auto_workdir(self):
        grid = quick_grid(
            protocols=("hyperledger",), scenarios=("default",), store="log"
        )
        matrix = run_campaign(grid)
        assert len(matrix.cells) == 1
        import os

        assert not os.path.isdir(grid.expand()[0].scenario.store_dir)

    def test_metrics_interval_injected_except_baselines(self):
        grid = quick_grid(seeds=(None, 2024), metrics_interval=10.0)
        for cell in grid.expand():
            if cell.seed_index == 0:  # baseline: preset kept verbatim
                preset = grid.preset_scenario(cell.protocol, cell.scenario_name)
                assert cell.scenario.metrics_interval == preset.metrics_interval
            else:  # derived cells without a series get one injected
                assert cell.scenario.metrics_interval > 0.0

    def test_rejects_unknown_axes(self):
        with pytest.raises(ValueError):
            CampaignGrid(protocols=("dogecoin",))
        with pytest.raises(ValueError):
            CampaignGrid(scenarios=("meteor-strike",))
        with pytest.raises(ValueError):
            CampaignGrid(seeds=())
        with pytest.raises(ValueError):
            CampaignGrid(store="bogus")  # surfaces before any workdir exists
        # What the scenario knobs accept is the scenario's decision, but
        # a bad value still fails at grid construction, not per cell.
        for bad in (
            dict(gossip="carrier-pigeon"),
            dict(topology="torus"),
            dict(topology="ring", topology_degree=1),
        ):
            with pytest.raises(ValueError):
                CampaignGrid(**bad)

    def test_axes_are_pinned(self):
        """The axes derive from ``RUNNERS`` and the preset registry; a
        reorder there would silently reorder every grid and artifact."""
        assert PROTOCOLS == (
            "bitcoin",
            "ethereum",
            "algorand",
            "byzcoin",
            "peercensus",
            "redbelly",
            "hyperledger",
        )
        assert SCENARIO_PRESETS == (
            "default",
            "partition-heal",
            "node-churn",
            "selfish-miner",
            "skewed-merit",
            "burst-traffic",
            "crash-rejoin",
            "late-join",
            "eclipse-heal",
            "client-steady",
            "spam-flood",
        )
        assert SHARD_SCENARIO_PRESETS == ("shard-uniform", "shard-hot")
        assert AUTH_SCENARIO_PRESETS == (
            "forged-signature",
            "equivocating-signer",
            "stolen-identity",
        )


class TestSeedHygiene:
    def test_cells_differing_only_in_index_diverge(self):
        scenario = default_scenarios()["bitcoin"]
        a = scenario.for_cell("bitcoin", 0)
        b = scenario.for_cell("bitcoin", 1)
        assert a.seed != b.seed
        assert a == scenario.for_cell("bitcoin", 0)  # same cell replays

    def test_tree_cells_differing_only_in_index_have_different_schedules(self):
        base = TreeScenario(name="hygiene", n_blocks=300, fork_rate=0.1)
        ids_0 = [b.block_id for b in base.for_cell(0).blocks()]
        ids_1 = [b.block_id for b in base.for_cell(1).blocks()]
        assert ids_0 != ids_1
        assert ids_0 == [b.block_id for b in base.for_cell(0).blocks()]

    def test_derive_seed_covers_every_coordinate(self):
        seen = {
            derive_seed(2024, protocol, scenario, index)
            for protocol in PROTOCOLS
            for scenario in SCENARIO_PRESETS
            for index in range(3)
        }
        assert len(seen) == len(PROTOCOLS) * len(SCENARIO_PRESETS) * 3

    def test_replicas_draw_distinct_transaction_streams(self):
        # The old txgen seeding (``seed * 1000 + index``) ignored the
        # scenario name, so the same replica of two scenarios sharing a
        # literal seed drew the *same* transaction stream.
        from repro.protocols.bitcoin import BitcoinNode
        from repro.workloads.scenarios import ProtocolScenario

        cell_a = ProtocolScenario(name="cell-a", seed=7)
        cell_b = ProtocolScenario(name="cell-b", seed=7)

        def first_batch(replica, scenario):
            return BitcoinNode(replica, scenario).txgen.batch(5)

        assert first_batch("p0", cell_a) != first_batch("p0", cell_b)  # across cells
        assert first_batch("p0", cell_a) != first_batch("p1", cell_a)  # across replicas
        # Same (scenario, replica) coordinate replays identically.
        assert first_batch("p0", cell_a) == first_batch("p0", cell_a)

    def test_degenerate_zero_duration_cell_runs(self):
        run = run_single_cell("bitcoin", replace(default_scenarios()["bitcoin"], duration=0.0))
        assert run.row.blocks_committed == 0


LIFECYCLE = dict(
    protocols=("bitcoin", "hyperledger"),
    scenarios=("crash-rejoin", "late-join", "eclipse-heal"),
    duration=120.0,
)


class TestCampaignDeterminism:
    @pytest.mark.parametrize(
        "overrides",
        [
            pytest.param({}, id="default"),
            pytest.param(
                dict(
                    protocols=("bitcoin", "byzcoin"),
                    scenarios=("client-steady", "partition-heal"),
                    duration=120.0,
                    gossip="reconcile",
                ),
                id="reconcile",
            ),
            pytest.param(
                dict(
                    protocols=("bitcoin",),
                    scenarios=AUTH_SCENARIO_PRESETS,
                    duration=240.0,
                ),
                id="auth",
            ),
            pytest.param(dict(LIFECYCLE, gossip="flood"), id="lifecycle-flood"),
            pytest.param(dict(LIFECYCLE, gossip="reconcile"), id="lifecycle-reconcile"),
            # n=10 is the smallest fleet a degree-8 overlay leaves sparse;
            # the partition-heal cell still classifies EC there.
            pytest.param(
                dict(
                    protocols=("bitcoin",),
                    scenarios=("partition-heal",),
                    n_nodes=10,
                    duration=240.0,
                    topology="small-world",
                    topology_degree=8,
                ),
                id="small-world",
            ),
        ],
    )
    def test_serial_and_parallel_matrices_identical(self, overrides):
        grid = quick_grid(**overrides)
        serial = run_campaign(grid)
        parallel = run_campaign(grid, workers=2)
        assert serial.to_dict(include_timing=False) == parallel.to_dict(
            include_timing=False
        )

    def test_same_grid_replays_identically(self):
        grid = quick_grid()
        a = run_campaign(grid)
        b = run_campaign(grid)
        assert a.to_dict(include_timing=False) == b.to_dict(include_timing=False)

    def test_no_unknown_append_resolutions_across_grid(self):
        matrix = run_campaign(quick_grid())
        assert matrix.total_unknown_append_resolutions() == 0


def shard_grid(**overrides):
    spec = dict(
        protocols=("bitcoin",),
        scenarios=("shard-uniform", "shard-hot"),
        seeds=(2024,),
        n_nodes=4,
        duration=120.0,
    )
    spec.update(overrides)
    return CampaignGrid(**spec)


class TestShardCampaign:
    """The sharded presets as grid axes (see ``repro.shard``)."""

    def test_shard_presets_are_bitcoin_only(self):
        with pytest.raises(ValueError, match="bitcoin only"):
            shard_grid(protocols=("bitcoin", "hyperledger"))

    def test_serial_and_parallel_shard_stats_identical(self):
        grid = shard_grid()
        serial = run_campaign(grid)
        parallel = run_campaign(grid, workers=2)
        # The whole matrix — *including* every cell's shard stats,
        # which carry the composed atomicity verdict — must fold
        # identically regardless of worker count.
        assert serial.to_dict(include_timing=False) == parallel.to_dict(
            include_timing=False
        )
        for cell in serial.cells:
            assert cell.shard is not None, cell.cell_id
            assert cell.shard["shards"] == 4
            assert cell.shard["atomicity"]["ok"], (
                cell.cell_id,
                cell.shard["atomicity"]["violations"],
            )
        # Non-vacuous: the grid actually exercised the two-phase path.
        locks = sum(
            c.shard["aggregate"]["cross_shard"]["locks"] for c in serial.cells
        )
        assert locks > 0

    def test_cli_exposes_shard_presets(self, tmp_path, capsys):
        json_path = tmp_path / "shard.json"
        rc = campaign_main(
            [
                "--protocols", "bitcoin",
                "--scenarios", "shard-uniform,shard-hot",
                "--seeds", "baseline",
                "--duration", "90",
                "--workers", "1",
                "--json", str(json_path),
            ]
        )
        assert rc == 0
        assert "shard-uniform" in capsys.readouterr().out
        payload = json.loads(json_path.read_text())
        assert {c["scenario"] for c in payload["cells"]} == {
            "shard-uniform",
            "shard-hot",
        }
        for cell in payload["cells"]:
            assert cell["shard"]["atomicity"]["ok"]


class TestSingleCellParity:
    def test_classify_protocol_is_the_single_cell_wrapper(self):
        scenario = replace(default_scenarios()["hyperledger"], **QUICK)
        assert classify_protocol("hyperledger", scenario) == run_single_cell(
            "hyperledger", scenario
        ).row

    def test_default_column_reproduces_classify_rows(self):
        scenario = replace(default_scenarios()["byzcoin"], **QUICK)
        grid = CampaignGrid(
            protocols=("byzcoin",), scenarios=("default",), seeds=(None,),
            duration=QUICK["duration"],
        )
        (cell_row,) = [c.row for c in run_campaign(grid).cells]
        assert cell_row == classify_protocol("byzcoin", scenario)

    def test_default_column_reproduces_classify_all(self):
        """Table 1: the default column equals ``classify_all``, row for row."""
        cap = 250.0
        scenarios = {
            name: replace(s, duration=min(s.duration, cap))
            for name, s in default_scenarios().items()
        }
        grid = CampaignGrid(scenarios=("default",), seeds=(None,), duration=cap)
        measured = run_campaign(grid).default_rows()
        assert len(measured) == 7
        assert measured == classify_all(scenarios)


class TestMatrixAggregation:
    def test_stability_and_modal_verdict(self):
        grid = quick_grid(protocols=("hyperledger",), scenarios=("default",), seeds=(1, 2, 3))
        matrix = run_campaign(grid)
        assert matrix.stability("hyperledger", "default") == 1.0
        assert matrix.modal_verdict("hyperledger", "default") == "R(BT-ADT_SC, Θ_F,k=1)"
        assert len(matrix.verdicts("hyperledger", "default")) == 3

    def test_csv_and_render_cover_all_cells(self):
        matrix = run_campaign(quick_grid())
        csv_text = matrix.to_csv()
        assert csv_text.count("\n") == 1 + len(matrix.cells)  # header + rows
        rendered = matrix.render()
        assert "bitcoin" in rendered and "partition-heal" in rendered

    def test_json_round_trips(self):
        matrix = run_campaign(quick_grid())
        payload = json.loads(matrix.to_json())
        assert payload["summary"]["bitcoin"]["default"]["verdict"]
        assert len(payload["cells"]) == 4


class TestMajorityView:
    def test_majority_outvotes_minority(self):
        class FakeChain:
            def __init__(self, tip_id, height):
                self.tip_id, self.height = tip_id, height

        chains = {
            "p0": FakeChain("lonely", 3),
            "p1": FakeChain("shared", 9),
            "p2": FakeChain("shared", 9),
        }
        assert majority_view(chains).tip_id == "shared"

    def test_tie_breaks_toward_taller_then_smaller_tip(self):
        class FakeChain:
            def __init__(self, tip_id, height):
                self.tip_id, self.height = tip_id, height

        chains = {"p0": FakeChain("bb", 5), "p1": FakeChain("aa", 7)}
        assert majority_view(chains).tip_id == "aa"  # taller wins the tie
        chains = {"p0": FakeChain("bb", 5), "p1": FakeChain("aa", 5)}
        assert majority_view(chains).tip_id == "aa"  # then smaller tip id

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            majority_view({})


class TestCommandLine:
    def test_cli_writes_json_and_csv(self, tmp_path, capsys):
        json_path = tmp_path / "m.json"
        csv_path = tmp_path / "m.csv"
        rc = campaign_main(
            [
                "--protocols", "hyperledger",
                "--scenarios", "default,burst-traffic",
                "--seeds", "baseline",
                "--duration", "60",
                "--workers", "1",
                "--json", str(json_path),
                "--csv", str(csv_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Classification matrix" in out
        payload = json.loads(json_path.read_text())
        assert len(payload["cells"]) == 2
        assert csv_path.read_text().startswith("protocol,")

    def test_cli_workdir_keeps_store_files_for_inspection(self, tmp_path):
        workdir = tmp_path / "stores"
        rc = campaign_main(
            [
                "--protocols", "hyperledger",
                "--scenarios", "default",
                "--duration", "60",
                "--workers", "1",
                "--store", "log",
                "--workdir", str(workdir),
            ]
        )
        assert rc == 0
        logs = list(workdir.rglob("*.btlog"))
        assert logs, "caller-owned workdir must keep the per-replica logs"
