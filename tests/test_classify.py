"""Classification correctness: all-replica derivation under adversity.

Regression tests for the single-replica classification bug: the old
``classify_protocol`` read ``run.nodes[0]`` for the committed height, so
a partition isolating node 0 made the *minority* island speak for the
whole system.  Rows are now derived from all replicas (majority view),
and unknown append resolutions are counted instead of dropped.
"""

from dataclasses import replace

import pytest

from repro.protocols.bitcoin import run_bitcoin
from repro.protocols.classify import classify_protocol, classify_run
from repro.protocols.hyperledger import run_hyperledger
from repro.workloads.scenarios import (
    AdversarialScenario,
    PartitionWindow,
    default_scenarios,
)


def islanded_scenario(seed=2024):
    """Bitcoin with node 0 permanently partitioned off from the rest."""
    return AdversarialScenario(
        name="bitcoin-p0-islanded",
        n_nodes=5,
        seed=seed,
        duration=200.0,
        mean_block_interval=8.0,
        channel_delta=2.0,
        partitions=(
            PartitionWindow(groups=(("p0",), ("p1", "p2", "p3", "p4")), start=5.0),
        ),
    )


class TestPartitionedClassification:
    def test_deprived_node0_does_not_speak_for_the_run(self):
        run = run_bitcoin(islanded_scenario())
        heights = {name: c.height for name, c in run.final_chains().items()}
        majority_height = max(heights[n] for n in ("p1", "p2", "p3", "p4"))
        # The regression's precondition: node 0 really is the deprived
        # minority (it mines alone with 1/5 of the merit).
        assert heights["p0"] < majority_height

        row = classify_run("bitcoin", run)
        # Old behavior: blocks_committed == heights["p0"] (the island).
        assert row.blocks_committed == majority_height
        assert row.blocks_committed > heights["p0"]

    def test_classify_protocol_accepts_adversarial_scenarios(self):
        row = classify_protocol("bitcoin", islanded_scenario())
        assert row.protocol == "bitcoin"
        assert row.max_fork_degree >= 1

    def test_mixed_declared_oracles_rejected(self):
        run = run_bitcoin(replace(default_scenarios()["bitcoin"], duration=40.0))
        run.nodes[0].oracle_kind = "frugal-k1"  # a misconfigured fleet
        with pytest.raises(ValueError, match="disagree"):
            classify_run("bitcoin", run)


class TestAppendResolutionAccounting:
    def test_unknown_resolution_is_counted_not_dropped(self):
        run = run_hyperledger(replace(default_scenarios()["hyperledger"], duration=40.0))
        node = run.nodes[0]
        before = node.metrics["appends"]["unknown_resolutions"]
        node.resolve_append("no-such-block", True)  # never begun
        assert node.metrics["appends"]["unknown_resolutions"] == before + 1
        assert run.unknown_append_resolutions() == before + 1

    def test_double_resolution_is_counted(self):
        from repro.blocktree.block import make_block

        run = run_bitcoin(replace(default_scenarios()["bitcoin"], duration=40.0))
        node = run.nodes[0]
        block = make_block(node.tree.genesis, label="dup")
        node.begin_append(block)
        node.resolve_append(block.block_id, True)
        before = node.metrics["appends"]["unknown_resolutions"]
        node.resolve_append(block.block_id, True)  # second resolution
        assert node.metrics["appends"]["unknown_resolutions"] == before + 1

    @pytest.mark.parametrize("runner", [run_bitcoin, run_hyperledger])
    def test_clean_runs_have_zero_unknown_resolutions(self, runner):
        name = "bitcoin" if runner is run_bitcoin else "hyperledger"
        run = runner(replace(default_scenarios()[name], duration=80.0))
        assert run.unknown_append_resolutions() == 0
        stats = run.append_stats()
        for per_node in stats.values():
            assert per_node["begun"] == per_node["resolved"]
            assert per_node["unknown_resolutions"] == 0
