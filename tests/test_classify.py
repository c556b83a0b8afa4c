"""Classification correctness: all-replica derivation under adversity.

Regression tests for the single-replica classification bug: the old
``classify_protocol`` read ``run.nodes[0]`` for the committed height, so
a partition isolating node 0 made the *minority* island speak for the
whole system.  Rows are now derived from all replicas (majority view),
and unknown append resolutions are counted instead of dropped.
"""

from collections import Counter
from dataclasses import replace

import pytest

from repro.blocktree.block import make_block
from repro.campaign.grid import CampaignGrid
from repro.histories.events import EventKind
from repro.protocols.bitcoin import run_bitcoin
from repro.protocols.classify import RUNNERS, classify_protocol, classify_run
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
        run.nodes[0].oracle_k = 1  # a misconfigured fleet
        with pytest.raises(ValueError, match="disagree"):
            classify_run("bitcoin", run)


def seeded_cell(protocol, preset, index):
    """The scenario of ``--seeds 1,…,20`` campaign cell ``#index``."""
    grid = CampaignGrid(
        protocols=(protocol,), scenarios=(preset,), seeds=tuple(range(1, 21))
    )
    return grid.expand()[index].scenario


def assert_one_response_per_append(run):
    """Every recorded append invocation has exactly one response."""
    for history in run.histories.values():
        invoked = Counter()
        answered = Counter()
        for event in history.events:
            if event.op_name == "append":
                kind = invoked if event.kind is EventKind.INVOCATION else answered
                kind[event.op_id] += 1
        assert invoked and answered == invoked


class TestAppendResolutionAccounting:
    def test_unknown_resolution_is_counted_not_dropped(self):
        run = run_hyperledger(replace(default_scenarios()["hyperledger"], duration=40.0))
        node = run.nodes[0]
        ledger = node.ledger
        before = ledger.stats(node.name)["unknown_resolutions"]
        ledger.decide(node.name, "no-such-instance", "no-such-block")  # no token
        assert ledger.stats(node.name)["unknown_resolutions"] == before + 1
        assert run.unknown_append_resolutions() == before + 1

    def test_double_resolution_is_counted(self):
        run = run_bitcoin(replace(default_scenarios()["bitcoin"], duration=40.0))
        node = run.nodes[0]
        ledger = node.ledger
        block = make_block(node.tree.genesis, label="dup")
        ledger.invoke(node.name, block, block.block_id)
        ledger.decide(node.name, block.block_id, block.block_id)
        before = ledger.stats(node.name)["unknown_resolutions"]
        recorded = len(node.network.recorder)
        ledger.decide(node.name, block.block_id, block.block_id)  # a second time
        assert ledger.stats(node.name)["unknown_resolutions"] == before + 1
        assert len(node.network.recorder) == recorded  # nothing answered twice

    def test_reinvocation_is_counted_and_answered_once(self):
        run = run_bitcoin(replace(default_scenarios()["bitcoin"], duration=40.0))
        node = run.nodes[0]
        ledger = node.ledger
        block = make_block(node.tree.genesis, label="again")
        ledger.invoke(node.name, block, "height-1")
        ledger.invoke(node.name, block, "height-1")  # same block, still open
        ledger.decide(node.name, "height-1", block.block_id)
        stats = ledger.stats(node.name)
        assert stats["reinvoked"] == 1 and stats["begun"] == stats["resolved"]
        events = node.network.recorder.history().events
        (invocation,) = [e for e in events if e.args[:1] == (block.block_id,)]
        answers = [e.result for e in events if e.op_id == invocation.op_id]
        assert answers == [None, True]  # the invocation, then one response

    @pytest.mark.parametrize("runner", list(RUNNERS.values()))
    def test_clean_runs_have_zero_unknown_resolutions(self, runner):
        name = runner.__name__[len("run_"):]
        run = runner(replace(default_scenarios()[name], duration=80.0))
        assert run.unknown_append_resolutions() == 0
        for _, _, chain in run.pipelines():
            counts = chain.report("appends")
            assert counts["begun"] == counts["resolved"]
            assert counts["unknown_resolutions"] == 0
        assert_one_response_per_append(run)


class TestReinvokedCommitteeAppend:
    """A committee miner whose height is not yet committed can mine the
    same candidate again (``make_block`` is deterministic).  The second
    invocation must not orphan the first: a replica that adopted the
    block in between would hold a block with no append invocation, and
    Block Validity fails.  These two seeded campaign cells were
    inconsistent (✗) while a re-invocation replaced the open one."""

    @pytest.mark.parametrize(
        "protocol, index", [("byzcoin", 0), ("peercensus", 16)]
    )
    def test_client_steady_cell_is_strongly_consistent(self, protocol, index):
        run = RUNNERS[protocol](seeded_cell(protocol, "client-steady", index))
        row = classify_run(protocol, run)
        assert row.sc_failures == "-"
        assert row.measured_refinement == "R(BT-ADT_SC, Θ_F,k=1)"
        appends = [chain.report("appends") for _, _, chain in run.pipelines()]
        assert sum(counts["reinvoked"] for counts in appends) > 0
        assert run.unknown_append_resolutions() == 0
        assert_one_response_per_append(run)
