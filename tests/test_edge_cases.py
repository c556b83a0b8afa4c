"""Edge-case tests across modules: faults, stats, metrics, histories."""


import pytest

from helpers import build_chain

from repro.blocktree.block import GENESIS, make_block
from repro.blocktree.score import LengthScore
from repro.consistency.criteria import BTStrongConsistency
from repro.histories.builder import HistoryRecorder
from repro.histories.continuation import ContinuationModel
from repro.net.faults import MessageDropAdversary, PartitionAdversary
from repro.oracle.theta import ThetaOracle, ThetaState


class TestDropBudget:
    def test_budget_one_drops_exactly_one(self):
        adversary = MessageDropAdversary(matcher=lambda s, d, m: True, budget=1)
        assert adversary("a", "b", "m1", 0.0) is True
        assert adversary("a", "b", "m2", 0.0) is False
        assert adversary.dropped == 1

    def test_unlimited_budget(self):
        adversary = MessageDropAdversary(matcher=lambda s, d, m: d == "x")
        for _ in range(5):
            assert adversary("a", "x", "m", 0.0)
        assert adversary.dropped == 5

    def test_non_matching_never_dropped(self):
        adversary = MessageDropAdversary(matcher=lambda s, d, m: False, budget=10)
        assert not adversary("a", "b", "m", 0.0)
        assert adversary.dropped == 0

    def test_partition_unknown_process_isolated(self):
        adversary = PartitionAdversary(groups=(frozenset({"a"}),))
        # 'b' belongs to no group (-1): traffic a↔b crosses the partition.
        assert adversary("a", "b", "m", 0.0)

    def test_partition_never_heals_without_heal_at(self):
        adversary = PartitionAdversary(groups=(frozenset({"a"}), frozenset({"b"})))
        assert adversary("a", "b", "m", 1e9)


class TestOracleStats:
    """Θ's activity read off its state: tape heads count getToken calls
    per merit, the sets ``K[h]`` the consumed tokens."""

    def test_stats_as_dict(self):
        oracle = ThetaOracle(ThetaState(k=1, seed=1, default_probability=1.0))
        tb = oracle.get_token(GENESIS, make_block(GENESIS, label="1"), "m")
        oracle.consume_token(tb)
        assert dict(oracle.state.positions) == {"m": 1}
        assert {h: len(b) for h, b in oracle.state.consumed} == {GENESIS.block_id: 1}

    def test_expected_attempts_tracks_probability(self):
        oracle = ThetaOracle(ThetaState(k=1, seed=7, probabilities=(("weak", 0.2),)))
        granted, calls = 0, 0
        while granted < 20:
            tb = oracle.get_token(GENESIS, make_block(GENESIS, label=str(calls)), "weak")
            calls += 1
            if tb is not None:
                granted += 1
        assert calls == oracle.state.position_of("weak")
        # Mean attempts per token ≈ 1/p = 5 (loose bound for 20 samples).
        assert 2.0 < calls / granted < 10.0


class TestHistoryEdges:
    def test_purged_drops_pending_appends(self):
        rec = HistoryRecorder()
        rec.begin("p", "append", ("dangling",))
        h = rec.history()
        assert len(h.appends()) == 1
        assert len(h.purged().appends()) == 0

    def test_operations_with_only_response_event(self):
        # A response without invocation (crash recovery artifacts) is
        # tolerated by the operations() view.
        from repro.histories.events import Event, EventKind
        from repro.histories.history import ConcurrentHistory

        event = Event(
            eid=0, proc="p", kind=EventKind.RESPONSE, op_id=0,
            op_name="read", args=(), result=None,
        )
        h = ConcurrentHistory(events=[event])
        ops = h.operations()
        assert len(ops) == 1

    def test_event_str_and_op_str(self):
        rec = HistoryRecorder()
        rec.record_append("p", "blk", True)
        h = rec.history()
        assert "append" in str(h.events[0])
        assert "append" in str(h.operations()[0])

    def test_pending_op_resp_eid_raises(self):
        rec = HistoryRecorder()
        rec.begin("p", "read")
        op = rec.history().operations()[0]
        assert not op.complete
        with pytest.raises(ValueError):
            _ = op.resp_eid


class TestCheckerEdges:
    def test_strict_order_block_validity_on_overlap(self):
        """strict ր: an append overlapping the read (no resp→inv hop)
        does not count as 'before' the read."""
        from repro.consistency.properties import check_block_validity

        chain = build_chain("1")
        b = chain.tip
        rec = HistoryRecorder()
        ap = rec.begin("env", "append", (b.block_id, b.parent_id))  # eid 0
        rd = rec.begin("i", "read")                                 # eid 1
        rec.end("i", rd, "read", chain)                             # eid 2
        rec.end("env", ap, "append", True)                          # eid 3
        h = rec.history()
        assert check_block_validity(h, strict_order=False).ok
        assert not check_block_validity(h, strict_order=True).ok

    def test_empty_history_satisfies_both_criteria(self):
        h = HistoryRecorder().history()
        assert BTStrongConsistency(score=LengthScore()).check(h).ok

    def test_genesis_only_reads_satisfy_sc(self):
        rec = HistoryRecorder()
        from repro.blocktree.chain import Chain

        rec.record_read("i", Chain.genesis())
        rec.record_read("j", Chain.genesis())
        h = rec.history(ContinuationModel.all_growing(["i", "j"]))
        assert BTStrongConsistency(score=LengthScore()).check(h).ok


class TestReplayFailurePath:
    def test_replay_into_smaller_k_fails(self):
        """Θ_F,k=2 histories with real forks do NOT replay into Θ_F,k=1 —
        the converse of Theorem 3.4's inclusion."""
        from repro.consistency.hierarchy import (
            random_refinement_history,
            replay_appends,
        )

        forked = None
        for seed in range(40):
            run = random_refinement_history(k=2, seed=seed, n_ops=40)
            if run.refined.tree.max_fork_degree() == 2:
                forked = run
                break
        assert forked is not None, "no forked k=2 history found in 40 seeds"
        assert not replay_appends(forked, k=1)
        assert replay_appends(forked, k=2)


class TestMetricsEdges:
    def test_convergence_lags_empty_when_nothing_converges(self):
        from repro.analysis.metrics import convergence_lags
        from repro.protocols.base import ProtocolRun
        from repro.protocols.bitcoin import BitcoinNode
        from repro.workloads.scenarios import ProtocolScenario

        # Duration 0: no blocks mined at all.
        run = ProtocolRun.execute(
            BitcoinNode,
            ProtocolScenario(name="bitcoin", duration=0.0, seed=1),
            settle=5.0,
        )
        assert convergence_lags(run) == []

    def test_chain_quality_service_bucket(self):
        from repro.analysis.metrics import chain_quality
        from repro.protocols.hyperledger import run_hyperledger
        from repro.workloads.scenarios import ProtocolScenario

        run = run_hyperledger(
            ProtocolScenario(name="hyperledger", duration=80.0, round_length=15.0, seed=1)
        )
        shares = chain_quality(run)
        assert set(shares) == {"<service>"}  # ordered blocks carry no creator
