"""Tests for the online consistency monitor, incl. batch-equivalence."""


from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import build_chain

from repro.blocktree.block import GENESIS, make_block
from repro.blocktree.score import LengthScore
from repro.consistency.hierarchy import random_refinement_history
from repro.consistency.monitor import ConsistencyMonitor
from repro.consistency.properties import (
    check_local_monotonic_read,
    check_strong_prefix,
)

SCORE = LengthScore()


class TestMonotonicMonitoring:
    def test_clean_stream_ok(self):
        mon = ConsistencyMonitor(score=SCORE)
        c1 = build_chain("1")
        mon.on_append("p", c1.tip.block_id, GENESIS.block_id, True)
        mon.on_read("i", c1)
        mon.on_read("i", c1)
        assert mon.ok

    def test_score_regression_flagged(self):
        mon = ConsistencyMonitor(score=SCORE, track_strong_prefix=False)
        c2 = build_chain("1", "2")
        c1 = build_chain("1")
        for c in (c1, c2):
            for b in c.non_genesis():
                mon.on_append("p", b.block_id, b.parent_id, True)
        mon.on_read("i", c2)
        mon.on_read("i", c1)
        assert mon.violated_properties() == {"local-monotonic-read"}
        assert mon.first_violation().proc == "i"

    def test_cross_process_regression_allowed(self):
        mon = ConsistencyMonitor(score=SCORE, track_strong_prefix=False)
        c2 = build_chain("1", "2")
        c1 = build_chain("1")
        for b in c2.non_genesis():
            mon.on_append("p", b.block_id, b.parent_id, True)
        mon.on_read("i", c2)
        mon.on_read("j", c1)  # different process: fine
        assert mon.ok


class TestStrongPrefixMonitoring:
    def test_prefix_growth_ok(self):
        mon = ConsistencyMonitor(score=SCORE)
        for labels in (("1",), ("1", "2"), ("1", "2", "3")):
            chain = build_chain(*labels)
            for b in chain.non_genesis():
                mon.on_append("p", b.block_id, b.parent_id, True)
            mon.on_read("i", chain)
        assert mon.ok

    def test_divergence_flagged_immediately(self):
        mon = ConsistencyMonitor(score=SCORE)
        a = build_chain("1")
        b = build_chain("2")
        for c in (a, b):
            for blk in c.non_genesis():
                mon.on_append("p", blk.block_id, blk.parent_id, True)
        mon.on_read("i", a)
        assert mon.ok
        mon.on_read("j", b)
        assert "strong-prefix" in mon.violated_properties()
        assert mon.first_violation().sequence == 4

    def test_shorter_prefix_read_ok(self):
        mon = ConsistencyMonitor(score=SCORE)
        long = build_chain("1", "2", "3")
        short = build_chain("1")
        for blk in long.non_genesis():
            mon.on_append("p", blk.block_id, blk.parent_id, True)
        mon.on_read("i", long)
        mon.on_read("j", short)  # a prefix of the max: comparable
        assert mon.ok


class TestValidityAndForkMonitoring:
    def test_unknown_block_flagged(self):
        mon = ConsistencyMonitor(score=SCORE)
        mon.on_read("i", build_chain("ghost"))
        assert "block-validity" in mon.violated_properties()

    def test_fork_cap_flagged(self):
        mon = ConsistencyMonitor(score=SCORE, k=1)
        b1 = make_block(GENESIS, label="1")
        b2 = make_block(GENESIS, label="2")
        mon.on_append("p", b1.block_id, GENESIS.block_id, True)
        assert mon.ok
        mon.on_append("q", b2.block_id, GENESIS.block_id, True)
        assert "k-fork-coherence" in mon.violated_properties()

    def test_failed_appends_ignored_for_forks(self):
        mon = ConsistencyMonitor(score=SCORE, k=1)
        b1 = make_block(GENESIS, label="1")
        b2 = make_block(GENESIS, label="2")
        mon.on_append("p", b1.block_id, GENESIS.block_id, True)
        mon.on_append("q", b2.block_id, GENESIS.block_id, False)
        assert mon.ok


class TestBatchEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(st.integers(min_value=0, max_value=400), st.sampled_from([1, 2, 3]))
    def test_monitor_agrees_with_batch_checkers(self, seed, k):
        """Replaying a random refinement history gives the same safety
        verdicts as the batch checkers."""
        run = random_refinement_history(k=k, seed=seed, n_ops=24)
        history = run.history.purged()
        mon = ConsistencyMonitor(score=SCORE).replay_history(history)
        batch_sp = check_strong_prefix(history)  # no continuation: finite pairs
        batch_mono = check_local_monotonic_read(history, SCORE)
        assert ("strong-prefix" in mon.violated_properties()) == (not batch_sp.ok)
        assert ("local-monotonic-read" in mon.violated_properties()) == (
            not batch_mono.ok
        )

    def test_replay_of_protocol_run(self):
        from repro.protocols.hyperledger import run_hyperledger
        from repro.workloads.scenarios import ProtocolScenario

        run = run_hyperledger(
            ProtocolScenario(name="hyperledger", duration=80.0, round_length=15.0, seed=1)
        )
        mon = ConsistencyMonitor(score=SCORE).replay_history(run.history.purged())
        assert "strong-prefix" not in mon.violated_properties()
