"""Property-based tests (hypothesis) for core data structures & invariants.

These cover the algebraic laws the rest of the reproduction leans on:
prefix-order laws of chains, score monotonicity, tree bookkeeping
invariants, tape determinism/rate, oracle fork caps, checker metamorphic
laws (SC ⇒ EC; purging preserves verdicts it should preserve), Merkle
root order sensitivity and simulator determinism.
"""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.blocktree.block import GENESIS, make_block
from repro.blocktree.chain import Chain
from repro.blocktree.score import LengthScore, WorkScore, mcps
from repro.blocktree.selection import LongestChain
from repro.blocktree.tree import BlockTree
from repro.consistency.criteria import BTEventualConsistency, BTStrongConsistency
from repro.consistency.hierarchy import random_refinement_history
from repro.crypto.merkle import merkle_root
from repro.oracle.tapes import tape_cell
from repro.oracle.theta import ThetaOracle, ThetaState

# -- strategies -------------------------------------------------------------


@st.composite
def chains(draw, max_len=8):
    """A random chain from genesis with random labels/weights."""
    length = draw(st.integers(min_value=0, max_value=max_len))
    blocks = [GENESIS]
    for i in range(length):
        label = draw(st.text(alphabet="abcdef", min_size=1, max_size=3))
        weight = draw(st.floats(min_value=0.1, max_value=5.0, allow_nan=False))
        blocks.append(make_block(blocks[-1], label=f"{label}{i}", weight=weight))
    return Chain.of(blocks)


@st.composite
def trees(draw, max_blocks=14):
    """A random BlockTree grown by attaching under random existing blocks."""
    n = draw(st.integers(min_value=0, max_value=max_blocks))
    tree = BlockTree()
    nodes = [GENESIS]
    for i in range(n):
        parent = nodes[draw(st.integers(min_value=0, max_value=len(nodes) - 1))]
        block = make_block(parent, label=f"n{i}", weight=1.0)
        tree.add_block(block)
        nodes.append(block)
    return tree


# -- chain prefix algebra ------------------------------------------------------


class TestChainLaws:
    @given(chains())
    def test_prefix_reflexive(self, c):
        assert c.is_prefix_of(c)

    @given(chains(), chains())
    def test_prefix_antisymmetric(self, a, b):
        if a.is_prefix_of(b) and b.is_prefix_of(a):
            assert a.block_ids() == b.block_ids()

    @given(chains())
    def test_common_prefix_idempotent(self, c):
        assert c.common_prefix(c).block_ids() == c.block_ids()

    @given(chains(), chains())
    def test_common_prefix_commutative(self, a, b):
        assert a.common_prefix(b).block_ids() == b.common_prefix(a).block_ids()

    @given(chains(), chains())
    def test_common_prefix_is_prefix_of_both(self, a, b):
        cp = a.common_prefix(b)
        assert cp.is_prefix_of(a) and cp.is_prefix_of(b)

    @given(chains(), chains())
    def test_comparable_iff_common_prefix_is_one_of_them(self, a, b):
        cp = a.common_prefix(b)
        comparable = a.comparable(b)
        is_one = cp.block_ids() in (a.block_ids(), b.block_ids())
        assert comparable == is_one


class TestScoreLaws:
    @given(chains())
    def test_length_monotone_under_extension(self, c):
        extended = c.extend(make_block(c.tip, label="ext"))
        assert LengthScore()(extended) > LengthScore()(c)

    @given(chains())
    def test_work_monotone_under_extension(self, c):
        extended = c.extend(make_block(c.tip, label="ext", weight=0.0))
        assert WorkScore()(extended) > WorkScore()(c)

    @given(chains(), chains())
    def test_mcps_bounded_by_both_scores(self, a, b):
        score = LengthScore()
        m = mcps(a, b, score)
        assert m <= score(a) and m <= score(b)

    @given(chains())
    def test_mcps_with_self_is_score(self, c):
        score = LengthScore()
        assert mcps(c, c, score) == score(c)


class TestTreeInvariants:
    @given(trees())
    def test_heights_consistent_with_parents(self, tree):
        for block in tree.blocks():
            if not block.is_genesis:
                assert tree.height(block.block_id) == tree.height(block.parent_id) + 1

    @given(trees())
    def test_subtree_weight_of_root_is_total(self, tree):
        total = sum(b.weight for b in tree.blocks() if not b.is_genesis)
        assert math.isclose(tree.subtree_weight(GENESIS.block_id), total)

    @given(trees())
    def test_leaves_have_no_children(self, tree):
        for leaf in tree.leaves():
            assert tree.fork_degree(leaf.block_id) == 0

    @given(trees())
    def test_every_block_reachable_from_root(self, tree):
        for block in tree.blocks():
            chain = tree.chain_to(block.block_id)
            assert chain.tip.block_id == block.block_id
            assert chain[0].is_genesis

    @given(trees())
    def test_selection_returns_a_leaf(self, tree):
        chain = LongestChain().select(tree)
        assert tree.fork_degree(chain.tip.block_id) == 0

    @given(trees())
    def test_freeze_roundtrips_through_copy(self, tree):
        assert tree.freeze() == tree.copy().freeze()


class TestTapeAndOracle:
    @given(st.integers(min_value=0, max_value=2**32), st.floats(min_value=0.05, max_value=0.95))
    def test_tape_deterministic(self, seed, p):
        cells = [tape_cell(seed, "m", i, p) for i in range(32)]
        assert cells == [tape_cell(seed, "m", i, p) for i in range(32)]
        oracle = ThetaOracle(ThetaState(k=1, seed=seed, default_probability=p))
        granted = [
            oracle.get_token(GENESIS, make_block(GENESIS, label=str(i)), "m") is not None
            for i in range(32)
        ]
        assert granted == cells

    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=10_000))
    def test_oracle_never_exceeds_cap(self, k, seed):
        oracle = ThetaOracle(ThetaState(k=k, seed=seed, default_probability=1.0))
        for i in range(k + 3):
            tb = oracle.get_token(GENESIS, make_block(GENESIS, label=str(i)), "m")
            oracle.consume_token(tb)
        assert len(oracle.consumed_for(GENESIS.block_id)) == k
        assert oracle.check_fork_coherence()

    @given(st.integers(min_value=0, max_value=10_000))
    def test_prodigal_accepts_everything(self, seed):
        oracle = ThetaOracle(ThetaState(k=math.inf, seed=seed, default_probability=1.0))
        for i in range(6):
            tb = oracle.get_token(GENESIS, make_block(GENESIS, label=str(i)), "m")
            oracle.consume_token(tb)
        assert len(oracle.consumed_for(GENESIS.block_id)) == 6


class TestCheckerMetamorphic:
    @settings(max_examples=15, suppress_health_check=[HealthCheck.too_slow], deadline=None)
    @given(st.integers(min_value=0, max_value=500), st.sampled_from([1, 2, 3]))
    def test_sc_implies_ec(self, seed, k):
        """Theorem 3.1 as a property: any SC history is an EC history."""
        run = random_refinement_history(k=k, seed=seed, n_ops=20)
        history = run.history.purged()
        score = LengthScore()
        if BTStrongConsistency(score=score).check(history).ok:
            assert BTEventualConsistency(score=score).check(history).ok

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=500))
    def test_k1_histories_always_strong(self, seed):
        """Θ_F,k=1 forbids forks ⇒ every recorded history is SC."""
        run = random_refinement_history(k=1, seed=seed, n_ops=20)
        history = run.history.purged()
        report = BTStrongConsistency(score=LengthScore()).check(history)
        assert report.ok, report.describe()

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=500), st.sampled_from([2, 3]))
    def test_purging_preserves_safety_verdicts(self, seed, k):
        """Removing failed appends never *creates* safety violations."""
        run = random_refinement_history(k=k, seed=seed, n_ops=20)
        full = run.history
        purged = full.purged()
        score = LengthScore()
        full_sp = BTStrongConsistency(score=score).check(full).checks["strong-prefix"]
        purged_sp = BTStrongConsistency(score=score).check(purged).checks["strong-prefix"]
        # Reads are untouched by purging, so the strong-prefix verdicts agree.
        assert full_sp.ok == purged_sp.ok


class TestMerkleProperties:
    @given(st.lists(st.integers(), min_size=1, max_size=16))
    def test_root_is_order_sensitive(self, leaves):
        if len(set(leaves)) > 1:
            reordered = list(reversed(leaves))
            if reordered != leaves:
                assert merkle_root(leaves) != merkle_root(reordered)


class TestSimulatorDeterminism:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_same_seed_same_trace(self, seed):
        from repro.net.process import Network, SimProcess
        from repro.net.simulator import Simulator

        class Chatter(SimProcess):
            def __init__(self, name):
                super().__init__(name)
                self.log = []

            def on_start(self):
                self.broadcast(("hello", self.name))

            def on_message(self, src, message):
                self.log.append((src, message, round(self.now, 6)))

        def run():
            sim = Simulator(seed=seed)
            net = Network(sim)
            nodes = [net.register(Chatter(f"p{i}")) for i in range(3)]
            net.start()
            sim.run()
            return [n.log for n in nodes]

        assert run() == run()
