"""Tests for Protocol A (Figure 11): Consensus from Θ_F,k=1 (Theorem 4.2)."""

import pytest

from repro.concurrent.modelcheck import explore
from repro.concurrent.protocol_a import (
    build_protocol_a_system,
    protocol_a_validity,
)
from repro.concurrent.scheduler import RandomScheduler


def proposals(n):
    return {f"p{i}": f"block-p{i}" for i in range(n)}


class TestProtocolAExhaustive:
    @pytest.mark.parametrize("n", [2, 3])
    def test_consensus_on_all_interleavings(self, n):
        props = proposals(n)

        def make():
            return build_protocol_a_system(n, seed=1, probability=1.0)

        def predicate(run):
            return (
                run.agreement()
                and run.integrity()
                and run.all_correct_decided()
                and protocol_a_validity(run, props)
            )

        result = explore(make, predicate)
        assert result.ok
        assert result.terminal_runs > 1

    def test_consensus_under_one_crash(self):
        props = proposals(2)

        def make():
            return build_protocol_a_system(2, seed=1, probability=1.0)

        def predicate(run):
            # Agreement/Integrity/Validity must hold even when one process
            # crashes; Termination applies to non-crashed processes only.
            return (
                run.agreement()
                and run.integrity()
                and run.all_correct_decided()
                and protocol_a_validity(run, props)
            )

        result = explore(make, predicate, max_crashes=1)
        assert result.ok

    def test_decided_set_is_singleton(self):
        def make():
            return build_protocol_a_system(2, seed=1, probability=1.0)

        def predicate(run):
            return all(len(d) == 1 for d in run.decisions.values())

        assert explore(make, predicate).ok


class TestProtocolARandomized:
    @pytest.mark.parametrize("n", [4, 8])
    def test_consensus_larger_n_random_schedules(self, n):
        props = proposals(n)
        for seed in range(5):
            system = build_protocol_a_system(n, seed=seed, probability=0.6)
            result = RandomScheduler(seed=seed * 31 + 1).run(system)
            assert result.agreement()
            assert result.integrity()
            assert result.all_correct_decided()
            assert protocol_a_validity(result, props)

    def test_get_token_retry_loop_exercised(self):
        system = build_protocol_a_system(2, seed=9, probability=0.2)
        result = RandomScheduler(seed=5).run(system)
        assert result.agreement()
        # With p = 0.2 at least one retry is overwhelmingly likely.
        assert result.steps > 6

    def test_crash_of_winner_before_consume_still_terminates(self):
        system = build_protocol_a_system(3, seed=2, probability=1.0)
        result = RandomScheduler(seed=7).run(system, crash_at={"p0": 1})
        assert result.agreement()
        survivors = [p for p in ("p1", "p2")]
        assert all(p in result.decisions for p in survivors)

    def test_wait_free_without_contention(self):
        system = build_protocol_a_system(1, seed=3, probability=1.0)
        result = RandomScheduler(seed=1).run(system)
        assert result.decisions["p0"]


class TestRegisterConsensusCounterexample:
    """Θ_P-level objects: the canonical register attempt disagrees."""

    def test_explorer_finds_disagreement(self):
        from repro.concurrent.register_consensus import (
            build_register_consensus_system,
        )

        def make():
            return build_register_consensus_system(v0=1, v1=0)

        result = explore(make, lambda r: r.agreement())
        assert not result.ok
        schedule = result.first_violation_schedule()
        assert schedule is not None

    @pytest.mark.parametrize("rule", [min, max])
    def test_disagreement_for_multiple_rules(self, rule):
        from repro.concurrent.register_consensus import (
            build_register_consensus_system,
        )

        def make():
            return build_register_consensus_system(v0=1, v1=0, rule=rule)

        assert not explore(make, lambda r: r.agreement()).ok

    def test_validity_always_holds_even_when_agreement_fails(self):
        from repro.concurrent.register_consensus import (
            build_register_consensus_system,
        )

        def make():
            return build_register_consensus_system(v0=1, v1=0)

        def validity(run):
            return all(v in (0, 1) for v in run.decisions.values())

        assert explore(make, validity).ok
