"""Tests for the generic ADT transducer framework (paper Section 2)."""

import pytest

from repro.adt.base import ADT, Operation, apply_sequence
from repro.adt.sequential import (
    TransitionTrace,
    generate_sequential_history,
    is_sequential_history,
)


class CounterADT(ADT):
    """Toy ADT: ``inc`` adds one (returns new value), ``get`` reads."""

    def initial_state(self):
        return 0

    def accepts_symbol(self, symbol):
        return symbol in ("inc", "get")

    def transition(self, state, symbol):
        return state + 1 if symbol == "inc" else state

    def output(self, state, symbol):
        return state + 1 if symbol == "inc" else state


class TestApply:
    def test_apply_sequence_outputs(self):
        adt = CounterADT()
        final, outs = apply_sequence(adt, ["inc", "inc", "get"])
        assert final == 2
        assert outs == [1, 2, 2]

    def test_apply_rejects_bad_symbol(self):
        adt = CounterADT()
        with pytest.raises(ValueError):
            adt.apply(0, "bogus")

    def test_apply_from_given_state(self):
        adt = CounterADT()
        final, outs = apply_sequence(adt, ["get"], state=5)
        assert final == 5
        assert outs == [5]


class TestSequentialSpec:
    def test_generated_history_is_member(self):
        adt = CounterADT()
        word = generate_sequential_history(adt, ["inc", "get", "inc"])
        assert is_sequential_history(adt, word).ok

    def test_wrong_output_rejected(self):
        adt = CounterADT()
        word = [Operation("inc", 1), Operation("get", 99)]
        result = is_sequential_history(adt, word)
        assert not result.ok
        assert result.failure_index == 1
        assert result.expected_output == 1

    def test_input_only_symbols_constrain_state(self):
        adt = CounterADT()
        word = [Operation("inc", has_output=False), Operation("get", 1)]
        assert is_sequential_history(adt, word).ok

    def test_bad_symbol_rejected_with_index(self):
        adt = CounterADT()
        word = [Operation("inc", 1), Operation("nope", None)]
        result = is_sequential_history(adt, word)
        assert not result.ok
        assert result.failure_index == 1
        assert "alphabet" in result.reason

    def test_non_operation_raises(self):
        adt = CounterADT()
        with pytest.raises(TypeError):
            is_sequential_history(adt, ["inc"])

    def test_empty_word_is_member(self):
        assert is_sequential_history(CounterADT(), []).ok

    def test_result_is_truthy(self):
        assert bool(is_sequential_history(CounterADT(), []))


class TestTransitionTrace:
    def test_trace_records_all_states(self):
        trace = TransitionTrace.record(CounterADT(), ["inc", "inc"])
        assert trace.states == [0, 1, 2]
        assert len(trace.operations) == 2

    def test_describe_renders_edges(self):
        trace = TransitionTrace.record(CounterADT(), ["inc"])
        text = trace.describe()
        assert "ξ0" in text and "ξ1" in text and "inc" in text
