"""Tests for the BT-ADT (Definition 3.1) — including the Figure 1 walk."""

from repro.adt.base import Operation
from repro.adt.sequential import (
    TransitionTrace,
    generate_sequential_history,
    is_sequential_history,
)
from repro.blocktree.block import (
    GENESIS,
    AlwaysValid,
    PredicateValid,
    TableValid,
    make_block,
)
from repro.blocktree.bt_adt import BTADT, Append, Read
from repro.blocktree.selection import LongestChain


def btadt_with_table():
    validity = TableValid()
    return BTADT(selection=LongestChain(), validity=validity), validity


class TestTransitions:
    def test_initial_read_returns_genesis(self):
        adt = BTADT(LongestChain(), AlwaysValid())
        state = adt.initial_state()
        chain = adt.output(state, Read())
        assert chain.tip.is_genesis and chain.height == 0

    def test_valid_append_extends_selected_chain(self):
        adt = BTADT(LongestChain(), AlwaysValid())
        state = adt.initial_state()
        state, ok = adt.apply(state, Append(make_block(GENESIS, label="1")))
        assert ok is True
        chain = adt.output(state, Read())
        assert chain.height == 1
        assert chain.tip.label == "1"

    def test_invalid_append_is_noop_and_false(self):
        adt, table = btadt_with_table()
        state = adt.initial_state()
        state, ok = adt.apply(state, Append(make_block(GENESIS, label="bad")))
        assert ok is False
        assert adt.output(state, Read()).height == 0

    def test_append_attaches_at_selected_tip_not_descriptor_parent(self):
        adt = BTADT(LongestChain(), AlwaysValid())
        state = adt.initial_state()
        state, _ = adt.apply(state, Append(make_block(GENESIS, label="1")))
        # Descriptor still says parent=genesis, but f(bt) tip is block 1.
        state, ok = adt.apply(state, Append(make_block(GENESIS, label="2")))
        assert ok is True
        chain = adt.output(state, Read())
        assert [b.label for b in chain.non_genesis()] == ["1", "2"]

    def test_read_does_not_change_state(self):
        adt = BTADT(LongestChain(), AlwaysValid())
        state = adt.initial_state()
        state2 = adt.transition(state, Read())
        assert state2 is state

    def test_genesis_append_rejected(self):
        adt = BTADT(LongestChain(), AlwaysValid())
        state = adt.initial_state()
        _, ok = adt.apply(state, Append(GENESIS))
        assert ok is False

    def test_freeze_distinguishes_states(self):
        adt = BTADT(LongestChain(), AlwaysValid())
        s0 = adt.initial_state()
        s1, _ = adt.apply(s0, Append(make_block(GENESIS, label="1")))
        assert adt.freeze(s0) != adt.freeze(s1)


class TestFigure1Walk:
    """The paper's Figure 1: append(b1)/true, append(b3)/false (invalid),
    append(b2)/true, reads returning b0⌢b1 then b0⌢b1⌢b2."""

    def test_figure1_path(self):
        validity = PredicateValid(fn=lambda b: b.label != "b3")
        adt = BTADT(LongestChain(), validity)
        b1 = make_block(GENESIS, label="b1")
        b3 = make_block(GENESIS, label="b3")
        b2 = make_block(GENESIS, label="b2")
        trace = TransitionTrace.record(
            adt, [Append(b1), Read(), Append(b3), Append(b2), Read()]
        )
        outputs = [op.output for op in trace.operations]
        assert outputs[0] is True
        assert [b.label for b in outputs[1].non_genesis()] == ["b1"]
        assert outputs[2] is False
        assert outputs[3] is True
        assert [b.label for b in outputs[4].non_genesis()] == ["b1", "b2"]

    def test_figure1_word_in_sequential_spec(self):
        validity = PredicateValid(fn=lambda b: b.label != "b3")
        adt = BTADT(LongestChain(), validity)
        b1 = make_block(GENESIS, label="b1")
        word = generate_sequential_history(adt, [Append(b1), Read()])
        assert is_sequential_history(adt, word).ok

    def test_tampered_word_rejected(self):
        adt = BTADT(LongestChain(), AlwaysValid())
        b1 = make_block(GENESIS, label="b1")
        word = generate_sequential_history(adt, [Append(b1), Read()])
        tampered = [word[0], Operation(word[1].symbol, output=None)]
        assert not is_sequential_history(adt, tampered).ok
