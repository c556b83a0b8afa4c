"""Figure 1 — the BT-ADT transition system walk.

Regenerates the paper's example path (append(b1)/true, append(b3)/false,
append(b2)/true with interleaved reads) and verifies the produced word
belongs to the sequential specification L(BT-ADT).  The measured quantity
is the walk + membership check.
"""

from repro.adt.sequential import (
    TransitionTrace,
    generate_sequential_history,
    is_sequential_history,
)
from repro.blocktree.block import GENESIS, PredicateValid, make_block
from repro.blocktree.bt_adt import BTADT, Append, Read
from repro.blocktree.selection import LongestChain


def figure1_walk():
    validity = PredicateValid(fn=lambda b: b.label != "b3")
    adt = BTADT(LongestChain(), validity)
    symbols = [
        Append(make_block(GENESIS, label="b1")),
        Read(),
        Append(make_block(GENESIS, label="b3")),  # invalid: rejected
        Append(make_block(GENESIS, label="b2")),
        Read(),
    ]
    trace = TransitionTrace.record(adt, symbols)
    word = generate_sequential_history(adt, symbols)
    member = is_sequential_history(adt, word)
    return adt, trace, member


def test_bench_fig01_btadt_walk(benchmark, report):
    adt, trace, member = benchmark(figure1_walk)
    outputs = [op.output for op in trace.operations]
    report(
        "Figure 1 — BT-ADT transition path (operation/output per edge)",
        trace.describe(),
    )
    # The paper's path: append(b1)/true, read/b0⌢b1, append(b3)/false,
    # append(b2)/true, read/b0⌢b1⌢b2.
    assert outputs[0] is True
    assert [b.label for b in outputs[1].non_genesis()] == ["b1"]
    assert outputs[2] is False
    assert outputs[3] is True
    assert [b.label for b in outputs[4].non_genesis()] == ["b1", "b2"]
    assert member.ok
    benchmark.extra_info["walk_edges"] = len(trace.operations)
    benchmark.extra_info["in_sequential_spec"] = member.ok
