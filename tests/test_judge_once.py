"""The judge pairs each history's events once and decides each property once.

``classify_run`` judges a run's purged histories against SC and EC, which
share three of their four properties.  These tests pin the work it does:
every recorded operation is paired into one :class:`OpRecord` (the purged
copy reuses the original's pairing), and each of the five ``check_*``
functions runs once per history.  A second test checks that the purged
copy is indistinguishable from a history built afresh from the kept
events and that SC and EC judged through one memo report what separate
checks report.
"""

import math
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.consistency.criteria as criteria
import repro.histories.history as history_module
from repro.blocktree.score import LengthScore
from repro.consistency.criteria import BTEventualConsistency, BTStrongConsistency
from repro.consistency.hierarchy import random_refinement_history
from repro.histories.history import ConcurrentHistory
from repro.protocols.algorand import run_algorand
from repro.protocols.classify import classify_run
from repro.workloads.scenarios import default_scenarios

SCORE = LengthScore()
CHECKS = (
    "check_block_validity",
    "check_local_monotonic_read",
    "check_strong_prefix",
    "check_ever_growing_tree",
    "check_eventual_prefix",
)


def _failed_append_ids(events):
    """Op ids of appends without a ``True`` response, found without pairing."""
    answered = {
        e.op_id for e in events if e.op_name == "append" and e.result is True
    }
    return {e.op_id for e in events if e.op_name == "append"} - answered


def test_classify_run_pairs_and_judges_each_history_once(monkeypatch):
    run = run_algorand(default_scenarios()["algorand"])
    (recorded,) = run.histories.values()
    op_ids = {e.op_id for e in recorded.events}
    assert _failed_append_ids(recorded.events), "the purge must drop appends"

    paired = Counter()
    make_record = history_module.OpRecord

    def counting_record(*args, **kwargs):
        record = make_record(*args, **kwargs)
        paired[record.op_id] += 1
        return record

    monkeypatch.setattr(history_module, "OpRecord", counting_record)
    calls = Counter()
    for name in CHECKS:
        check = getattr(criteria, name)

        def counting_check(*args, _name=name, _check=check, **kwargs):
            calls[_name] += 1
            return _check(*args, **kwargs)

        monkeypatch.setattr(criteria, name, counting_check)

    row = classify_run("algorand", run)

    assert row.matches_paper
    assert set(paired) == op_ids
    assert set(paired.values()) == {1}
    assert calls == {name: 1 for name in CHECKS}


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2_000), k=st.sampled_from([1, 2, math.inf]))
def test_purged_copy_equals_fresh_history(seed, k):
    history = random_refinement_history(k=k, seed=seed, n_ops=30).history
    history.operations()
    purged = history.purged()
    bad = _failed_append_ids(history.events)
    kept = [e for e in history.events if e.op_id not in bad]
    fresh = ConcurrentHistory(events=kept, continuation=history.continuation)

    assert purged.events == kept
    assert purged.operations() == fresh.operations()
    assert purged.reads() == fresh.reads()
    assert purged.appends() == fresh.appends()
    for proc in fresh.procs():
        assert purged.reads_of(proc) == fresh.reads_of(proc)
        assert purged.last_chain_of(proc) == fresh.last_chain_of(proc)
    judged = {}
    for criterion in (BTStrongConsistency, BTEventualConsistency):
        assert criterion(score=SCORE).check(purged, memo=judged) == criterion(
            score=SCORE
        ).check(fresh)
