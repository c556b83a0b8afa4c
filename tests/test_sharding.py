"""Unit tests for the composed cross-shard atomicity checker.

The end-to-end paths (property suite, campaign presets, bench gates)
drive :func:`check_atomicity` through real runs; these pin its verdict
on hand-built final chains, one invariant at a time.
"""

from repro.blocktree.block import GENESIS, make_block
from repro.blocktree.chain import Chain
from repro.shard.atomicity import check_atomicity
from repro.shard.records import (
    CONFIRM_DEPTH,
    RELEASE_DEPTH,
    make_abort,
    make_commit,
    make_lock,
    make_release,
    parse_record,
)

END = 1000.0  # run horizon — far past every expiry below
EXPIRY = 50.0


def chain_with(*payloads, pad=0):
    """A shard chain carrying ``payloads`` in order, then ``pad`` empties."""
    blocks = [GENESIS]
    for i, payload in enumerate(payloads):
        blocks.append(make_block(blocks[-1], label=f"b{i}", payload=tuple(payload)))
    for j in range(pad):
        blocks.append(make_block(blocks[-1], label=f"pad{j}", payload=()))
    return Chain.of(blocks)


def fresh_lock():
    lock = make_lock(("g0",), 0, 1, expiry=EXPIRY, fee=1.0)
    return lock, parse_record(lock).tid


class TestDecisionPaths:
    def test_commit_path_is_clean(self):
        lock, _ = fresh_lock()
        report = check_atomicity(
            {
                0: chain_with([lock], pad=CONFIRM_DEPTH),
                1: chain_with([make_commit(lock)]),
            },
            end_time=END,
        )
        assert report.ok, report.violations
        assert report.counts["locks"] == 1
        assert report.counts["commits"] == 1
        assert report.counts["pending"] == 0
        assert report.abort_rate == 0.0

    def test_timeout_abort_then_release_is_clean(self):
        lock, _ = fresh_lock()
        report = check_atomicity(
            {
                0: chain_with([lock], [make_release(lock)]),
                1: chain_with([make_abort(lock)], pad=RELEASE_DEPTH),
            },
            end_time=END,
        )
        assert report.ok, report.violations
        assert report.counts["aborts"] == 1
        assert report.counts["releases"] == 1
        assert report.abort_rate == 1.0

    def test_cross_chain_double_decision_flagged(self):
        lock, tid = fresh_lock()
        report = check_atomicity(
            {
                0: chain_with([lock], pad=CONFIRM_DEPTH),
                1: chain_with([make_commit(lock)]),
                2: chain_with([make_abort(lock)], pad=RELEASE_DEPTH),
            },
            end_time=END,
        )
        assert f"conflicting-decision:{tid}" in report.violations

    def test_commit_and_release_duplicate_value(self):
        lock, tid = fresh_lock()
        report = check_atomicity(
            {
                0: chain_with([lock], [make_release(lock)]),
                1: chain_with([make_commit(lock)]),
            },
            end_time=END,
        )
        assert f"duplicated-value:{tid}" in report.violations
        # ...and the release lacks the abort that should justify it.
        assert f"release-without-abort:{tid}" in report.violations


class TestEventualDecision:
    def test_expired_undecided_lock_flagged(self):
        lock, tid = fresh_lock()
        report = check_atomicity(
            {0: chain_with([lock], pad=CONFIRM_DEPTH), 1: chain_with()},
            end_time=END,
        )
        assert report.violations == [f"undecided-lock:{tid}"]

    def test_unconfirmed_lock_never_started_the_clock(self):
        lock, _ = fresh_lock()
        # The LOCK sits at the tip (< CONFIRM_DEPTH): the coordinator
        # never noticed it, so no decision can be demanded of it.
        report = check_atomicity(
            {0: chain_with([lock]), 1: chain_with()}, end_time=END
        )
        assert report.ok, report.violations
        assert report.counts["pending"] == 1

    def test_queued_decision_is_pending_not_violation(self):
        lock, tid = fresh_lock()
        report = check_atomicity(
            {0: chain_with([lock], pad=CONFIRM_DEPTH), 1: chain_with()},
            end_time=END,
            in_flight={("abort", tid)},
        )
        assert report.ok, report.violations
        assert report.counts["pending"] == 1

    def test_grace_excuses_a_recent_expiry(self):
        lock, _ = fresh_lock()
        report = check_atomicity(
            {0: chain_with([lock], pad=CONFIRM_DEPTH), 1: chain_with()},
            end_time=EXPIRY + 5.0,
            grace=10.0,
        )
        assert report.ok, report.violations


class TestEventualRelease:
    def test_deep_abort_without_release_flagged(self):
        lock, tid = fresh_lock()
        report = check_atomicity(
            {
                0: chain_with([lock], pad=CONFIRM_DEPTH),
                1: chain_with([make_abort(lock)], pad=RELEASE_DEPTH),
            },
            end_time=END,
        )
        assert f"unreleased-abort:{tid}" in report.violations

    def test_shallow_abort_is_still_inside_the_fork_window(self):
        lock, _ = fresh_lock()
        report = check_atomicity(
            {
                0: chain_with([lock], pad=CONFIRM_DEPTH),
                1: chain_with([make_abort(lock)]),
            },
            end_time=END,
        )
        assert report.ok, report.violations
        assert report.counts["pending"] == 1

    def test_queued_release_is_pending(self):
        lock, tid = fresh_lock()
        report = check_atomicity(
            {
                0: chain_with([lock], pad=CONFIRM_DEPTH),
                1: chain_with([make_abort(lock)], pad=RELEASE_DEPTH),
            },
            end_time=END,
            in_flight={("release", tid)},
        )
        assert report.ok, report.violations


class TestReorgEvidence:
    def test_decision_without_lock_needs_repooled_evidence(self):
        lock, tid = fresh_lock()
        chains = {0: chain_with(), 1: chain_with([make_commit(lock)])}
        bare = check_atomicity(chains, end_time=END)
        assert f"commit-without-lock:{tid}" in bare.violations
        # A reorg re-pooled the LOCK on some replica: pending, not theft.
        excused = check_atomicity(
            chains, end_time=END, in_flight={("lock", tid)}
        )
        assert excused.ok, excused.violations
        assert excused.counts["pending"] == 1

    def test_misrouted_lock_flagged(self):
        lock, tid = fresh_lock()  # src_shard=0, but committed on shard 1
        report = check_atomicity(
            {0: chain_with(), 1: chain_with([lock], pad=CONFIRM_DEPTH)},
            end_time=END,
            in_flight={("abort", tid)},
        )
        assert f"misrouted-lock:{tid}" in report.violations
