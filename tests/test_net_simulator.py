"""Tests for the discrete-event simulator and channel models."""

import pytest

from repro.net.channels import (
    DROP,
    AsynchronousChannel,
    LossyChannel,
    SynchronousChannel,
    WeaklySynchronousChannel,
)
from repro.net.simulator import Simulator


class TestSimulator:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(2.0, lambda: log.append("b"))
        sim.schedule(1.0, lambda: log.append("a"))
        sim.schedule(3.0, lambda: log.append("c"))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append(1))
        sim.schedule(1.0, lambda: log.append(2))
        sim.run()
        assert log == [1, 2]

    def test_run_until_stops_clock(self):
        sim = Simulator()
        log = []
        sim.schedule(5.0, lambda: log.append("late"))
        sim.run(until=2.0)
        assert log == [] and sim.now == 2.0
        sim.run()
        assert log == ["late"] and sim.now == 5.0

    def test_nested_scheduling(self):
        sim = Simulator()
        log = []

        def first():
            log.append("first")
            sim.schedule(1.0, lambda: log.append("second"))

        sim.schedule(1.0, first)
        sim.run()
        assert log == ["first", "second"]
        assert sim.now == 2.0

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)
        with pytest.raises(ValueError):
            sim.schedule_at(-5.0, lambda: None)

    def test_max_events_bound(self):
        sim = Simulator()

        def reschedule():
            sim.schedule(1.0, reschedule)

        sim.schedule(0.0, reschedule)
        executed = sim.run(max_events=10)
        assert executed == 10

    def test_deterministic_rng(self):
        assert Simulator(seed=4).rng.random() == Simulator(seed=4).rng.random()

    def test_pending_count(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        assert sim.pending() == 1


class TestSimulatorRunEdges:
    """Clock-advance edge cases of ``run(until=..., max_events=...)``."""

    def test_drained_queue_advances_clock_to_until(self):
        sim = Simulator()
        assert sim.run(until=5.0) == 0
        assert sim.now == 5.0

    def test_drained_after_events_advances_clock_to_until(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        assert sim.run(until=5.0) == 1
        assert sim.now == 5.0

    def test_max_events_exhaustion_freezes_clock_at_last_event(self):
        sim = Simulator()
        for delay in (1.0, 2.0, 3.0):
            sim.schedule(delay, lambda: None)
        assert sim.run(until=10.0, max_events=2) == 2
        # The clock must NOT jump to ``until``: event 3 is still pending.
        assert sim.now == 2.0
        assert sim.pending() == 1

    def test_boundary_event_exactly_at_until_runs_once(self):
        sim = Simulator()
        log = []
        sim.schedule(5.0, lambda: log.append(sim.now))
        sim.run(until=5.0)
        assert log == [5.0] and sim.now == 5.0
        sim.run(until=9.0)  # nothing left: the boundary event never re-runs
        assert log == [5.0] and sim.now == 9.0

    def test_max_events_and_drain_coincide(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        # Queue drains on the same iteration the budget runs out: the
        # drained-queue rule wins and the clock advances to ``until``.
        assert sim.run(until=4.0, max_events=1) == 1
        assert sim.now == 4.0


class TestEveryDrift:
    def test_10k_ticks_of_0_1_land_exactly(self):
        # 0.1 is inexact in binary: the old ``now + interval`` re-arm
        # accumulated ~1.6e-10 of drift over 10k ticks and skipped the
        # boundary tick at 1000.0.  Tick n must land at fl(n * 0.1).
        sim = Simulator()
        times = []
        sim.every(0.1, lambda: times.append(sim.now), until=1000.0)
        sim.run()
        assert len(times) == 10_000
        assert all(t == (k + 1) * 0.1 for k, t in enumerate(times))
        assert times[-1] == 1000.0

    def test_boundary_tick_at_until_fires_exactly_once(self):
        sim = Simulator()
        times = []
        sim.every(0.25, lambda: times.append(sim.now), until=1.0)
        sim.run(until=50.0)
        assert times == [0.25, 0.5, 0.75, 1.0]

    def test_every_rearms_relative_to_start_time(self):
        sim = Simulator()
        times = []
        sim.schedule(2.0, lambda: sim.every(0.5, lambda: times.append(sim.now), until=4.0))
        sim.run()
        assert times == [2.5, 3.0, 3.5, 4.0]


class TestTimerWheelBoundaries:
    """Re-arming across calendar-bucket boundaries (the PR-4 drift bug
    class, now at wheel granularity).

    Recurring timers slot into the calendar buckets; a re-arm that lands
    exactly on a bucket edge (tick time == an integer multiple of the
    bucket width) must neither double-fire, skip, nor land one bucket
    early from float division noise.
    """

    def test_ticks_landing_exactly_on_bucket_edges(self):
        # width=1.0 and interval=0.5: every second tick hits an edge.
        sim = Simulator(bucket_width=1.0)
        times = []
        sim.every(0.5, lambda: times.append(sim.now), until=20.0)
        sim.run()
        assert times == [(k + 1) * 0.5 for k in range(40)]

    def test_interval_equal_to_bucket_width(self):
        # Every tick is an edge: tick n sits at the first slot of bucket n.
        sim = Simulator(bucket_width=1.0)
        times = []
        sim.every(1.0, lambda: times.append(sim.now), until=50.0)
        sim.run()
        assert times == [float(k + 1) for k in range(50)]

    def test_interval_larger_than_bucket_skips_buckets(self):
        # Re-arm jumps whole buckets; empty buckets must not fire or stall.
        sim = Simulator(bucket_width=1.0)
        times = []
        sim.every(3.5, lambda: times.append(sim.now), until=35.0)
        sim.run()
        assert times == [(k + 1) * 3.5 for k in range(10)]

    def test_rearm_into_current_bucket_preserves_order(self):
        # A tick whose successor lands in the *same* bucket exercises the
        # sorted-insert path; interleaved one-shot events at identical
        # times must still run in insertion order.
        sim = Simulator(bucket_width=10.0)
        log = []
        sim.every(1.0, lambda: log.append(("tick", sim.now)), until=5.0)
        for t in (1.0, 2.0, 3.0, 4.0, 5.0):
            sim.schedule_at(t, lambda t=t: log.append(("shot", t)))
        sim.run()
        # At t=1.0 the tick holds the older sequence number (armed before
        # the shots), so it fires first; every later tick is re-armed
        # *during* the run and draws a fresh sequence number, putting it
        # after the pre-scheduled shot at the same instant — exactly the
        # heap oracle's tie-break, preserved by the sorted-insert path.
        expected = [("tick", 1.0), ("shot", 1.0)]
        expected += [p for t in (2.0, 3.0, 4.0, 5.0) for p in (("shot", t), ("tick", t))]
        assert log == expected

    def test_drift_free_across_10k_bucket_edges(self):
        # 0.1 interval, 0.1 bucket width: every tick is an edge and the
        # fl(n * 0.1) landing rule must survive all 10k of them.
        sim = Simulator(bucket_width=0.1)
        count = 0

        def tick():
            nonlocal count
            count += 1

        sim.every(0.1, tick, until=1000.0)
        sim.run()
        assert count == 10_000
        assert sim.now == 1000.0


class TestRunUntilAtScale:
    """``run(until=...)`` boundary semantics with a 10k-node-sized load."""

    N = 10_000

    def test_until_boundary_with_10k_pending_timers(self):
        sim = Simulator()
        fired = []
        # One staggered timer per simulated node, crossing many buckets.
        for i in range(self.N):
            sim.schedule_at(i * 0.01, lambda i=i: fired.append(i))
        horizon = (self.N // 2) * 0.01
        executed = sim.run(until=horizon)
        # Every timer at or before the horizon fired, in order, and the
        # clock sits exactly at the horizon with the rest still queued.
        assert executed == self.N // 2 + 1  # timers 0 .. N/2 inclusive
        assert fired == list(range(self.N // 2 + 1))
        assert sim.now == horizon
        assert sim.pending() == self.N - executed
        sim.run()
        assert fired == list(range(self.N))

    def test_max_events_freeze_then_resume_at_scale(self):
        sim = Simulator()
        for i in range(self.N):
            sim.schedule_at(float(i), lambda: None)
        assert sim.run(until=float(self.N), max_events=self.N // 4) == self.N // 4
        # Budget exhausted with events pending: clock must freeze at the
        # last executed event, not jump to ``until``.
        assert sim.now == float(self.N // 4 - 1)
        assert sim.run(until=float(self.N)) == self.N - self.N // 4
        assert sim.now == float(self.N)


class TestChannels:
    def test_synchronous_bounded(self):
        sim = Simulator(seed=1)
        ch = SynchronousChannel(delta=2.0, min_delay=0.5)
        for _ in range(100):
            d = ch.delay("a", "b", None, sim.rng, sim.now)
            assert 0.5 <= d <= 2.0

    def test_asynchronous_unbounded_tail(self):
        sim = Simulator(seed=1)
        ch = AsynchronousChannel(mean=1.0)
        delays = [ch.delay("a", "b", None, sim.rng, 0.0) for _ in range(2000)]
        assert max(delays) > 4.0  # exponential tail exceeds any small bound
        assert sum(delays) / len(delays) == pytest.approx(1.0, rel=0.2)

    def test_weakly_synchronous_respects_gst(self):
        sim = Simulator(seed=1)
        ch = WeaklySynchronousChannel(gst=10.0, delta=1.0, pre_gst_mean=50.0)
        post = [ch.delay("a", "b", None, sim.rng, 11.0) for _ in range(100)]
        assert all(d <= 1.0 for d in post)
        pre = [ch.delay("a", "b", None, sim.rng, 0.0) for _ in range(200)]
        assert max(pre) > 1.0

    def test_lossy_channel_drops_matching(self):
        base = SynchronousChannel()
        ch = LossyChannel(base, should_drop=lambda s, d, m, now: d == "victim")
        sim = Simulator(seed=1)
        assert ch.delay("a", "victim", None, sim.rng, 0.0) is DROP
        assert ch.delay("a", "other", None, sim.rng, 0.0) is not DROP
