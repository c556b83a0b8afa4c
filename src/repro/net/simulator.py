"""Discrete-event simulation engine (calendar-queue edition).

Events form a single total order of ``(time, sequence)`` pairs; ties
break on insertion order, which makes every run fully deterministic for
a given seed.  All model randomness flows through :attr:`Simulator.rng`
(one seeded :class:`random.Random`), matching the repository-wide
determinism rule.

The scheduler is a *calendar queue* rather than one global heap: time is
divided into fixed-width buckets, future events append to their bucket
unsorted (O(1)), and a bucket is sorted lazily only when the clock
enters it.  A small heap of *bucket indices* (one entry per non-empty
future bucket, not per event) finds the next bucket.  Same-bucket
inserts land via :func:`bisect.insort` into the already-sorted current
bucket.  At large N this replaces an O(log n_events) heap push per
message with an amortised O(1) append, while executing byte-identically
to the retained heap oracle (:mod:`repro.net.reference_queue`) — the
differential suite holds the two engines event-for-event equal.

Recurring timers (:meth:`Simulator.every`) are slotted into the same
calendar buckets through reusable :class:`_WheelTimer` records — the
bucket array doubles as the timer wheel, so re-arming allocates no
closure and each tick still fires at exactly ``start + n * interval``
(one rounding per tick; the PR-4 drift fix is preserved bit-for-bit).

The simulator clock is the paper's *fictional global clock*: it orders
events for the history recorder, but simulated processes never read it
directly — they only see message deliveries and their own timers.
"""

from __future__ import annotations

import gc
import random
from bisect import insort
from heapq import heappop, heappush
from typing import Callable, Optional

__all__ = ["Simulator"]

#: Consumed-prefix length at which the current bucket is compacted.
#: Compaction only triggers once the consumed prefix dominates the
#: bucket, so the copy cost amortises to O(1) per executed event.
_COMPACT_THRESHOLD = 4096


class _WheelTimer:
    """A recurring timer slotted into the calendar buckets.

    One record per :meth:`Simulator.every` call, re-used across every
    tick (no per-tick closure).  Tick ``n`` fires at exactly
    ``start + n * interval`` — a single multiplication per tick, never a
    running ``now + interval`` sum, which accumulates float error and
    skips (or duplicates) the boundary tick at ``until``.
    """

    __slots__ = ("sim", "callback", "interval", "start", "until", "n")

    def __init__(
        self,
        sim: "Simulator",
        callback: Callable[[], None],
        interval: float,
        start: float,
        until: Optional[float],
    ) -> None:
        self.sim = sim
        self.callback = callback
        self.interval = interval
        self.start = start
        self.until = until
        self.n = 0

    def __call__(self) -> None:
        # The callback runs before the re-arm so the next tick's
        # sequence number is drawn *after* anything the callback itself
        # scheduled — the exact ordering the old closure produced.
        self.callback()
        self.n += 1
        next_time = self.start + (self.n + 1) * self.interval
        if self.until is None or next_time <= self.until:
            self.sim.schedule_at(next_time, self)


class Simulator:
    """A deterministic discrete-event scheduler over a calendar queue."""

    __slots__ = (
        "now",
        "rng",
        "events_executed",
        "_sequence",
        "_width",
        "_buckets",
        "_bucket_heap",
        "_current",
        "_pos",
        "_cursor",
        "_size",
    )

    def __init__(self, seed: int = 0, bucket_width: float = 1.0) -> None:
        if bucket_width <= 0:
            raise ValueError("bucket_width must be positive")
        self.now: float = 0.0
        self.rng = random.Random(seed)
        self.events_executed = 0
        self._sequence = 0
        self._width = bucket_width
        #: bucket index -> unsorted event list (future buckets only).
        self._buckets: dict = {}
        #: min-heap of the indices present in ``_buckets``.
        self._bucket_heap: list = []
        #: the bucket the clock is in, sorted; ``_pos`` is the read head.
        self._current: list = []
        self._pos = 0
        self._cursor = -1
        self._size = 0

    # -- scheduling -------------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` after ``delay`` simulated time units."""
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        self.schedule_at(self.now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` at absolute simulated time ``time``."""
        if time < self.now:
            raise ValueError("cannot schedule into the past")
        self._push(time, callback, ())

    def schedule_call(self, time: float, fn: Callable[..., None], *args) -> None:
        """Like :meth:`schedule_at` but passes ``args`` at fire time.

        Avoids a closure allocation per scheduled event on hot paths
        (message delivery schedules one event per message).
        """
        if time < self.now:
            raise ValueError("cannot schedule into the past")
        self._push(time, fn, args)

    def _push(self, time: float, fn: Callable[..., None], args: tuple) -> None:
        entry = (time, self._sequence, fn, args)
        self._sequence += 1
        idx = int(time // self._width)
        if idx <= self._cursor:
            # Lands in (or before) the bucket the clock already entered:
            # keep the current bucket sorted.  Everything before ``_pos``
            # has fired at times <= now <= time, so ``lo=_pos`` is safe.
            insort(self._current, entry, lo=self._pos)
        else:
            bucket = self._buckets.get(idx)
            if bucket is None:
                self._buckets[idx] = [entry]
                heappush(self._bucket_heap, idx)
            else:
                bucket.append(entry)
        self._size += 1

    def _advance_bucket(self) -> None:
        """Enter the next non-empty bucket (sorting it now, lazily)."""
        idx = heappop(self._bucket_heap)
        bucket = self._buckets.pop(idx)
        bucket.sort()
        self._current = bucket
        self._pos = 0
        self._cursor = idx

    # -- execution --------------------------------------------------------------

    def run(
        self,
        until: Optional[float] = None,
        max_events: int = 10_000_000,
    ) -> int:
        """Execute events in time order.

        Stops when the queue drains, when the next event lies beyond
        ``until`` (the clock then advances to ``until``), or after
        ``max_events``.  Returns the number of events executed.

        The cyclic garbage collector is paused for the loop: reference
        counting frees everything a run drops (a run makes no cyclic
        garbage — ``tests/test_gc_invariant.py``), so the collector's
        only work would be re-walking the growing run state.  On exit
        it is re-enabled and generations 0–1 are collected once, so
        each object the run allocated is examined once, here.  A caller
        that had the collector off keeps it off, uncollected.
        """
        paused = gc.isenabled()
        if paused:
            gc.disable()
        executed = 0
        try:
            while self._size and executed < max_events:
                if self._pos >= len(self._current):
                    self._advance_bucket()
                entry = self._current[self._pos]
                time = entry[0]
                if until is not None and time > until:
                    self.now = until
                    break
                self._pos += 1
                self._size -= 1
                if self._pos >= _COMPACT_THRESHOLD and self._pos * 2 >= len(self._current):
                    del self._current[: self._pos]
                    self._pos = 0
                self.now = time
                entry[2](*entry[3])
                executed += 1
                self.events_executed += 1
            else:
                if until is not None and not self._size:
                    self.now = max(self.now, until)
        finally:
            if paused:
                gc.enable()
                gc.collect(1)
        return executed

    def every(
        self,
        interval: float,
        callback: Callable[[], None],
        until: Optional[float] = None,
    ) -> None:
        """Run ``callback`` every ``interval`` time units.

        The first firing is at ``now + interval``; re-arming stops once
        the *next* firing would land beyond ``until``.  Scenario metric
        sampling (fork-degree/height time series during adversarial
        runs) is built on this.

        Tick ``n`` fires at ``start + n * interval`` (one rounding per
        tick), *not* at the running sum of ``interval`` additions —
        repeated ``now + interval`` re-arming accumulates float error,
        drifting tick times and skipping (or duplicating) the boundary
        tick at ``until``.  A tick landing exactly on ``until`` fires
        exactly once.
        """
        if interval <= 0:
            raise ValueError("interval must be positive")
        start = self.now
        if until is None or start + interval <= until:
            timer = _WheelTimer(self, callback, interval, start, until)
            self.schedule_at(start + interval, timer)

    def pending(self) -> int:
        """Number of queued events."""
        return self._size
