"""The pre-calendar heap scheduler, retained as a differential oracle.

This is the original ``repro.net.simulator.Simulator`` — one global
``heapq`` of ``(time, sequence, callback)`` entries — kept verbatim so
the calendar-queue rewrite can be checked *event for event* against it
(``tests/test_queue_differential.py``), its only user.

Do not "improve" this module: its value is that it does not change.
The only addition over the historical code is :meth:`schedule_call`,
which both engines expose so consumers can schedule without allocating
a closure per event.
"""

from __future__ import annotations

import heapq
import random
from typing import Callable, List, Optional, Tuple

__all__ = ["HeapSimulator"]


class HeapSimulator:
    """A deterministic discrete-event scheduler over one global heap."""

    def __init__(self, seed: int = 0) -> None:
        self.now: float = 0.0
        self.rng = random.Random(seed)
        self._queue: List[Tuple[float, int, Callable[..., None], tuple]] = []
        self._sequence = 0
        self.events_executed = 0

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` after ``delay`` simulated time units."""
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        self.schedule_at(self.now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` at absolute simulated time ``time``."""
        if time < self.now:
            raise ValueError("cannot schedule into the past")
        heapq.heappush(self._queue, (time, self._sequence, callback, ()))
        self._sequence += 1

    def schedule_call(self, time: float, fn: Callable[..., None], *args) -> None:
        """Like :meth:`schedule_at` but passes ``args`` at fire time.

        Avoids a closure allocation per scheduled event on hot paths
        (message delivery schedules one event per message).
        """
        if time < self.now:
            raise ValueError("cannot schedule into the past")
        heapq.heappush(self._queue, (time, self._sequence, fn, args))
        self._sequence += 1

    def run(
        self,
        until: Optional[float] = None,
        max_events: int = 10_000_000,
    ) -> int:
        """Execute events in time order.

        Stops when the queue drains, when the next event lies beyond
        ``until`` (the clock then advances to ``until``), or after
        ``max_events``.  Returns the number of events executed.
        """
        executed = 0
        while self._queue and executed < max_events:
            time, _, fn, args = self._queue[0]
            if until is not None and time > until:
                self.now = until
                break
            heapq.heappop(self._queue)
            self.now = time
            fn(*args)
            executed += 1
            self.events_executed += 1
        else:
            if until is not None and not self._queue:
                self.now = max(self.now, until)
        return executed

    def every(
        self,
        interval: float,
        callback: Callable[[], None],
        until: Optional[float] = None,
    ) -> None:
        """Run ``callback`` every ``interval`` time units.

        Tick ``n`` fires at ``start + n * interval`` (one rounding per
        tick) — never at a running sum of ``interval`` additions, which
        accumulates float error and skips or duplicates the boundary
        tick at ``until``.  A tick landing exactly on ``until`` fires
        exactly once.
        """
        if interval <= 0:
            raise ValueError("interval must be positive")
        start = self.now
        n = 0

        def tick() -> None:
            nonlocal n
            callback()
            n += 1
            next_time = start + (n + 1) * interval
            if until is None or next_time <= until:
                self.schedule_at(next_time, tick)

        if until is None or start + interval <= until:
            self.schedule_at(start + interval, tick)

    def pending(self) -> int:
        """Number of queued events."""
        return len(self._queue)
