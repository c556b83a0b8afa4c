"""Recorder producing :class:`~repro.histories.history.ConcurrentHistory`.

Every simulator and example in the library records BT-ADT operations and
replica events through this class.  Event ids are handed out in call
order, so the recorder must be driven in global-time order — which the
discrete-event simulator guarantees by construction, and direct use in
tests guarantees trivially.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.histories.continuation import ContinuationModel
from repro.histories.events import Event, EventKind
from repro.histories.history import ConcurrentHistory

__all__ = ["AppendLedger", "HistoryRecorder"]


class HistoryRecorder:
    """Incremental builder of concurrent histories.

    ``begin``/``end`` bracket a (possibly overlapping) operation;
    ``instant`` records the §4.2 replica events whose invocation and
    response coincide.  ``history()`` may be called at any point; it
    snapshots the events recorded so far.
    """

    def __init__(self) -> None:
        self._events: list[Event] = []
        self._next_op = 0
        self.ledger = AppendLedger(self)

    def _emit(
        self,
        proc: str,
        kind: EventKind,
        op_id: int,
        op_name: str,
        args: Tuple[Any, ...],
        result: Any,
        time: float,
    ) -> None:
        log = self._events  # an event's id is its index in the log
        log.append(Event(len(log), proc, kind, op_id, op_name, args, result, time))

    def begin(self, proc: str, op_name: str, args: Tuple[Any, ...] = (), time: float = 0.0) -> int:
        """Record an invocation event; returns the operation id."""
        op_id = self._next_op
        self._next_op += 1
        self._emit(proc, EventKind.INVOCATION, op_id, op_name, args, None, time)
        return op_id

    def end(self, proc: str, op_id: int, op_name: str, result: Any, time: float = 0.0) -> None:
        """Record the response event of operation ``op_id``."""
        self._emit(proc, EventKind.RESPONSE, op_id, op_name, (), result, time)

    def instant(
        self, proc: str, op_name: str, args: Tuple[Any, ...] = (), result: Any = None,
        time: float = 0.0,
    ) -> int:
        """Record an instantaneous operation (send/receive/update)."""
        op_id = self._next_op
        self._next_op += 1
        self._emit(proc, EventKind.INVOCATION, op_id, op_name, args, None, time)
        self._emit(proc, EventKind.RESPONSE, op_id, op_name, (), result, time)
        return op_id

    def record_read(self, proc: str, chain, time: float = 0.0) -> int:
        """Convenience: a complete ``read()`` returning ``chain``."""
        return self.instant(proc, "read", (), chain, time)

    def record_append(self, proc: str, block_id: str, ok: bool, time: float = 0.0) -> int:
        """Convenience: a complete ``append(b)`` with boolean outcome."""
        return self.instant(proc, "append", (block_id,), ok, time)

    def history(self, continuation: ContinuationModel | None = None) -> ConcurrentHistory:
        """Snapshot the recorded events into a history."""
        return ConcurrentHistory(events=list(self._events), continuation=continuation)

    def __len__(self) -> int:
        return len(self._events)


class AppendLedger:
    """One history's appends as the refined append ``getToken*;
    consumeToken``, each invocation answered exactly once (see "The
    append ledger" in docs/architecture.md).  An invocation is tagged
    with the consensus instance that will decide its block; an immediate
    append is its own instance."""

    def __init__(self, recorder: HistoryRecorder) -> None:
        self._recorder = recorder
        #: instance → process → open invocations (block id → op id); None: answered.
        self._instances: Dict[Any, Dict[str, Optional[Dict[str, int]]]] = {}
        self._counts: Dict[str, Dict[str, int]] = {}

    def stats(self, proc: str) -> Dict[str, int]:
        """``proc``'s append counters."""
        counts = ("begun", "resolved", "unknown_resolutions", "reinvoked")
        return self._counts.setdefault(proc, dict.fromkeys(counts, 0))

    def invoke(self, proc: str, block: Any, instance: Any, time: float = 0.0) -> None:
        """getToken.  Re-invoking an open block only counts ``reinvoked``."""
        holders = self._instances.setdefault(instance, {})
        pending = holders[proc] = holders.get(proc) or {}
        if block.block_id in pending:
            self.stats(proc)["reinvoked"] += 1
            return
        pending[block.block_id] = self._recorder.begin(
            proc, "append", (block.block_id, block.parent_id), time=time
        )
        self.stats(proc)["begun"] += 1

    def decide(
        self, proc: str, instance: Any, block_id: Any, time: float = 0.0
    ) -> None:
        """consumeToken: True for ``block_id``, False for ``proc``'s other
        invocations in ``instance``.  A second decide at ``proc``, or one
        of an instance nobody invoked in, counts ``unknown_resolutions``."""
        holders = self._instances.get(instance, {})
        pending = holders.get(proc, {})
        if not holders or pending is None:
            self.stats(proc)["unknown_resolutions"] += 1
            return
        holders[proc] = None
        for block, op_id in pending.items():
            self._recorder.end(proc, op_id, "append", block == block_id, time=time)
        self.stats(proc)["resolved"] += len(pending)

    def close(self, now: float) -> None:
        """Answer every invocation still open False.

        Open means undecided at the invoking process, which is not always
        "never committed": in the cause-B cells the block was committed
        while its invoker was offline or eclipsed (see "The ✗ cells" in
        docs/architecture.md).
        """
        for instance, holders in self._instances.items():
            for proc in [proc for proc, pending in holders.items() if pending]:
                self.decide(proc, instance, None, now)
