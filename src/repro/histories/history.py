"""The concurrent history ``H = ⟨Σ, E, Λ, ↦→, ≺, ր⟩`` (Definition 2.4).

The history owns the event list (totally ordered by ``eid``, which encodes
the fictional global clock) and exposes the three orders as decision
procedures plus the operation-level views that the consistency criteria
consume: reads with their returned chains, appends, and the replica events
``send``/``receive``/``update`` of Section 4.2.

The events are paired into :class:`OpRecord` operations once, on the
first call of an operation view, so recording a run pays nothing for it.
The pairing pass indexes the operations by name, and completed reads also
by process; every view reads that one table, and
:meth:`ConcurrentHistory.purged` builds its copy by filtering it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from repro.blocktree.chain import Chain
from repro.histories.continuation import ContinuationModel
from repro.histories.events import Event, EventKind, OpRecord

__all__ = ["ConcurrentHistory"]


@dataclass
class ConcurrentHistory:
    """A finite concurrent history with optional continuation declarations.

    ``events`` are sorted by ``eid``.  ``continuation`` (optional) declares
    the infinite extension for liveness checking; ``None`` means the
    history is complete (see :mod:`repro.histories.continuation`).
    """

    events: List[Event] = field(default_factory=list)
    continuation: Optional[ContinuationModel] = None

    def __post_init__(self) -> None:
        self.events = sorted(self.events, key=lambda e: e.eid)
        self._ops: Optional[List[OpRecord]] = None
        #: The operations by name (``"read"``: the completed reads only)
        #: and by ``("read", process)``; filled with ``_ops`` in one pass.
        self._table: Dict[Any, List[OpRecord]] = {}

    # -- event-level orders ----------------------------------------------------

    def process_order(self, e1: Event, e2: Event) -> bool:
        """``e1 ↦→ e2``: same process and ``e1`` occurs first."""
        return e1.proc == e2.proc and e1.eid < e2.eid

    def operation_order(self, e1: Event, e2: Event) -> bool:
        """``e1 ≺ e2`` per Definition 2.4.

        Either ``e1`` is the invocation and ``e2`` the response of the same
        operation, or ``e1`` is a response that precedes (in global time)
        the invocation ``e2`` of a different operation.
        """
        if e1.op_id == e2.op_id:
            return e1.kind is EventKind.INVOCATION and e2.kind is EventKind.RESPONSE
        return (
            e1.kind is EventKind.RESPONSE
            and e2.kind is EventKind.INVOCATION
            and e1.eid < e2.eid
        )

    def program_order(self, e1: Event, e2: Event) -> bool:
        """``e1 ր e2``: process order or operation order."""
        if e1.eid == e2.eid:
            return False
        return self.process_order(e1, e2) or self.operation_order(e1, e2)

    # -- operation views ------------------------------------------------------

    def operations(self) -> List[OpRecord]:
        """All operations (matched inv/resp pairs; pending ops included),
        paired on first use of any view (events are immutable once built)."""
        if self._ops is None:
            slots: Dict[int, List[Optional[Event]]] = {}
            for event in self.events:
                slot = slots.get(event.op_id)
                if slot is None:
                    slots[event.op_id] = slot = [None, None]
                slot[event.kind is EventKind.RESPONSE] = event
            ops: List[OpRecord] = []
            table = self._table
            for op_id, (inv, resp) in slots.items():
                first = inv or resp
                op = OpRecord(
                    op_id=op_id,
                    proc=first.proc,
                    name=first.op_name,
                    args=first.args,
                    invocation=first,
                    response=resp,
                )
                ops.append(op)
                if op.name != "read":
                    table.setdefault(op.name, []).append(op)
                elif resp is not None:
                    table.setdefault("read", []).append(op)
                    table.setdefault(("read", op.proc), []).append(op)
            self._ops = ops
        return self._ops

    def _named(self, key: Any) -> List[OpRecord]:
        """A fresh list of the operations indexed under ``key``."""
        self.operations()
        return list(self._table.get(key, ()))

    def reads(self) -> List[OpRecord]:
        """Completed ``read()`` operations, in invocation order."""
        return self._named("read")

    def appends(self) -> List[OpRecord]:
        """All ``append`` operations (complete or pending)."""
        return self._named("append")

    def successful_appends(self) -> List[OpRecord]:
        """Appends whose response returned ``True``."""
        return [op for op in self._named("append") if op.result is True]

    def sends(self) -> List[OpRecord]:
        """Replica-level ``send`` events (instantaneous operations)."""
        return self._named("send")

    def receives(self) -> List[OpRecord]:
        """Replica-level ``receive`` events."""
        return self._named("receive")

    def updates(self) -> List[OpRecord]:
        """Replica-level ``update`` events."""
        return self._named("update")

    def procs(self) -> List[str]:
        """All process identities appearing in the history."""
        return sorted({e.proc for e in self.events})

    def reads_of(self, proc: str) -> List[OpRecord]:
        """Completed reads of one process, in process order."""
        return self._named(("read", proc))

    @staticmethod
    def returned_chain(read_op: OpRecord) -> Chain:
        """The blockchain carried by a read's response event."""
        result = read_op.result
        if not isinstance(result, Chain):
            raise TypeError(f"read {read_op.op_id} did not return a Chain: {result!r}")
        return result

    def last_chain_of(self, proc: str) -> Optional[Chain]:
        """The chain returned by ``proc``'s final read (``None`` if no reads)."""
        reads = self.reads_of(proc)
        return self.returned_chain(reads[-1]) if reads else None

    # -- derived histories -----------------------------------------------------

    def purged(self) -> "ConcurrentHistory":
        """The history with unsuccessful appends removed (§3.4's Ĥ).

        Drops invocation *and* response events of every append whose
        response returned ``False`` (or is pending); a history without any
        is returned as is (histories are not mutated once built).  The
        copy filters this history's sorted events and paired operations,
        so it neither sorts nor pairs again.
        """
        appends = self.appends()
        bad_ids = {op.op_id for op in appends if op.result is not True}
        if not bad_ids:
            return self
        copy = ConcurrentHistory.__new__(ConcurrentHistory)
        copy.events = [e for e in self.events if e.op_id not in bad_ids]
        copy.continuation = self.continuation
        copy._ops = [op for op in self._ops if op.op_id not in bad_ids]
        copy._table = {
            **self._table,
            "append": [op for op in appends if op.op_id not in bad_ids],
        }
        return copy

    def restrict_to_procs(self, procs: Iterable[str]) -> "ConcurrentHistory":
        """Sub-history of the given processes (Definition 4.2 restriction)."""
        keep = set(procs)
        kept = [e for e in self.events if e.proc in keep]
        continuation = None
        if self.continuation is not None:
            continuation = ContinuationModel(
                {
                    p: c
                    for p, c in self.continuation.per_process.items()
                    if p in keep
                }
            )
        return ConcurrentHistory(events=kept, continuation=continuation)

    def describe(self, limit: int = 50) -> str:
        """Human-readable dump of the first ``limit`` events."""
        lines = [str(e) for e in self.events[:limit]]
        if len(self.events) > limit:
            lines.append(f"... ({len(self.events) - limit} more events)")
        return "\n".join(lines)
