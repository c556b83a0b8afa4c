"""The concurrent history ``H = ⟨Σ, E, Λ, ↦→, ≺, ր⟩`` (Definition 2.4).

The history owns the event list (totally ordered by ``eid``, which encodes
the fictional global clock) and exposes the three orders as decision
procedures plus the operation-level views that the consistency criteria
consume: reads with their returned chains, appends, and the replica events
``send``/``receive``/``update`` of Section 4.2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

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
        self._reads: Optional[List[OpRecord]] = None
        self._reads_by_proc: Optional[Dict[str, List[OpRecord]]] = None

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
        """All operations (matched inv/resp pairs; pending ops included)."""
        if self._ops is None:
            by_id: Dict[int, dict] = {}
            order: List[int] = []
            for event in self.events:
                slot = by_id.get(event.op_id)
                if slot is None:
                    by_id[event.op_id] = slot = {"inv": None, "resp": None}
                    order.append(event.op_id)
                if event.kind is EventKind.INVOCATION:
                    slot["inv"] = event
                else:
                    slot["resp"] = event
            ops: List[OpRecord] = []
            for op_id in order:
                slot = by_id[op_id]
                inv = slot["inv"] or slot["resp"]
                ops.append(
                    OpRecord(
                        op_id=op_id,
                        proc=inv.proc,
                        name=inv.op_name,
                        args=inv.args,
                        invocation=inv,
                        response=slot["resp"],
                    )
                )
            self._ops = ops
        return self._ops

    def _named(self, name: str) -> List[OpRecord]:
        return [op for op in self.operations() if op.name == name]

    def _completed_reads(self) -> List[OpRecord]:
        """The cached completed-read list (do not mutate)."""
        if self._reads is None:
            self._reads = [op for op in self._named("read") if op.complete]
        return self._reads

    def reads(self) -> List[OpRecord]:
        """Completed ``read()`` operations, in invocation order.

        Filtered once and cached — the batch checkers call this
        repeatedly on 10⁵⁺-read scenario histories (events are treated
        as immutable after construction, like the ``operations()``
        cache).  Returns a fresh list, so callers may mutate it freely,
        exactly as with the old per-call comprehension.
        """
        return list(self._completed_reads())

    def appends(self) -> List[OpRecord]:
        """All ``append`` operations (complete or pending)."""
        return self._named("append")

    def successful_appends(self) -> List[OpRecord]:
        """Appends whose response returned ``True``."""
        return [op for op in self._named("append") if op.complete and op.result is True]

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
        """Completed reads of one process, in process order.

        Grouped once and cached — iterating ``reads_of`` over every
        process used to rescan the full read list per process, a hidden
        quadratic in the batch checkers.
        """
        if self._reads_by_proc is None:
            by_proc: Dict[str, List[OpRecord]] = {}
            for op in self._completed_reads():
                by_proc.setdefault(op.proc, []).append(op)
            self._reads_by_proc = by_proc
        return list(self._reads_by_proc.get(proc, ()))

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
        is returned as is (histories are not mutated once built).
        """
        bad_ids = {
            op.op_id
            for op in self.appends()
            if not op.complete or op.result is not True
        }
        if not bad_ids:
            return self
        kept = [e for e in self.events if e.op_id not in bad_ids]
        return ConcurrentHistory(events=kept, continuation=self.continuation)

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
