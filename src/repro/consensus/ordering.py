"""Leader-based ordering service — Hyperledger Fabric's backbone (§5.7).

"HyperLedger Fabric relies on a leader election to determine which
process will generate the next block … transactions are ordered through
[an] atomic broadcast primitive."  The component implements a compact
crash-fault-tolerant total-order broadcast:

* the current leader (term-based round-robin) assigns sequence numbers to
  submitted batches and broadcasts ``ORDER(term, seq, batch)``;
* followers acknowledge; on a majority of acks the leader broadcasts
  ``DELIVER(term, seq, batch)`` and everyone delivers in sequence order;
* a follower that sees no progress for ``timeout`` starts the next term:
  the new leader (round-robin) continues from the highest sequence it has
  delivered; pending undelivered batches are resubmitted by their origin.

This is Raft's skeleton without logs-as-state-machine generality —
adequate for the CFT ordering cluster Fabric actually uses (Raft/Kafka),
and sufficient to give every peer an identical block sequence (Θ_F,k=1
behaviour with Strong Prefix).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.consensus.relay import QuorumRelay
from repro.net.process import SimProcess

__all__ = ["OrderingService", "OrderingClient"]

SUBMIT = "ord-submit"
ORDER = "ord-order"
ACK = "ord-ack"
DELIVER = "ord-deliver"
TERMCHANGE = "ord-termchange"

#: The ordering message kinds: tag → message length.
_LENGTHS = {SUBMIT: 2, ORDER: 4, ACK: 3, DELIVER: 4, TERMCHANGE: 3}


class OrderingService:
    """One ordering node; a cluster of these provides total-order broadcast.

    ``on_deliver(seq, batch)`` fires in strictly increasing ``seq`` order
    at every correct node (gaps are buffered).  Clients submit via
    :class:`OrderingClient` or by sending ``(SUBMIT, batch)`` to any node,
    which forwards to the current leader.
    """

    def __init__(
        self,
        host: SimProcess,
        cluster: List[str],
        on_deliver: Callable[[int, Any], None],
        timeout: float = 20.0,
        relay: Optional[QuorumRelay] = None,
    ) -> None:
        self.host = host
        self.cluster = sorted(cluster)
        self.on_deliver = on_deliver
        self.timeout = timeout
        #: Optional sparse-overlay relay (owned by the host so peers
        #: outside the cluster still forward envelopes between
        #: non-adjacent cluster members).
        self.relay = relay
        self.term = 0
        self.next_seq = 0
        self.acks: Dict[Tuple[int, int], Set[str]] = {}
        self.pending_order: Dict[int, Any] = {}
        self.delivered: Dict[int, Any] = {}
        self.deliver_cursor = 0
        self.buffer: Dict[int, Any] = {}
        self.term_votes: Dict[int, Set[str]] = {}
        self.unordered: List[Any] = []
        self._progress_marker = 0
        self._started = False
        host.route(self.on_message, _LENGTHS)

    def start(self) -> None:
        """Arm the failure-detector watchdog.

        Call from the host's ``on_start`` (the host must be registered
        with a network before timers can be set).
        """
        if not self._started:
            self._started = True
            self.host.call_later(self.timeout, self.on_timer, self.term, 0)

    def restart(self) -> None:
        """Re-arm the watchdog after a lifecycle suspend/recover.

        A suspended host's pending watchdog dies with its lifecycle
        epoch, and :meth:`start` is idempotent by design — so a resumed
        orderer needs this to get its failure detector ticking again.
        """
        self._started = False
        self.start()

    # -- roles ---------------------------------------------------------------

    @property
    def leader(self) -> str:
        """The current term's leader."""
        return self.cluster[self.term % len(self.cluster)]

    @property
    def is_leader(self) -> bool:
        return self.host.name == self.leader

    def majority(self) -> int:
        return len(self.cluster) // 2 + 1

    # -- API --------------------------------------------------------------------

    def submit(self, batch: Any) -> None:
        """Submit a batch for total ordering (forwards to the leader)."""
        if self.is_leader:
            self._order(batch)
        else:
            self.host.send(self.leader, (SUBMIT, batch))
            self.unordered.append(batch)

    def _bcast(self, message: tuple) -> None:
        """Cluster-wide broadcast, self included: the host's one-hop
        broadcast, or the relay's when the host supplied one."""
        (self.relay or self.host).broadcast(message, include_self=True)

    def _order(self, batch: Any) -> None:
        seq = self.next_seq
        self.next_seq += 1
        self.pending_order[seq] = batch
        self._bcast((ORDER, self.term, seq, batch))

    # -- message handling ---------------------------------------------------------

    def on_message(self, src: str, message: tuple) -> None:
        tag = message[0]
        if tag == SUBMIT:
            if self.is_leader:
                self._order(message[1])
            else:
                self.host.send(self.leader, message)  # forward to current leader
        elif tag == ORDER:
            _t, term, seq, batch = message
            if term == self.term and src == self.leader:
                self.host.send(src, (ACK, term, seq))
        elif tag == ACK:
            _t, term, seq = message
            if term != self.term or not self.is_leader:
                return
            votes = self.acks.setdefault((term, seq), set())
            votes.add(src)
            if len(votes) >= self.majority() and seq in self.pending_order:
                batch = self.pending_order.pop(seq)
                self._bcast((DELIVER, term, seq, batch))
        elif tag == DELIVER:
            _t, term, seq, batch = message
            self._deliver(seq, batch)
        else:  # TERMCHANGE
            _t, new_term, cursor = message
            if new_term <= self.term:
                return
            votes = self.term_votes.setdefault(new_term, set())
            votes.add(src)
            if len(votes) >= self.majority():
                self._enter_term(new_term)

    def _deliver(self, seq: int, batch: Any) -> None:
        if seq in self.delivered:
            return
        self.buffer[seq] = batch
        while self.deliver_cursor in self.buffer:
            b = self.buffer.pop(self.deliver_cursor)
            self.delivered[self.deliver_cursor] = b
            self.on_deliver(self.deliver_cursor, b)
            self.deliver_cursor += 1
            self._progress_marker += 1
        # Keep sequence allocation ahead of what has been delivered so a
        # new leader never reuses a delivered slot.
        self.next_seq = max(self.next_seq, self.deliver_cursor)

    # -- term changes ---------------------------------------------------------------

    def on_timer(self, term: int, marker: int) -> None:
        """The failure-detector watchdog armed in ``term`` at progress
        ``marker``."""
        if term == self.term and marker == self._progress_marker:
            # No progress during a whole timeout in this term → vote next.
            new_term = self.term + 1
            self._bcast((TERMCHANGE, new_term, self.deliver_cursor))
        self._arm_watchdog()

    def _arm_watchdog(self) -> None:
        self.host.call_later(
            self.timeout, self.on_timer, self.term, self._progress_marker
        )

    def _enter_term(self, new_term: int) -> None:
        self.term = new_term
        self.acks.clear()
        self.next_seq = max(self.next_seq, self.deliver_cursor)
        if self.is_leader:
            # Re-order batches this node knows were never delivered.
            for batch in self.unordered:
                if batch not in self.delivered.values():
                    self._order(batch)
            self.unordered = []
        self._arm_watchdog()


class OrderingClient:
    """Thin client helper: submit batches to any ordering node."""

    def __init__(self, host: SimProcess, any_orderer: str) -> None:
        self.host = host
        self.orderer = any_orderer

    def submit(self, batch: Any) -> None:
        """Send a batch to the configured ordering node."""
        self.host.send(self.orderer, (SUBMIT, batch))
