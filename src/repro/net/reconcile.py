"""Pluggable gossip transports: forward-once flooding vs set reconciliation.

The BT-ADT paper's Light Reliable Communication abstraction (Def. 4.4)
specifies *what* dissemination must guarantee — validity and agreement —
not *how*.  This module provides two interchangeable transports behind
the ``ProtocolScenario.gossip`` knob, both driven by
:class:`~repro.protocols.base.BlockchainNode` through the same five-call
surface (``announce`` / ``relay_block`` / ``relay_txs`` /
``request_parent`` / ``on_message``):

* :class:`FloodTransport` — the historical behavior: block bodies and
  transaction batches are broadcast to every peer, relayed once per
  first sight.  O(n) redundant copies per item (the
  ``duplicate_relay_ratio ≈ (n-2)/(n-1)`` the mempool bench measured).

* :class:`ReconcileTransport` — Erlay-style dissemination (Naumenko et
  al., CCS 2019).  Blocks travel by *lazy announce/getdata*: a compact
  ``(id, parent, creator)`` announcement is flooded and peers pull the
  body (or a whole missing ancestor segment, with doubling depth) only
  if they lack it.  Transactions travel by *periodic set
  reconciliation*: on a per-peer round-robin clock each node initiates a
  round with one peer — Bloom filter out for difference estimation, IBLT
  back (:mod:`repro.net.sketch`), the initiator peels the symmetric
  difference and only those bodies cross the wire (with a full sorted
  id-list exchange as the decode-failure fallback).  Rounds are
  *peer-clock gated*: a node initiates toward a peer only when its own
  set has changed since the last round that **completed** with that peer
  (completion is marked by the final ``RECON_TXS`` message, which the
  responder always sends — so a dropped round goes stale and is retried
  rather than wedging the gate).  Leaf-id tip-sets ride along on every
  round, which repairs block trees after partitions and churn — every
  updated block lies on a root→leaf path, so Update Agreement R3 holds
  where severed flooding relay chains leave it broken.

Determinism: transports draw no randomness at all — peer choice is
round-robin over sorted names, retry targets come from the SHA-256 PRF,
sketch salts derive from the scenario seed, and all timing hangs off the
simulator clock.  A reconciliation campaign therefore replays
bit-for-bit, serial or parallel.

Wire cost is *modelled*, not serialized: :func:`wire_size` charges each
message a deterministic byte estimate (sketches report their own
``wire_bytes``), accumulated per node and per traffic class so the
gossip bench can compare relayed bytes per committed transaction across
transports.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro._util import prf_uint64, prf_unit
from repro.mempool import TX_GOSSIP_TAG
from repro.net.sketch import BloomFilter, IBLT, iblt_cells_for, key_digest
from repro.workloads.scenarios import GOSSIP_TAG

__all__ = [
    "GOSSIP_KINDS",
    "RECON_BLK_ANN",
    "RECON_BLK_GET",
    "RECON_BLK_DATA",
    "RECON_REQ",
    "RECON_RES",
    "RECON_CLOSE",
    "RECON_FULLREQ",
    "RECON_TXS",
    "RECON_PUSH",
    "wire_size",
    "GossipTransport",
    "FloodTransport",
    "ReconcileTransport",
    "build_transport",
]

GOSSIP_KINDS = ("flood", "reconcile")

#: Lazy block dissemination: announce carries (block_id, parent_id,
#: creator_name) — the creator name is in the clear so the selfish-miner
#: fault matcher can withhold a miner's own announcements, exactly as it
#: withholds flooded bodies.
RECON_BLK_ANN = "recon-blk-ann"
RECON_BLK_GET = "recon-blk-get"  # (tag, block_id, depth)
RECON_BLK_DATA = "recon-blk-data"  # (tag, blocks oldest-first)

#: Transaction reconciliation round (initiator I → responder R):
#: REQ(I→R: bloom + count + tips) → RES(R→I: IBLT + tips) →
#: CLOSE(I→R: wanted digests + bodies R lacks) → TXS(R→I: bodies,
#: always sent — the round-completion ack).  Decode failure at I skips
#: CLOSE for FULLREQ(I→R: full sorted id list); R's TXS then also
#: carries the ids *R* lacks, which I answers with a PUSH.
RECON_REQ = "recon-req"
RECON_RES = "recon-res"
RECON_CLOSE = "recon-close"
RECON_FULLREQ = "recon-fullreq"
RECON_TXS = "recon-txs"
RECON_PUSH = "recon-push"

_BLOCK_TAGS = frozenset({GOSSIP_TAG, RECON_BLK_ANN, RECON_BLK_GET, RECON_BLK_DATA})

#: Ancestor-segment fetch: first request asks for a short segment, each
#: still-orphaned hop doubles the ask up to the cap — a post-partition
#: replica catches up a depth-D gap in O(log D) round trips.
_FETCH_DEPTH_START = 8
_FETCH_DEPTH_CAP = 256
_FETCH_MAX_ATTEMPTS = 8
_IBLT_CELL_CAP = 4096
_DIFF_SLACK = 4


def wire_size(message: Any) -> int:
    """A deterministic modelled byte cost for a message.

    Values that model their own encoding (blocks, transactions,
    frontiers, sketches, equivocation evidence) answer through
    ``wire_bytes()``.  Of the rest, strings are charged their length
    (ids stay hex, so this slightly overstates a binary encoding —
    identically for both transports), numbers 8 bytes, containers a
    small framing overhead plus contents, anything else a flat 16.
    """
    wire_bytes = getattr(message, "wire_bytes", None)
    if callable(wire_bytes):
        return wire_bytes()
    if message is None or isinstance(message, bool):
        return 1
    if isinstance(message, (int, float)):
        return 8
    if isinstance(message, str):
        return len(message) + 1
    if isinstance(message, (tuple, list)):
        return 4 + sum(wire_size(item) for item in message)
    return 16


class GossipTransport:
    """Shared plumbing: byte/message accounting over the host's network.

    Subclasses implement the dissemination strategy; the node calls

    * :meth:`announce` when it creates a block,
    * :meth:`relay_block` when an adopted block should propagate onward,
    * :meth:`relay_txs` when fresh transactions entered its pool,
    * :meth:`request_parent` when a received block parked as an orphan,
    * :meth:`on_message` from its gossip dispatch (True = consumed).
    """

    kind = "none"

    def __init__(self, node: Any) -> None:
        self.node = node
        self.bytes_sent = 0
        self.block_bytes_sent = 0
        self.tx_bytes_sent = 0
        self.messages_sent = 0

    # -- lifecycle ---------------------------------------------------------

    def on_start(self) -> None:
        """Arm transport timers (scheduled at t=0 by ``ProtocolRun``)."""

    def on_message(self, src: str, message: Any) -> bool:
        return False

    # -- node-facing surface ----------------------------------------------

    def announce(self, block: Any) -> None:
        raise NotImplementedError

    def relay_block(self, block: Any) -> None:
        raise NotImplementedError

    def relay_txs(self, txs: Tuple[Any, ...]) -> None:
        raise NotImplementedError

    def request_parent(self, src: str, block: Any) -> None:
        """A just-received block parked as an orphan (default: no-op —
        flooding pushes every body, so the parent is already in flight)."""

    # -- accounting --------------------------------------------------------

    def _account(self, message: Any, copies: int = 1) -> None:
        size = wire_size(message) * copies
        self.bytes_sent += size
        self.messages_sent += copies
        tag = message[0] if isinstance(message, tuple) and message else None
        if tag in _BLOCK_TAGS:
            self.block_bytes_sent += size
        else:
            self.tx_bytes_sent += size

    def _send(self, dst: str, message: Any) -> None:
        self._account(message)
        self.node.send(dst, message)

    def _broadcast(self, message: Any) -> None:
        net = self.node.network
        self._account(message, copies=len(net.neighbors_of(self.node.name)))
        self.node.broadcast(message)

    def stats(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "messages_sent": self.messages_sent,
            "bytes_sent": self.bytes_sent,
            "block_bytes_sent": self.block_bytes_sent,
            "tx_bytes_sent": self.tx_bytes_sent,
        }


class FloodTransport(GossipTransport):
    """Forward-once flooding of full bodies (the historical transport)."""

    kind = "flood"

    def announce(self, block: Any) -> None:
        self._broadcast((GOSSIP_TAG, block.block_id, block))

    def relay_block(self, block: Any) -> None:
        self._broadcast((GOSSIP_TAG, block.block_id, block))

    def relay_txs(self, txs: Tuple[Any, ...]) -> None:
        self._broadcast((TX_GOSSIP_TAG, txs))

    def on_message(self, src: str, message: Any) -> bool:
        if not (isinstance(message, tuple) and message):
            return False
        tag = message[0]
        if tag == GOSSIP_TAG:
            _tag, _block_id, block = message
            self.node.deliver_block_body(src, block)
            return True
        if tag == TX_GOSSIP_TAG:
            self.node.ingest_gossiped_txs(message[1])
            return True
        return False


class ReconcileTransport(GossipTransport):
    """Erlay-style reconciliation (see the module docstring for the
    round protocol and the gating/repair invariants)."""

    kind = "reconcile"

    def __init__(self, node: Any, interval: float = 10.0) -> None:
        super().__init__(node)
        if interval <= 0:
            raise ValueError("reconciliation interval must be positive")
        self.interval = interval
        self._salt = prf_uint64("recon-salt", node.scenario.seed) & 0x7FFFFFFF
        #: Local-set version counter: bumped whenever this replica gains
        #: state peers may lack (new txs, new blocks).  The per-peer gate
        #: compares it against the snapshot of the last *completed* round.
        self._clock = 0
        self._tick_count = 0
        self._round_seq = 0
        #: peer → (round_id, clock snapshot at REQ, start time).
        self._pending_round: Dict[str, Tuple[str, int, float]] = {}
        #: peer → clock snapshot of the last round that fully completed.
        self._done_clock: Dict[str, int] = {}
        #: block_id → (attempts, last request time); ids currently being
        #: pulled.  Entries resolve on arrival, rotate to new peers on
        #: timeout, and are dropped after ``_FETCH_MAX_ATTEMPTS`` (a
        #: later announcement or tip exchange re-triggers the fetch).
        self._pending_fetch: Dict[str, Tuple[int, float]] = {}
        self._fetch_depth: Dict[str, int] = {}
        # round/fetch counters for stats()
        self.rounds_started = 0
        self.rounds_completed = 0
        self.rounds_retried = 0
        self.full_fallbacks = 0
        self.blocks_requested = 0

    # -- lifecycle ---------------------------------------------------------

    @property
    def _peers(self) -> List[str]:
        # Reconciliation partners are overlay neighbours: sketches only
        # help against peers we would otherwise flood.
        return list(self.node.network.neighbors_of(self.node.name))

    def on_start(self) -> None:
        # Deterministic per-node stagger so the fleet's rounds interleave
        # instead of thundering in lockstep.  Ticks ride the node's
        # guarded timer, so a transport a crash replaced stops ticking.
        offset = prf_unit("recon-stagger", self.node.scenario.seed, self.node.name)
        self.node.call_later(self.interval * (0.5 + 0.5 * offset), self._tick)

    def _tick(self) -> None:
        now = self.node.now
        self._retry_fetches(now)
        self._maybe_initiate(now)
        self._tick_count += 1
        self.node.call_later(self.interval, self._tick)

    # -- node-facing surface ----------------------------------------------

    def announce(self, block: Any) -> None:
        self._clock += 1
        self._broadcast(
            (RECON_BLK_ANN, block.block_id, block.parent_id,
             self.node.creator_name(block))
        )

    def relay_block(self, block: Any) -> None:
        self.announce(block)

    def relay_txs(self, txs: Tuple[Any, ...]) -> None:
        # Bodies stay local: the pool set changed, so the gate re-opens
        # and the next rounds carry the difference to each peer.
        self._clock += 1

    def request_parent(self, src: str, block: Any) -> None:
        child_depth = self._fetch_depth.get(block.block_id, 1)
        depth = min(_FETCH_DEPTH_CAP, max(_FETCH_DEPTH_START, 2 * child_depth))
        self._fetch(src, block.parent_id, depth)

    # -- block fetch path --------------------------------------------------

    def _known_block(self, block_id: str) -> bool:
        node = self.node
        return (
            block_id in node.seen_blocks
            or block_id in node.tree
            or block_id in node.rejected_blocks
        )

    def _fetch(self, src: str, block_id: str, depth: int) -> None:
        if self._known_block(block_id) or block_id in self._pending_fetch:
            return
        self._pending_fetch[block_id] = (0, self.node.now)
        self._fetch_depth[block_id] = depth
        self.blocks_requested += 1
        self._send(src, (RECON_BLK_GET, block_id, depth))

    def _retry_fetches(self, now: float) -> None:
        peers = self._peers
        for block_id in list(self._pending_fetch):
            attempts, last = self._pending_fetch[block_id]
            if self._known_block(block_id):
                del self._pending_fetch[block_id]
                self._fetch_depth.pop(block_id, None)
                continue
            if now - last < self.interval:
                continue
            if attempts >= _FETCH_MAX_ATTEMPTS or not peers:
                del self._pending_fetch[block_id]
                self._fetch_depth.pop(block_id, None)
                continue
            # Rotate deterministically through peers: the announcer may
            # be partitioned away, someone else may have the body by now.
            peer = peers[prf_uint64("recon-refetch", block_id, attempts) % len(peers)]
            self._pending_fetch[block_id] = (attempts + 1, now)
            depth = self._fetch_depth.get(block_id, _FETCH_DEPTH_START)
            self._send(peer, (RECON_BLK_GET, block_id, depth))

    def _segment(self, block_id: str, depth: int) -> Tuple[Any, ...]:
        """Up to ``depth`` ancestors ending at ``block_id``, oldest first."""
        tree = self.node.tree
        if block_id not in tree:
            return ()
        blocks: List[Any] = []
        current = block_id
        while current in tree and len(blocks) < depth:
            block = tree.get(current)
            if block.is_genesis:
                break
            blocks.append(block)
            current = block.parent_id
        return tuple(reversed(blocks))

    def _sync_tips(self, src: str, tips: Tuple[str, ...]) -> None:
        for tip in tips:
            self._fetch(src, tip, _FETCH_DEPTH_START)

    def _tips(self) -> Tuple[str, ...]:
        return self.node.tree.leaf_ids()

    # -- transaction rounds ------------------------------------------------

    def _held_ids(self) -> Tuple[str, ...]:
        pool = self.node.pool
        if pool is None:
            return ()
        return tuple(sorted(pool.held_ids()))

    def _bodies_by_digest(self, ids: Tuple[str, ...]) -> Dict[int, str]:
        return {key_digest(tx_id): tx_id for tx_id in ids}

    def _held_bodies(self, tx_ids) -> Tuple[Any, ...]:
        pool = self.node.pool
        if pool is None:
            return ()
        bodies = [pool.get_held(tx_id) for tx_id in tx_ids]
        return tuple(body for body in bodies if body is not None)

    def _maybe_initiate(self, now: float) -> None:
        peers = self._peers
        if not peers:
            return
        peer = peers[self._tick_count % len(peers)]
        pending = self._pending_round.get(peer)
        if pending is not None:
            if now - pending[2] < 2 * self.interval:
                return  # round still in flight
            self.rounds_retried += 1  # lost in transit: start over
        elif self._done_clock.get(peer) == self._clock:
            return  # nothing changed since the last completed round
        self._round_seq += 1
        round_id = f"{self.node.name}#{self._round_seq}"
        ids = self._held_ids()
        bloom = BloomFilter.for_items(ids, salt=self._salt)
        self._pending_round[peer] = (round_id, self._clock, now)
        self.rounds_started += 1
        self._send(peer, (RECON_REQ, round_id, len(ids), bloom, self._tips()))

    @staticmethod
    def _pow2_cells(estimate: int) -> int:
        cells = iblt_cells_for(estimate)
        size = 16
        while size < cells:
            size *= 2
        return min(size, _IBLT_CELL_CAP)

    def _on_req(self, src: str, message: tuple) -> None:
        _tag, round_id, their_count, bloom, tips = message
        self._sync_tips(src, tips)
        mine = self._held_ids()
        # Difference estimate: my ids the bloom definitely lacks, plus
        # their surplus over the (optimistic) overlap, plus slack for
        # false positives.  Under-estimates only cost a decode failure —
        # the full-list fallback keeps the round correct.
        absent = bloom.absent(mine)
        overlap = len(mine) - absent
        estimate = absent + max(0, their_count - overlap) + _DIFF_SLACK
        table = IBLT.for_items(mine, cells=self._pow2_cells(estimate), salt=self._salt)
        self._send(src, (RECON_RES, round_id, table, self._tips()))

    def _on_res(self, src: str, message: tuple) -> None:
        _tag, round_id, theirs, tips = message
        self._sync_tips(src, tips)
        pending = self._pending_round.get(src)
        if pending is None or pending[0] != round_id:
            return  # a stale response from a superseded round
        ids = self._held_ids()
        mine = IBLT.for_items(ids, cells=theirs.cells, salt=theirs.salt, k=theirs.k)
        only_mine, only_theirs, ok = mine.subtract(theirs).decode()
        if not ok:
            self.full_fallbacks += 1
            self._send(src, (RECON_FULLREQ, round_id, ids))
            return
        by_digest = self._bodies_by_digest(ids)
        bodies = self._held_bodies(
            by_digest[d] for d in only_mine if d in by_digest
        )
        self._send(src, (RECON_CLOSE, round_id, only_theirs, bodies))

    def _on_close(self, src: str, message: tuple) -> None:
        _tag, round_id, want_digests, bodies = message
        if bodies:
            self.node.ingest_gossiped_txs(bodies)
        by_digest = self._bodies_by_digest(self._held_ids())
        out = self._held_bodies(
            by_digest[d] for d in want_digests if d in by_digest
        )
        # Always answer — TXS doubles as the round-completion ack.
        self._send(src, (RECON_TXS, round_id, out, ()))

    def _on_fullreq(self, src: str, message: tuple) -> None:
        _tag, round_id, their_ids = message
        theirs = set(their_ids)
        mine = self._held_ids()
        bodies = self._held_bodies(t for t in mine if t not in theirs)
        want = tuple(sorted(theirs - set(mine)))
        self._send(src, (RECON_TXS, round_id, bodies, want))

    def _on_txs(self, src: str, message: tuple) -> None:
        _tag, round_id, bodies, want_ids = message
        if bodies:
            self.node.ingest_gossiped_txs(bodies)
        pending = self._pending_round.get(src)
        if pending is not None and pending[0] == round_id:
            del self._pending_round[src]
            self._done_clock[src] = pending[1]
            self.rounds_completed += 1
        if want_ids:
            out = self._held_bodies(want_ids)
            if out:
                self._send(src, (RECON_PUSH, out))

    # -- dispatch ----------------------------------------------------------

    def on_message(self, src: str, message: Any) -> bool:
        if not (isinstance(message, tuple) and message):
            return False
        tag = message[0]
        if tag == RECON_BLK_ANN:
            _tag, block_id, parent_id, _creator = message
            depth = 1 if parent_id in self.node.tree else _FETCH_DEPTH_START
            self._fetch(src, block_id, depth)
            return True
        if tag == RECON_BLK_GET:
            _tag, block_id, depth = message
            segment = self._segment(block_id, max(1, min(depth, _FETCH_DEPTH_CAP)))
            if segment:
                self._send(src, (RECON_BLK_DATA, segment))
            return True
        if tag == RECON_BLK_DATA:
            for block in message[1]:
                self._pending_fetch.pop(block.block_id, None)
                self._fetch_depth.pop(block.block_id, None)
                self.node.deliver_block_body(src, block)
            return True
        if tag == RECON_REQ:
            self._on_req(src, message)
            return True
        if tag == RECON_RES:
            self._on_res(src, message)
            return True
        if tag == RECON_CLOSE:
            self._on_close(src, message)
            return True
        if tag == RECON_FULLREQ:
            self._on_fullreq(src, message)
            return True
        if tag == RECON_TXS:
            self._on_txs(src, message)
            return True
        if tag == RECON_PUSH:
            self.node.ingest_gossiped_txs(message[1])
            return True
        return False

    def stats(self) -> Dict[str, Any]:
        base = super().stats()
        base.update(
            {
                "rounds_started": self.rounds_started,
                "rounds_completed": self.rounds_completed,
                "rounds_retried": self.rounds_retried,
                "full_fallbacks": self.full_fallbacks,
                "blocks_requested": self.blocks_requested,
            }
        )
        return base


def build_transport(kind: str, node: Any, interval: float = 10.0) -> GossipTransport:
    """The transport for ``scenario.gossip`` (``"flood"``/``"reconcile"``)."""
    if kind == "flood":
        return FloodTransport(node)
    if kind == "reconcile":
        return ReconcileTransport(node, interval=interval)
    raise ValueError(f"unknown gossip kind {kind!r}; expected one of {GOSSIP_KINDS}")
