"""Frontier-based fast sync: batched catch-up for lagging replicas.

The paper's liveness results (Eventual Prefix, Theorem 4.7) assume every
replica *eventually receives* the chain — but gossip only disseminates
blocks produced while a replica is listening.  A replica that joins
mid-run, recovers from a crash, or heals from an eclipse has a gap that
flooding never replays.  This module gives it a network path to catch
up, shipping checkpointed prefixes in bounded batches instead of
replaying every historical gossip message:

* :class:`Frontier` — a compact summary of a replica's tree: the
  committed checkpoint (id + height) and the tree's leaf tips.  Two
  frontiers determine the blocks one replica has that the other lacks
  (every block lies on a root→leaf path, so tips cover whole trees —
  abandoned forks included).

* The wire protocol — four message kinds, server-side stateless::

      client                                server
        | -- FRONTIER(req, frontier) -------> |   summarize my tree
        | <------- DIFF(req, lo, hi, n) ----- |   n blocks you lack,
        |                                     |   heights in [lo, hi)
        | - RANGE(req, frontier, lo, hi, k) > |   ship that band from
        | <--- BLOCKS(req, blocks, rest) ---- |   offset k: ≤ sync_batch
        |     (repeat RANGE, k += batch,      |   bodies, parent-
        |      while rest)                    |   before-child
        | -- FRONTIER(req', frontier') -----> |   confirm: re-diff
        | <------- DIFF(req', …, 0) --------- |   0 missing ⇒ done

  Batches arrive oldest-first in the server's insertion order, so every
  block's parent is either already on the client or earlier in the
  stream — no orphan buffering, no re-request storms.

* :class:`SyncManager` — one per replica, both roles.  The client side
  is a small state machine (``idle → frontier → range → done|failed``)
  with per-request timeouts, capped exponential backoff and
  deterministic peer rotation; when every peer/attempt is exhausted it
  *degrades gracefully*: the replica stays on normal gossip (which still
  converges, just slowly) and the failure is counted in the stats.

Determinism: no randomness beyond the SHA-256 PRF (peer rotation), all
timing hangs off the simulator clock, and byte costs are modelled via
:func:`~repro.net.reconcile.wire_size` — so lifecycle campaigns replay
bit-for-bit, serial or parallel.

History semantics: every synced block still records its §4.2
receive/update instants (Update Agreement R3 holds however a block
arrives), but the client performs one application ``read`` per adopted
batch instead of one per block, and relays nothing — peers either have
the history already or sync it themselves.  That, plus shipping bodies
in bounded batches instead of one network message per block, is why
fast sync beats naive gossip replay by an order of magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro._util import counter_row, prf_uint64
from repro.net.reconcile import wire_size

__all__ = [
    "SYNC_FRONTIER",
    "SYNC_DIFF",
    "SYNC_RANGE",
    "SYNC_BLOCKS",
    "MAX_FRONTIER_TIPS",
    "Frontier",
    "frontier_of",
    "known_ids",
    "missing_ids",
    "SyncManager",
]

SYNC_FRONTIER = "sync-frontier"  # (tag, req_id, frontier)
SYNC_DIFF = "sync-diff"  # (tag, req_id, lo, hi, missing_count)
SYNC_RANGE = "sync-range"  # (tag, req_id, frontier, lo, hi, offset)
SYNC_BLOCKS = "sync-blocks"  # (tag, req_id, blocks, remaining[, evidence])

#: The sync message kinds: tag → message length.  An authenticated
#: server appends its equivocation evidence to BLOCKS.
_LENGTHS = {SYNC_FRONTIER: 3, SYNC_DIFF: 5, SYNC_RANGE: 6, SYNC_BLOCKS: {4, 5}}

#: A frontier carries at most this many tips (the tallest ones).  The
#: cap only ever makes the server *over*-send — a dropped tip shrinks
#: what the server believes the client knows — and client-side dedup
#: keeps the adopted set exact, so correctness never depends on it.
MAX_FRONTIER_TIPS = 128

#: FRONTIER→DIFF→RANGE* cycles per sync before giving up (the chain can
#: keep growing under the sync; normal gossip covers fresh blocks, so a
#: healthy sync converges in two or three rounds).
_MAX_ROUNDS = 32

#: Ceiling on the retry backoff, in simulated seconds.
BACKOFF_CAP = 30.0

#: Timed-out requests per sync before it degrades to normal gossip.
MAX_ATTEMPTS = 6

#: Server-side memo of the last few (frontier → missing ids) diffs.  The
#: protocol stays stateless — a cache miss just recomputes — but the
#: repeated RANGE requests of one round hit the memo instead of
#: rescanning the tree per batch.
_DIFF_CACHE_SLOTS = 8

#: The sync manager's row of a replica's counter table, at zero
#: (``catch_up_s`` is accumulated simulated time, ``last_catch_up_s`` the
#: most recent sync's).
_ZERO: Dict[str, Any] = {
    **dict.fromkeys(
        ("syncs_started", "syncs_completed", "syncs_failed", "blocks_synced",
         "blocks_served", "bytes_sent", "bytes_received", "messages_sent",
         "retries", "timeouts"),
        0,
    ),
    "catch_up_s": 0.0,
    "last_catch_up_s": 0.0,
}


@dataclass(frozen=True)
class Frontier:
    """Compact summary of a replica tree: committed checkpoint + tips."""

    checkpoint_id: str
    checkpoint_height: int
    tips: Tuple[str, ...]

    def wire_bytes(self) -> int:
        """Modelled encoding: framing + checkpoint + length-prefixed tips."""
        return (
            12
            + len(self.checkpoint_id)
            + 1
            + sum(len(tip) + 1 for tip in self.tips)
        )


def frontier_of(tree: Any, max_tips: int = MAX_FRONTIER_TIPS) -> Frontier:
    """The frontier summarizing ``tree``.

    Tips are the tree's leaves; past ``max_tips`` the tallest leaves are
    kept (they cover the longest root paths, so the least is re-sent).
    """
    tips = tree.leaf_ids()
    if len(tips) > max_tips:
        tallest = sorted(tips, key=lambda tip: (-tree.height(tip), tip))
        tips = tuple(sorted(tallest[:max_tips]))
    return Frontier(
        checkpoint_id=tree.checkpoint_id,
        checkpoint_height=tree.checkpoint_height,
        tips=tips,
    )


def known_ids(tree: Any, frontier: Frontier) -> Set[str]:
    """Ids of ``tree`` the frontier's owner provably has.

    Walks the root path of every frontier anchor (checkpoint + tips)
    that ``tree`` knows, with early termination on already-walked
    blocks — O(tree) worst case, O(client depth) typical.  Anchors the
    tree does *not* know contribute nothing: the server cannot tell
    what hangs below a foreign tip, so it conservatively re-sends
    (client-side dedup keeps the outcome exact).
    """
    known: Set[str] = set()
    for anchor in (frontier.checkpoint_id, *frontier.tips):
        if anchor not in tree:
            continue
        cursor: Optional[str] = anchor
        while cursor is not None and cursor not in known:
            known.add(cursor)
            cursor = tree.parent_id(cursor)
    return known


def missing_ids(
    tree: Any,
    frontier: Frontier,
    lo: int = 1,
    hi: Optional[int] = None,
) -> List[str]:
    """Ids in ``tree`` the frontier's owner lacks, insertion-ordered.

    Insertion order is parent-before-child, so shipping any *prefix* of
    this list leaves no receiver-side orphans: a listed block's parent
    is either known to the frontier's owner or earlier in the list.
    ``lo``/``hi`` restrict to heights in ``[lo, hi)`` (genesis, height
    0, is never missing — both sides share it by construction).
    """
    known = known_ids(tree, frontier)
    lo = max(1, lo)
    out: List[str] = []
    for block_id in tree.iter_ids():
        height = tree.height(block_id)
        if height < lo or (hi is not None and height >= hi):
            continue
        if block_id in known:
            continue
        out.append(block_id)
    return out


class SyncManager:
    """Both halves of the sync protocol for one replica.

    The server half is stateless (modulo a recompute-on-miss diff memo)
    and always answers.  The client half runs at most one sync at a
    time; :meth:`start_sync` is a no-op while one is in flight, so
    lifecycle events can fire it eagerly.
    """

    def __init__(self, node: Any, counts: Optional[Dict[str, Any]] = None) -> None:
        self.node = node
        #: Cumulative sync counters: the manager's row of the replica's
        #: counter table, so they outlive the manager a crash replaces.
        self.counts = counter_row(counts, _ZERO)
        scenario = node.scenario
        self.batch = scenario.sync_batch
        # Per-request timeout and retry backoff base, in simulated
        # seconds: two round trips and one, at the channel's bound.
        self.timeout = 4.0 * scenario.channel_delta
        self.backoff_base = 2.0 * scenario.channel_delta
        self.max_attempts = MAX_ATTEMPTS
        #: idle | frontier | range | done | failed
        self.state = "idle"
        self.req_seq = 0
        self.req_id: Optional[str] = None
        self.attempts = 0
        self.rounds = 0
        self.lo = 0
        self.hi: Optional[int] = None
        #: The frontier the current round's DIFF was computed against.
        #: RANGE requests re-send it verbatim with a block ``offset``
        #: cursor, so the server slices one memoized band instead of
        #: re-diffing a moving frontier per batch (which is O(tree) per
        #: request — quadratic over a big gap).
        self.round_frontier: Optional[Frontier] = None
        self.offset = 0
        #: Blocks actually *new to us* in the current round.  A frontier
        #: past :data:`MAX_FRONTIER_TIPS` is capped, so the server may
        #: conservatively re-send fork blocks forever; a full round that
        #: adopts nothing new proves we already hold everything the
        #: server can offer, and the sync completes instead of looping.
        self.round_adopted = -1
        self.started_at: Optional[float] = None
        self._peer_cursor = 0
        #: frontier → missing id list (server-side memo, insertion order).
        self._diff_cache: "Dict[Frontier, List[str]]" = {}
        #: (frontier, lo, hi) → height-banded diff slice (see _band_for).
        self._band_cache: "Dict[Tuple[Frontier, int, Optional[int]], List[str]]" = {}
        node.route(self.on_message, _LENGTHS)

    # -- plumbing ----------------------------------------------------------

    @property
    def syncing(self) -> bool:
        return self.state in ("frontier", "range")

    def _peers(self) -> List[str]:
        # Sync servers are overlay neighbours — a joining node can only
        # talk to peers it has links to.
        return list(self.node.network.neighbors_of(self.node.name))

    def _peer(self) -> Optional[str]:
        peers = self._peers()
        if not peers:
            return None
        return peers[self._peer_cursor % len(peers)]

    def _send(self, dst: str, message: tuple) -> None:
        size = wire_size(message)
        self.counts["messages_sent"] += 1
        self.counts["bytes_sent"] += size
        self.node.send(dst, message)

    # -- client side -------------------------------------------------------

    def start_sync(self) -> bool:
        """Begin (or re-begin) catching up; False when already syncing.

        The first peer is PRF-derived from (seed, name, sync ordinal) so
        a fleet of recovering replicas fans out instead of thundering at
        one server; retries rotate deterministically from there.
        """
        if self.syncing:
            return False
        peers = self._peers()
        if not peers:
            return False
        self.counts["syncs_started"] += 1
        self.state = "frontier"
        self.attempts = 0
        self.rounds = 0
        self.round_adopted = -1
        self.started_at = self.node.now
        self._peer_cursor = prf_uint64(
            "sync-peer",
            self.node.scenario.seed,
            self.node.name,
            self.counts["syncs_started"],
        ) % len(peers)
        self._send_frontier()
        return True

    def _send_frontier(self) -> None:
        self.round_frontier = frontier_of(self.node.tree)
        self._request(SYNC_FRONTIER, self.round_frontier)

    def _send_range(self) -> None:
        self._request(SYNC_RANGE, self.round_frontier, self.lo, self.hi, self.offset)

    def _request(self, tag: str, *body: Any) -> None:
        """Send a fresh request to the current peer and arm its timeout."""
        peer = self._peer()
        if peer is None:
            self._fail()
            return
        self.req_seq += 1
        self.req_id = f"{self.node.name}/s{self.req_seq}"
        self._send(peer, (tag, self.req_id, *body))
        self.node.call_later(self.timeout, self._expire, self.req_id)

    def _expire(self, req_id: str) -> None:
        if self.req_id == req_id and self.syncing:  # else answered or over
            self._on_timeout()

    def _on_timeout(self) -> None:
        self.counts["timeouts"] += 1
        self.attempts += 1
        if self.attempts >= self.max_attempts:
            self._fail()
            return
        self.counts["retries"] += 1
        self._peer_cursor += 1  # rotate: maybe the peer is down/eclipsed
        backoff = min(
            BACKOFF_CAP, self.backoff_base * (2 ** (self.attempts - 1))
        )
        # Restart from FRONTIER: the refreshed frontier already excludes
        # everything adopted so far, so no progress is lost.  The round
        # marker resets too — a round cut short by the timeout proves
        # nothing about what the next peer can offer.
        self.state = "frontier"
        self.round_adopted = -1
        self.node.call_later(backoff, self._send_frontier)

    def _fail(self) -> None:
        """Degrade to normal gossip: stop asking, keep listening."""
        self.state = "failed"
        self.counts["syncs_failed"] += 1

    def _complete(self) -> None:
        self.state = "done"
        self.counts["syncs_completed"] += 1
        if self.started_at is not None:
            elapsed = self.node.now - self.started_at
            self.counts["catch_up_s"] += elapsed
            self.counts["last_catch_up_s"] = elapsed

    def _on_diff(self, message: tuple) -> None:
        _tag, req_id, lo, hi, count = message
        if req_id != self.req_id or self.state != "frontier":
            return  # stale reply from a superseded request
        self.attempts = 0  # the peer answered: reset the retry budget
        if count == 0 or self.round_adopted == 0:
            # Nothing missing — or the last full round shipped only
            # blocks we already held (a capped frontier makes the server
            # over-send; see ``round_adopted``).  Either way: caught up.
            self._complete()
            return
        self.rounds += 1
        if self.rounds > _MAX_ROUNDS:
            self._fail()
            return
        self.state = "range"
        self.lo, self.hi = lo, hi
        self.offset = 0
        self.round_adopted = 0
        self._send_range()

    def _on_blocks(self, src: str, message: tuple) -> None:
        # Authenticated servers append a fifth element (equivocation
        # evidence); an unsigned replica ingests none of it.
        _tag, req_id, blocks, remaining = message[:4]
        if req_id != self.req_id or self.state != "range":
            return
        if len(message) > 4 and message[4]:
            self.node.ingest_auth_evidence(message[4])
        self.attempts = 0
        self.counts["bytes_received"] += wire_size(blocks)
        adopted = self.node.adopt_synced_blocks(src, blocks)
        self.counts["blocks_synced"] += adopted
        self.round_adopted += adopted
        self.offset += len(blocks)
        if remaining > 0:
            self._send_range()
        else:
            # Band drained: re-diff to confirm (the chain may have grown).
            self.state = "frontier"
            self._send_frontier()

    # -- server side -------------------------------------------------------

    def _missing_for(self, frontier: Frontier) -> List[str]:
        cached = self._diff_cache.get(frontier)
        if cached is None:
            cached = missing_ids(self.node.tree, frontier)
            if len(self._diff_cache) >= _DIFF_CACHE_SLOTS:
                self._diff_cache.pop(next(iter(self._diff_cache)))
            self._diff_cache[frontier] = cached
        return cached

    def _serve_frontier(self, src: str, message: tuple) -> None:
        _tag, req_id, frontier = message
        # Re-diff against fresh server state (the chain may have grown
        # since this frontier was last summarized against).
        self._diff_cache.pop(frontier, None)
        for key in [k for k in self._band_cache if k[0] == frontier]:
            del self._band_cache[key]
        missing = self._missing_for(frontier)
        if not missing:
            self._send(src, (SYNC_DIFF, req_id, 0, 0, 0))
            return
        tree = self.node.tree
        heights = [tree.height(bid) for bid in missing]
        self._send(
            src, (SYNC_DIFF, req_id, min(heights), max(heights) + 1, len(missing))
        )

    def _band_for(self, frontier: Frontier, lo: int, hi: Optional[int]) -> List[str]:
        """The height-banded slice of the frontier's diff, memoized.

        One filter pass per (frontier, band); the repeated RANGEs of a
        round then slice this list by offset — O(batch) per request
        instead of O(tree).
        """
        key = (frontier, lo, hi)
        cached = self._band_cache.get(key)
        if cached is None:
            tree = self.node.tree
            cached = [
                bid
                for bid in self._missing_for(frontier)
                if bid in tree  # guard: never resurrect ids of another epoch
                and tree.height(bid) >= lo
                and (hi is None or tree.height(bid) < hi)
            ]
            if len(self._band_cache) >= _DIFF_CACHE_SLOTS:
                self._band_cache.pop(next(iter(self._band_cache)))
            self._band_cache[key] = cached
        return cached

    def _serve_range(self, src: str, message: tuple) -> None:
        _tag, req_id, frontier, lo, hi, offset = message
        tree = self.node.tree
        band = self._band_for(frontier, lo, hi)
        batch = band[offset : offset + self.batch]
        blocks = tuple(tree.get(bid) for bid in batch)
        self.counts["blocks_served"] += len(blocks)
        remaining = max(0, len(band) - offset - len(batch))
        reply = (SYNC_BLOCKS, req_id, blocks, remaining)
        # Piggyback equivocation evidence so a syncing replica learns the
        # bans alongside the blocks (it may receive a banned block in this
        # very batch; the evidence makes it refuse the whole fork).
        auth = getattr(self.node, "auth", None)
        if auth is not None and auth.evidence:
            reply = reply + (tuple(auth.evidence.values()),)
        self._send(src, reply)

    # -- dispatch ----------------------------------------------------------

    def on_message(self, src: str, message: tuple) -> None:
        tag = message[0]
        if tag == SYNC_FRONTIER:
            self._serve_frontier(src, message)
        elif tag == SYNC_RANGE:
            self._serve_range(src, message)
        elif tag == SYNC_DIFF:
            self._on_diff(message)
        else:
            self._on_blocks(src, message)  # SYNC_BLOCKS
