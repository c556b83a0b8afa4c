"""The sharded replica: one chain facet per subscribed shard.

A :class:`ShardedNode` is the process registered with the real
:class:`~repro.net.Network`.  It owns one complete
:class:`~repro.protocols.bitcoin.BitcoinNode` *facet* per subscribed
shard — tree, mempool, UTXO view, packer, transport, fast-sync — each
seeing the network through a :class:`_ShardNetView`: a proxy that tags
every outgoing message with the shard id, restricts broadcast fan-out
to the shard's subscribed members (intersected with the host's overlay
neighbours, so sparse topologies shape per-shard gossip too), and
records the facet's BT-ADT operations into a *per-shard* history.  The
facet is never registered with the network; the host demultiplexes
``("shard", k, inner)`` deliveries to it.

The host also runs the cross-shard coordinator: a periodic scan of
each subscribed facet's selected chain that

* on the *source* shard, spots confirmed LOCK records and pushes
  ``notice`` messages (carrying the LOCK) to the destination shard's
  members until one acknowledges a decision;
* on the *destination* shard, answers a notice by injecting the
  deterministic COMMIT (before the LOCK's expiry) or ABORT (after it)
  into the local facet pool — timeout-driven abort is what keeps a
  stalled destination shard from wedging the source;
* pushes committed ABORTs (once ``RELEASE_DEPTH`` deep) back to the
  source shard's members, which inject the RELEASE refunding the
  escrow.

All coordinator messages are idempotent: records are derived
deterministically from the LOCK, so duplicate injections collapse in
the pools, and every push repeats each tick until acknowledged.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.histories.builder import HistoryRecorder
from repro.net.process import SimProcess
from repro.protocols.bitcoin import BitcoinNode
from repro.shard.assignment import subscribed_shards
from repro.shard.records import (
    CONFIRM_DEPTH,
    RELEASE_DEPTH,
    make_abort,
    make_commit,
    make_lock,  # noqa: F401  (re-exported for tests building traffic by hand)
    make_release,
    parse_record,
)
from repro.workloads.scenarios import SHARD_TAG, ProtocolScenario
from repro.workloads.transactions import Transaction

__all__ = ["ShardedNode", "facet_scenario", "SHARD_TAG"]

XNOTICE = "xshard-notice"
XDECIDED = "xshard-decided"
XDECISION = "xshard-decision"
XRELEASE_ACK = "xshard-release-ack"

#: Scan overlap below the per-shard cursor, covering shallow reorgs.
REORG_MARGIN = 6


def facet_scenario(
    scenario: ProtocolScenario,
    shard: int,
    members: Optional[Sequence[str]] = None,
) -> ProtocolScenario:
    """The single-chain scenario one shard facet runs under.

    The facet is an ordinary single-chain replica (``shards=1``) whose
    traffic view is scoped to the shard's clients; the derived name
    keeps per-facet PRF streams (txgen, overlays) disjoint across
    shards.

    When ``members`` names a proper subset of the replicas, merit is
    renormalized over the members (non-members get 0) so each shard
    mines at the scenario's ``mean_block_interval`` — every sub-chain
    is its own full-power lottery, rather than partial subscription
    diluting per-shard block production to a fraction of the tempo.
    """
    merits = scenario.merits
    if members is not None:
        names = scenario.node_names()
        member_set = set(members)
        if not member_set.issuperset(names):
            weights = [
                scenario.merit_of(i) if name in member_set else 0.0
                for i, name in enumerate(names)
            ]
            total = sum(weights)
            if total > 0:
                merits = tuple(w / total for w in weights)
    return replace(
        scenario,
        name=f"{scenario.name}~s{shard}",
        shards=1,
        shard_subscription=0,
        merits=merits,
        traffic=replace(scenario.traffic, shard=shard, shards=scenario.shards),
    )


class _ShardNetView:
    """The network as one shard facet sees it (see module docstring)."""

    def __init__(self, host: "ShardedNode", shard: int, recorder: HistoryRecorder):
        self._host = host
        self._shard = shard
        self.recorder = recorder

    @property
    def simulator(self):
        return self._host.network.simulator

    @property
    def overlay(self):
        return self._host.network.overlay

    def neighbors_of(self, name: str):
        members = self._host.shard_members[self._shard]
        return [
            n
            for n in self._host.network.neighbors_of(name)
            if n in members and n != name
        ]

    def transmit(self, src: str, dst: str, message: Any) -> None:
        self._host.network.transmit(src, dst, (SHARD_TAG, self._shard, message))


class ShardedNode(SimProcess):
    """A replica hosting one chain facet per subscribed shard."""

    def __init__(
        self,
        name: str,
        scenario: ProtocolScenario,
        recorders: Dict[int, HistoryRecorder],
        members: Dict[int, Tuple[str, ...]],
    ) -> None:
        super().__init__(name)
        self.scenario = scenario
        self.shard_members = {k: frozenset(names) for k, names in members.items()}
        self._member_lists = members
        index = int(name[1:])
        self.subscribed = tuple(
            sorted(
                subscribed_shards(index, scenario.shards, scenario.shard_subscription)
            )
        )
        self.facets: Dict[int, BitcoinNode] = {}
        for k in self.subscribed:
            facet = BitcoinNode(name, facet_scenario(scenario, k, members[k]))
            facet.network = _ShardNetView(self, k, recorders[k])
            self.facets[k] = facet
        # -- coordinator state (src side) --
        #: tid → (lock, dst_shard): confirmed source LOCKs awaiting a
        #: destination decision acknowledgement.
        self._pending_locks: Dict[str, Tuple[Transaction, int]] = {}
        self._acked_tids: set = set()
        # -- coordinator state (dst side) --
        #: tid → lock: committed ABORTs to push back to the source.
        self._abort_pushes: Dict[str, Transaction] = {}
        self._release_acked: set = set()
        # -- durable record re-assertion (both sides) --
        # Facet pools are RAM: a crash wipes them, and the remote side
        # stopped pushing the moment it was acked.  The host outlives
        # its facets, so it re-submits every decision/release it has
        # produced on each tick until the record is seen *on-chain* —
        # healing crashes, reorg drops and evictions uniformly.
        #: tid → decision tx this member injected on its dst facet.
        self._dst_decisions: Dict[str, Transaction] = {}
        #: tid → release tx this member injected on its src facet.
        self._src_releases: Dict[str, Transaction] = {}
        #: Per-shard scan cursor (chain height already processed).
        self._scan_height = {k: 0 for k in self.subscribed}
        self.route(self._on_facet_message, {SHARD_TAG: 3})
        self.route(self._on_notice, {XNOTICE: 2})
        self.route(self._on_decided, {XDECIDED: 2})
        self.route(self._on_abort_decision, {XDECISION: 3})
        self.route(self._on_release_ack, {XRELEASE_ACK: 2})

    # -- facet plumbing ------------------------------------------------------

    @property
    def tick_interval(self) -> float:
        """Coordinator cadence: twice per mean block interval."""
        return max(1.0, self.scenario.mean_block_interval / 2.0)

    def pipelines(self) -> List[Tuple[int, BitcoinNode]]:
        """The ``(shard, facet)`` chain pipelines this host runs (see
        :meth:`repro.protocols.base.BlockchainNode.pipelines`)."""
        return list(self.facets.items())

    def on_start(self) -> None:
        for facet in self.facets.values():
            facet.on_start()
            facet.transport.on_start()
        self.call_later(self.tick_interval, self._tick)

    #: The host's decode boundary (see :meth:`SimProcess.on_message`),
    #: bound on this class by name for the benchmark's span tracer.
    on_message = SimProcess.on_message

    def _on_facet_message(self, src: str, message: tuple) -> None:
        facet = self.facets.get(message[1])
        if facet is not None:
            # A neighbour subscribed to a shard this replica is not: its
            # facet gossip is noise here, not an error.
            facet.on_message(src, message[2])

    def _on_decided(self, src: str, message: tuple) -> None:
        self._pending_locks.pop(message[1], None)
        self._acked_tids.add(message[1])

    def _on_release_ack(self, src: str, message: tuple) -> None:
        self._abort_pushes.pop(message[1], None)
        self._release_acked.add(message[1])

    def _tick(self) -> None:
        """The coordinator tick (see the module docstring)."""
        self._scan_facets()
        self._push_notices()
        self._push_abort_decisions()
        self._reassert_records()
        self.call_later(self.tick_interval, self._tick)

    # -- cross-shard coordinator ---------------------------------------------

    def _selected(self, shard: int):
        # select_chain (not selection.select) honours equivocation bans
        # when the facet runs with ``auth`` enabled.
        return self.facets[shard].select_chain()

    def _scan_facets(self) -> None:
        """Process newly confirmed records on every subscribed facet."""
        for k in self.subscribed:
            chain = self._selected(k)
            confirmed = chain.height - CONFIRM_DEPTH
            start = max(1, self._scan_height[k] - REORG_MARGIN)
            for height in range(start, confirmed + 1):
                depth = chain.height - height
                for tx in chain[height].payload:
                    meta = parse_record(tx)
                    if meta is None:
                        continue
                    self._on_confirmed_record(k, tx, meta, depth)
            self._scan_height[k] = max(self._scan_height[k], confirmed)

    def _on_confirmed_record(self, shard: int, tx, meta, depth: int) -> None:
        if meta.kind == "lock" and meta.src_shard == shard:
            if meta.tid not in self._acked_tids:
                self._pending_locks.setdefault(meta.tid, (tx, meta.dst_shard))
        elif meta.kind in ("commit", "abort") and meta.dst_shard == shard:
            # The decision is on-chain: stop re-asserting it.
            self._dst_decisions.pop(meta.tid, None)
            if (
                meta.kind == "abort"
                and depth >= RELEASE_DEPTH
                and meta.tid not in self._release_acked
            ):
                # The push carries the decision tx; the source rebuilds
                # the RELEASE from it (see _on_abort_decision).
                self._abort_pushes.setdefault(meta.tid, tx)
        elif meta.kind == "release" and meta.src_shard == shard:
            # The refund is on-chain: the source side is fully settled.
            self._pending_locks.pop(meta.tid, None)
            self._acked_tids.add(meta.tid)
            self._src_releases.pop(meta.tid, None)

    def _push_notices(self) -> None:
        """Repeat LOCK notices to destination members until acked."""
        for tid, (lock, dst_shard) in list(self._pending_locks.items()):
            for member in self._member_lists[dst_shard]:
                self._tell(member, (XNOTICE, lock))

    def _tell(self, member: str, message: tuple) -> None:
        """Send a coordinator message; this host's own copy is handled
        inline (a local facet answers at once)."""
        if member == self.name:
            self.on_message(self.name, message)
        else:
            self.send(member, message)

    def _on_notice(self, src: str, message: tuple) -> None:
        """A destination member decides a noticed LOCK (idempotently)."""
        lock = message[1]
        meta = parse_record(lock)
        if meta is None or meta.kind != "lock":
            return
        facet = self.facets.get(meta.dst_shard)
        if facet is None or facet.pool is None:
            return
        commit, abort = make_commit(lock), make_abort(lock)
        pool = facet.pool
        if meta.tid in self._dst_decisions:
            decision = self._dst_decisions[meta.tid]
        elif pool.is_known(commit.tx_id):
            decision = commit
        elif pool.is_known(abort.tx_id):
            decision = abort
        elif f"xdec-{meta.tid}" in pool.view.minted:
            decision = None  # settled on-chain already
        else:
            # Timeout-driven abort: a notice that only reaches the
            # destination after the LOCK expired is declined, so a
            # stalled destination shard cannot wedge the source.
            decision = commit if self.now < meta.expiry else abort
            facet.submit_transactions((decision,))
        if decision is not None and decision.tx_id not in pool.view.committed:
            # Pin the decided record until the scan sees it on-chain, so
            # the tick re-asserts it past crashes and reorg drops.  The
            # pinned tx — never the clock — is what gets re-asserted:
            # a pre-expiry COMMIT stays a COMMIT.
            self._dst_decisions.setdefault(meta.tid, decision)
        self._tell(src, (XDECIDED, meta.tid))

    def _push_abort_decisions(self) -> None:
        """Repeat committed-ABORT pushes to source members until acked."""
        for tid, decision_tx in list(self._abort_pushes.items()):
            meta = parse_record(decision_tx)
            for member in self._member_lists[meta.src_shard]:
                self._tell(member, (XDECISION, tid, decision_tx))

    def _on_abort_decision(self, src: str, message: tuple) -> None:
        """A source member releases the escrow of an aborted transfer."""
        _tag, tid, decision_tx = message
        meta = parse_record(decision_tx)
        if meta is None or meta.kind != "abort":
            return
        facet = self.facets.get(meta.src_shard)
        if facet is None or facet.pool is None:
            return
        release = make_release(self._lock_surrogate(meta))
        if not facet.pool.is_known(release.tx_id):
            facet.submit_transactions((release,))
        if release.tx_id not in facet.pool.view.committed:
            self._src_releases.setdefault(meta.tid, release)
        self._tell(src, (XRELEASE_ACK, tid))

    def _reassert_records(self) -> None:
        """Re-submit produced decisions/releases until seen on-chain.

        Facet pools are volatile (a crash rebuilds them empty, a reorg
        can drop a record whose re-admission parked) while the remote
        side stopped pushing at the first ack — so the host pins every
        record it produced and re-offers it each tick.  A pin is
        dropped once the record's coins exist on the facet's observed
        chain, or once a rival decision settled the transfer (its
        ``xdec`` coin is minted, so this record can never commit).
        """
        for pinned, shard_of in (
            (self._dst_decisions, lambda m: m.dst_shard),
            (self._src_releases, lambda m: m.src_shard),
        ):
            for tid, tx in list(pinned.items()):
                meta = parse_record(tx)
                facet = self.facets.get(shard_of(meta))
                if facet is None or facet.pool is None or facet.offline:
                    continue
                pool = facet.pool
                if tx.tx_id in pool.view.committed or any(
                    coin in pool.view.minted for coin in tx.outputs
                ):
                    pinned.pop(tid)
                    continue
                if not pool.is_known(tx.tx_id):
                    facet.submit_transactions((tx,))

    @staticmethod
    def _lock_surrogate(meta) -> Transaction:
        """A LOCK-shaped stand-in carrying ``meta``: every derived
        record depends only on the issuer metadata and the fee, both of
        which the decision record preserves."""
        return Transaction(
            tx_id="",
            inputs=("_",),
            outputs=(f"xlock-{meta.tid}",),
            issuer=f"xshard-lock|{meta.tid}|{meta.src_shard}|{meta.dst_shard}|{meta.expiry!r}",
            fee=meta.fee,
        )

    # -- lifecycle -----------------------------------------------------------

    def apply_lifecycle(self, action: str) -> None:
        """Apply one scenario lifecycle verb to the host and every facet.

        The host only carries the network-facing flag and its own
        coordinator timer; the verb itself (crash, recover, …) is each
        facet's :meth:`BlockchainNode.apply_lifecycle`, which also
        rejects unknown verbs.
        """
        coming_up = action in ("resume", "recover", "join")
        if action in ("suspend", "crash"):
            self.offline = True
            self.lifecycle_epoch += 1  # kills the pending coordinator tick
        elif coming_up:
            # Online *before* the facets: resuming ends in a fast-sync
            # whose requests leave through the host.
            self.offline = False
        for facet in self.facets.values():
            facet.apply_lifecycle(action)
        if coming_up:
            self.call_later(self.tick_interval, self._tick)

    # -- end-of-run bookkeeping ----------------------------------------------

    def in_flight_records(self):
        """``(kind, tid)`` pairs of records produced but not yet mined.

        The atomicity checker uses these as evidence that a transfer
        missing its on-chain decision/release was cut off by the mining
        horizon rather than dropped (see
        :func:`repro.shard.atomicity.check_atomicity`).
        """
        pairs = set()
        for tid, tx in self._dst_decisions.items():
            meta = parse_record(tx)
            if meta is not None:
                pairs.add((meta.kind, tid))
        for tid in self._src_releases:
            pairs.add(("release", tid))
        # A LOCK reorged off the source chain (deep fork: partition
        # heal past CONFIRM_DEPTH) is re-pooled by ``observe_chain`` and
        # re-mined when it reaches the front of the fee queue — a held
        # lock is in-flight, not destroyed, so a surviving COMMIT on the
        # destination is a pending settlement rather than minted-from-
        # thin-air value.
        for facet in self.facets.values():
            if facet.pool is None:
                continue
            for tx in facet.pool.transactions():
                meta = parse_record(tx)
                if meta is not None and meta.kind == "lock":
                    pairs.add(("lock", meta.tid))
        return pairs
