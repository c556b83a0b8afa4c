"""Common replica machinery for the Table 1 protocol models.

:class:`BlockchainNode` is the §4.2 replica: a local BlockTree copy
``bt_i``, flooding gossip for block dissemination (implementing LRC),
orphan buffering for out-of-order arrivals, periodic recorded ``read()``
operations, and recorded ``append``/``send``/``receive``/``update``
events so the consistency checkers can judge the run afterwards; its
appends go through the history's :attr:`BlockchainNode.ledger`.

:class:`ProtocolRun` builds the network for a scenario, runs it, issues a
final read on every chain pipeline (so limit chains are observable) and
packages histories + trees + metrics — for a single chain and for K
shard facets per replica alike (see :meth:`BlockchainNode.pipelines`).
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Type

from repro._util import BoundedSet, prf_uint64
from repro.blocktree.block import Block, creator_name, make_block
from repro.blocktree.chain import Chain
from repro.blocktree.selection import LongestChain, SelectionFunction
from repro.blocktree.tree import BlockTree
from repro.histories.builder import AppendLedger
from repro.histories.continuation import ContinuationModel
from repro.histories.history import ConcurrentHistory
from repro.mempool.packer import BlockPacker
from repro.mempool.pool import Mempool
from repro.net.channels import ChannelModel
from repro.net.process import Network, SimProcess
from repro.net.reconcile import ROUND_COUNTERS, build_transport
from repro.net.simulator import Simulator
from repro.net.sync import SyncManager
from repro.storage import open_store
from repro.workloads.scenarios import ProtocolScenario
from repro.workloads.traffic import Submission
from repro.workloads.transactions import Transaction, TransactionGenerator

__all__ = ["BlockchainNode", "PassiveNode", "ProtocolRun"]

#: Gossip tag for flooded equivocation evidence (see repro.crypto.auth).
AUTH_EVID = "auth-evidence"


class BlockchainNode(SimProcess):
    """A blockchain replica with tree, gossip, orphans and history recording.

    Subclasses implement the block-production mechanism (mining timers,
    consensus rounds, …) and call :meth:`adopt_block` whenever a block
    becomes part of their replica — which records the ``update`` event of
    §4.2 and re-floods the block.
    """

    #: The k of the protocol's token oracle Θ (∞: prodigal, 1: frugal),
    #: from which ``classify_run`` derives its Table 1 expectation.
    oracle_k: float = math.inf

    def __init__(self, name: str, scenario: ProtocolScenario) -> None:
        super().__init__(name)
        self.scenario = scenario
        #: ``i`` of the replica name ``p<i>`` (its merit slot and the
        #: ``creator`` of the blocks it authors).
        self.index = int(name[1:])
        self.selection: SelectionFunction = LongestChain()
        # -- measurement apparatus: survives crashes, it belongs to the
        # history being measured, not to the replica (as does its ledger) --
        #: The replica's counter table: component → its row of counters.
        #: Every component :meth:`_boot` builds counts into its row, so a
        #: crash loses no count (:data:`MERGE` says how runs fold rows).
        self.metrics: Dict[str, Dict[str, Any]] = {
            "tx_gossip": {"tx_gossip_received": 0, "tx_gossip_duplicates": 0},
        }
        # Per-replica transaction stream: derived through the SHA-256 PRF
        # so replicas of different scenarios/cells never share a stream
        # (the old ``seed * 1000 + index`` collided across campaign cells).
        self.txgen = TransactionGenerator(
            seed=prf_uint64("txgen", scenario.seed, scenario.name, name)
        )
        self.auth = None  # _boot hands a predecessor's journal on
        # -- the replica: a tree persisting through the scenario's
        # block-store backend (the --store knob), and the RAM state
        # built around it --
        store = scenario.build_store(name)
        #: The store's ``(kind, path)`` (path None for memory) — crash
        #: recovery reopens the same file, like a restarted OS process.
        self._store_at = (store.kind, getattr(store, "path", None))
        self._boot(BlockTree(store=store))

    def _boot(self, tree: BlockTree) -> None:
        """Build every piece of RAM state a process start builds, around
        ``tree``: the constructor boots a fresh tree, a crash boots an
        empty placeholder, recovery boots the replayed store.  Each
        component counts into its row of :attr:`metrics`, the row its
        predecessors counted into: the measurement apparatus outlives
        every crash."""
        scenario = self.scenario
        row = self._row
        self.tree = tree
        self.orphans: Dict[str, List[Block]] = {}
        #: Ids currently parked in ``orphans`` — FIFO-bounded: bodies
        #: whose id fell out of the bound are discarded on the next
        #: stale-orphan sweep instead of being retried forever.  Only an
        #: equivocation ban runs that sweep, so without one the parked
        #: ``orphans`` grow for the whole run, as the dedup sets do.
        self._parked_ids = BoundedSet(cap=2048)
        #: Dedup sets (with ``tx_seen`` and ``received_marks``): they grow
        #: for the whole run; bounding them by finality depth is an open
        #: hostile-inputs item in ROADMAP.md.
        self.seen_blocks: set = set(tree.iter_ids())
        self.received_marks: set = set()  # blocks with a recorded receive
        #: Blocks refused by the validity predicate P.  Bounded FIFO: a
        #: spam adversary must not grow replica memory without limit, and
        #: re-validating a long-forgotten junk block is cheap.
        self.rejected_blocks = BoundedSet(cap=4096)
        # The transaction pipeline (scenario.traffic): a fee-priority
        # mempool fed by client submissions and tx gossip, drained by
        # the block packer, reaped on fork-choice reads.  None keeps the
        # historical synthetic-generator path byte-identical.
        self.pool: Optional[Mempool] = None
        self.packer: Optional[BlockPacker] = None
        self.tx_seen: set = set()
        if scenario.traffic is not None:
            self.pool = Mempool(
                genesis_coins=scenario.traffic.genesis_coins(),
                capacity=scenario.traffic.pool_capacity,
                counts=row("pool"),
            )
            self.packer = BlockPacker(self.pool, counts=row("packer"))
        # The dissemination transport (scenario.gossip): forward-once
        # flooding or Erlay-style set reconciliation.  Both implement
        # LRC; the recorded send/receive/update events let check_lrc /
        # check_update_agreement verify the refinement post-hoc.
        self.transport = build_transport(
            scenario.gossip,
            self,
            interval=scenario.recon_interval,
            counts=row("transport"),
        )
        # Fast-sync (repro.net.sync): every replica answers sync
        # requests; the client side is driven by lifecycle events.
        # ``_bulk_sync`` marks batch adoption: per-block application
        # reads are suppressed (one read per batch instead).
        self._bulk_sync = False
        self.sync = SyncManager(self, counts=row("sync"))
        # Authenticated pipeline (scenario.auth): the per-replica
        # verifier/signer, its PKI rebuilt from the scenario seed.  Of
        # the authenticator this one replaces, the signer-side
        # slashing-protection journal is kept (real validators persist
        # exactly that, so a recovered miner never signs a rival at a
        # parent it already extended); bans and evidence are RAM —
        # re-learned from peers (sync piggyback + refloods).
        old = self.auth
        self.auth = scenario.build_auth(row("auth")) if scenario.auth else None
        if old is not None:
            self.auth.signed_parents.update(old.signed_parents)
        if self.auth is not None:
            self.route(self._on_auth_evidence, {AUTH_EVID: 2})

    def _row(self, component: str) -> Dict[str, Any]:
        """``component``'s row of :attr:`metrics` (empty until it counts)."""
        return self.metrics.setdefault(component, {})

    def report(self, component: str) -> Dict[str, Any]:
        """``component``'s row as runs report it: through the live
        component's ``stats()`` where it has readings of its own (pool
        occupancy, tree size, auth evidence, transport kind, appends)."""
        if component == "appends":
            return self.ledger.stats(self.name)
        live = getattr(self, component, None)
        return live.stats() if hasattr(live, "stats") else self.metrics[component]

    @property
    def ledger(self) -> AppendLedger:
        """The append ledger of the history this pipeline records into."""
        return self.network.recorder.ledger

    def pipelines(self) -> List[Tuple[int, "BlockchainNode"]]:
        """The ``(shard, chain pipeline)`` pairs this host runs.

        A plain replica is its own single pipeline on shard 0; a
        :class:`repro.shard.node.ShardedNode` answers with one facet per
        shard.  :class:`ProtocolRun` measures and drives a
        run only through this list.
        """
        return [(0, self)]

    # -- reads ------------------------------------------------------------------

    def read(self) -> Chain:
        """A recorded BT-ADT ``read()`` on the local replica.

        The returned chain is an O(1) tree-backed view (tip id + height)
        — recording a read no longer copies O(depth) block tuples, and
        the view stays valid as the replica tree grows (root paths are
        immutable).  Consistency checkers judge it via O(log n) ancestry
        queries without ever materializing the blocks.
        """
        rec = self.network.recorder
        op_id = rec.begin(self.name, "read", (), time=self.now)
        chain = self.select_chain()
        rec.end(self.name, op_id, "read", chain, time=self.now)
        if self.pool is not None:
            # Committed transactions are reaped on fork-choice reads:
            # the pool syncs to the chain this read observed.
            self.pool.observe_chain(chain, self.now)
            self._relay_fresh_txs()
        return chain

    def _discard_stale_orphans(self) -> None:
        """Drop parked bodies that will never attach.

        Runs when an equivocation ban lands: a body is stale when its
        id fell out of the FIFO ``_parked_ids`` bound, when it entered
        the tree through another path, or when its parent was judged
        invalid (descendants of a rejected block are dead).
        """
        if not self.orphans:
            return
        kept: Dict[str, List[Block]] = {}
        for parent_id, blocks in self.orphans.items():
            if parent_id in self.rejected_blocks:
                continue
            live = [
                b
                for b in blocks
                if b.block_id in self._parked_ids and b.block_id not in self.tree
            ]
            if live:
                kept[parent_id] = live
        self.orphans = kept

    def schedule_periodic_reads(self) -> None:
        """Arm the next read of the periodic read loop (every
        ``scenario.read_interval`` until ``scenario.duration``)."""
        self.call_later(self.scenario.read_interval, self._periodic_read)

    def _periodic_read(self) -> None:
        if self.now < self.scenario.duration:
            self.read()
            self.schedule_periodic_reads()

    # -- block dissemination ---------------------------------------------------------

    def announce_block(self, block: Block) -> None:
        """Disseminate a block to all peers (recording the ``send`` event).

        The network action is the transport's (flooded body vs lazy
        announcement); the loopback ``receive`` is recorded immediately
        either way: LRC Validity requires the sender to deliver its own
        message.
        """
        self.record_instant("send", self.block_event_args(block))
        self.transport.announce(block)
        self.record_receive(block)

    def block_event_args(self, block: Block) -> Tuple[Any, str, str]:
        """The arguments of a recorded §4.2 send/receive/update (the
        creator is ``""`` for a block no replica is credited with)."""
        return (block.parent_id, block.block_id, creator_name(block) or "")

    def record_receive(self, block: Block) -> None:
        """Record the §4.2 ``receive`` of ``block`` and mark it, so that
        :meth:`adopt_block` records no second one."""
        self.record_instant("receive", self.block_event_args(block))
        self.received_marks.add(block.block_id)

    def validate_incoming(self, block: Block) -> bool:
        """The validity predicate ``P`` applied on reception.

        With ``scenario.auth`` the block must carry a digest-valid
        signature bound to its claimed creator (see
        :meth:`repro.crypto.auth.BlockAuthenticator.check_block`) —
        checked first, since forged blocks must die before any other
        work is spent on them.  With ``scenario.pow_difficulty_bits > 0``
        the block must additionally carry a nonce solving the hash
        puzzle over (parent, payload, creator) — the concrete
        Dwork–Naor instantiation of oracle validation.  Subclasses may
        add application rules (e.g. double-spend checks).
        """
        if self.auth is not None and self.auth.check_block(block) != "ok":
            self._after_auth_reject()
            return False
        bits = self.scenario.pow_difficulty_bits
        if bits <= 0:
            return True
        from repro.crypto.pow import PoWPuzzle

        puzzle = PoWPuzzle.for_block(
            block.parent_id or "", block.payload, creator_name(block) or "", bits
        )
        return puzzle.check(block.nonce)

    def adopt_block(self, block: Block, relay: bool = True) -> bool:
        """Integrate ``block`` into the local replica (the ``update`` event).

        Invalid blocks (``P(b) = false``) are refused outright; orphans
        whose parent is unknown are buffered; returns True when the block
        (and possibly buffered descendants) entered the tree.
        """
        if block.block_id in self.tree:
            return False
        if not self.validate_incoming(block):
            self.rejected_blocks.add(block.block_id)
            return False
        if block.parent_id not in self.tree:
            self.orphans.setdefault(block.parent_id, []).append(block)
            self._parked_ids.add(block.block_id)
            return False
        if block.block_id not in self.received_marks:
            # The block arrived through a consensus/commit message rather
            # than block gossip: that delivery is the §4.2 receive event.
            self.record_receive(block)
        self.tree.add_block(block)
        self.record_instant("update", self.block_event_args(block))
        if relay and block.block_id not in self.seen_blocks:
            self.transport.relay_block(block)
        self.seen_blocks.add(block.block_id)
        self.on_new_block(block)
        if not self._bulk_sync:
            # Applications read after updates; this makes transient forks
            # observable to the consistency checkers (a read on each side
            # of a fork witnesses the Strong Prefix violation).
            self.read()
        # Drain orphans now attached.
        for orphan in self.orphans.pop(block.block_id, []):
            self.adopt_block(orphan, relay=relay)
        return True

    def deliver_block_body(self, src: str, block: Block) -> None:
        """A block body arrived from ``src`` over the transport.

        Records the §4.2 ``receive`` on first sight, then *validates
        before relaying*: only blocks the tree accepts — or parks as
        orphans awaiting a parent — propagate onward.  A structurally
        invalid block dies at the first honest replica instead of being
        amplified network-wide (the relay-before-validate bug), matching
        the transaction path, which has always relayed only
        pool-accepted transactions.
        """
        block_id = block.block_id
        if block_id in self.seen_blocks:
            return
        self.seen_blocks.add(block_id)
        self.record_receive(block)
        adopted = self.adopt_block(block, relay=False)
        parked = (
            not adopted
            and block_id not in self.tree
            and block_id not in self.rejected_blocks
        )
        if adopted or parked:
            self.transport.relay_block(block)
        if parked:
            self.transport.request_parent(src, block)

    def on_new_block(self, block: Block) -> None:
        """Hook: called after a block enters the tree (protocol reaction)."""

    def adopt_synced_blocks(self, src: str, blocks: Tuple[Block, ...]) -> int:
        """Integrate a fast-sync batch; returns how many blocks were new.

        Batches arrive parent-before-child relative to the local tree
        (see :func:`repro.net.sync.missing_ids`), so adoption needs no
        orphan buffering.  Each block's §4.2 receive/update instants are
        recorded (Update Agreement R3 holds however a block arrives),
        but per-block relaying and per-block application reads are
        suppressed — a bulk transfer is one observation of remote state,
        so one ``read`` is recorded per adopted batch instead of one per
        block.
        """
        added = 0
        if self.auth is not None and blocks:
            # Amortized batch verification: one midstate finish per
            # fresh digest, so the per-block checks below hit the cache.
            self.auth.prime_batch(blocks)
        self._bulk_sync = True
        try:
            for block in blocks:
                if block.block_id in self.tree:
                    self.seen_blocks.add(block.block_id)
                    continue
                if self.adopt_block(block, relay=False):
                    added += 1
                self.seen_blocks.add(block.block_id)
        finally:
            self._bulk_sync = False
        if added:
            self.read()
        return added

    # -- transaction pipeline --------------------------------------------------------

    def submit_transactions(self, txs: Tuple[Transaction, ...]) -> int:
        """Client ingress: ingest a submitted batch and gossip it onward.

        Accepted transactions are flooded over the same channels as
        blocks (so partitions/churn shape propagation identically);
        duplicates and double spends die here.  Returns the number of
        transactions accepted into the local pool.
        """
        if self.pool is None or self.offline:
            # Submissions to a down ingress replica are lost — clients
            # talking to a crashed node get no service, not a queue.
            return 0
        return self._pool_txs(txs)

    def _pool_txs(self, txs: Tuple[Transaction, ...]) -> int:
        """Verify, pool, mark and relay one batch, however it arrived;
        returns how many transactions the pool accepted.

        Signature rejects are not marked seen: an unsigned/forged copy
        must not blacklist the id against a later validly signed
        arrival.  Nor are pool rejects: one for a transient reason
        (double-spend against a chain that later reorgs away) must stay
        re-judgeable, not be blacklisted forever.
        """
        if self.auth is not None:
            txs = tuple(tx for tx in txs if self.auth.check_tx(tx) == "ok")
            if not txs:
                return 0
        pool = self.pool
        accepted = pool.add_batch(txs, chain=self.select_chain(), now=self.now)
        # Every *accepted* id is marked even if a later transaction in the
        # same batch already evicted it: accepted transactions are relayed,
        # and an unmarked relayed id turns each returning gossip copy into
        # a fresh accept-evict-relay cycle — a network-wide storm once the
        # pool saturates.  Of the rest, only ids still held (pooled or
        # parked) are marked.
        for tx in accepted:
            self.tx_seen.add(tx.tx_id)
        for tx in txs:
            if pool.is_held(tx.tx_id):
                self.tx_seen.add(tx.tx_id)
        self._relay_fresh_txs(accepted)
        return len(accepted)

    def _relay_fresh_txs(self, accepted: Tuple[Transaction, ...] = ()) -> None:
        """Propagate newly pooled transactions: the just-accepted batch
        plus any parked orphans an unpark cascade admitted (those were
        never relayed while waiting for their parent)."""
        fresh = list(accepted)
        fresh.extend(self.pool.drain_unparked())
        if fresh:
            self.transport.relay_txs(tuple(fresh))

    def ingest_gossiped_txs(self, txs: Tuple[Transaction, ...]) -> None:
        """Transactions arrived over the transport (flooded batch or a
        reconciliation-round body transfer).

        Duplicate accounting feeds ``duplicate_relay_ratio``: a receive
        is redundant when the id is already marked seen or known to the
        pool (held or committed).  Only pool-accepted transactions relay
        onward, so invalid spam stops at the first honest replica.
        Transaction gossip is transport traffic, not a §4.2 replica
        event — nothing is recorded to the history.
        """
        if self.pool is None:
            return
        seen, known = self.tx_seen, self.pool.is_known
        fresh = [tx for tx in txs if tx.tx_id not in seen and not known(tx.tx_id)]
        counts = self.metrics["tx_gossip"]
        counts["tx_gossip_received"] += len(txs)
        counts["tx_gossip_duplicates"] += len(txs) - len(fresh)
        if fresh:
            self._pool_txs(tuple(fresh))

    def on_message(self, src: str, message: Any) -> None:
        self.on_gossip(src, message)

    #: The replica's decode boundary (see :meth:`SimProcess.on_message`),
    #: under the name the benchmark's span tracer times it by: transport,
    #: sync, evidence and consensus messages all enter here.
    on_gossip = SimProcess.on_message

    # -- authenticated pipeline --------------------------------------------------------

    def seal_block(self, block: Block) -> Block:
        """Sign a locally produced block with this replica's key.

        The identity hook every block-production site calls after
        ``make_block``; a no-op when the scenario runs unsigned, so the
        unsigned pipeline stays byte-identical.  Byzantine subclasses
        override this to mount signature attacks.
        """
        if self.auth is None:
            return block
        return self.auth.sign_block(block, self.name)

    def select_chain(self) -> Chain:
        """Fork choice with equivocation bans applied.

        The zero-cost fast path — no bans, or no banned id anywhere on
        the preferred chain — returns the selection function's pick
        untouched, keeping unsigned and attack-free runs byte-identical.
        When the preferred tip sits on a poisoned branch, re-select over
        the leaves with no banned ancestor, scored by the same rule the
        selection function uses (GHOST falls back to chain weight — the
        subtree walk cannot skip branches, and a poisoned subtree's
        weight should not steer honest selection anyway).

        This lives on the node rather than wrapping ``self.selection``
        because protocol subclasses overwrite ``selection`` after
        ``__init__`` (Bitcoin installs HeaviestChain, Ethereum GHOST).
        """
        chain = self.selection.select(self.tree)
        auth = self.auth
        if auth is None or not auth.banned_ids:
            return chain
        tree = self.tree
        present = [bid for bid in sorted(auth.banned_ids) if bid in tree]
        if not present or not any(
            tree.is_ancestor(bid, chain.tip_id) for bid in present
        ):
            return chain
        # Each leaf contributes its deepest *clean* prefix tip: the leaf
        # itself when no banned id lies on its path, else the parent of
        # the topmost banned ancestor.  (Filtering to clean leaves alone
        # is wrong: when the adversary mines on every honest tip, every
        # leaf is poisoned and honest blocks are interior — falling back
        # to genesis would make honest miners re-extend an already-used
        # parent, which reads as equivocation to their peers.)
        candidates: List[str] = []
        seen_candidates = set()
        for leaf in tree.leaves():
            poisoned = [b for b in present if tree.is_ancestor(b, leaf.block_id)]
            if not poisoned:
                cand = leaf.block_id
            else:
                topmost = min(poisoned, key=lambda b: (tree.height(b), b))
                cand = tree.parent_id(topmost) or tree.genesis.block_id
            if cand not in seen_candidates:
                seen_candidates.add(cand)
                candidates.append(cand)
        if isinstance(self.selection, LongestChain):
            score = tree.height
        else:
            score = tree.chain_weight
        return tree.chain_to(max(candidates, key=lambda bid: (score(bid), bid)))

    def ingest_auth_evidence(self, evidence: Tuple[Any, ...]) -> int:
        """Accept equivocation evidence (relayed or sync-piggybacked).

        Fresh, valid evidence bans both rival ids, marks them rejected
        (so parked descendants die on the next stale-orphan sweep) and
        re-floods forward-once — the evidence dedup set doubles as the
        seen-set.  Returns how many items were fresh.
        """
        if self.auth is None:
            return 0
        fresh = 0
        for ev in evidence:
            if self.auth.ingest_evidence(ev):
                fresh += 1
                self._apply_auth_bans(ev)
                self._flood_auth_evidence(ev)
        return fresh

    def _on_auth_evidence(self, src: str, message: tuple) -> None:
        self.ingest_auth_evidence(message[1:])

    def _after_auth_reject(self) -> None:
        """Post-reject hook: publish any evidence the check generated."""
        for ev in self.auth.drain_fresh_evidence():
            self._apply_auth_bans(ev)
            self._flood_auth_evidence(ev)

    def _apply_auth_bans(self, ev: Any) -> None:
        for block_id in ev.banned_ids:
            self.rejected_blocks.add(block_id)
        self._discard_stale_orphans()

    def _flood_auth_evidence(self, ev: Any) -> None:
        if not self.offline:
            self.broadcast((AUTH_EVID, ev))

    # -- node lifecycle ---------------------------------------------------------------

    def apply_lifecycle(self, action: str) -> None:
        """Dispatch one scenario lifecycle verb (see
        :meth:`~repro.workloads.scenarios.ProtocolScenario.lifecycle_schedule`)."""
        handler = getattr(self, f"lifecycle_{action}", None)
        if not callable(handler):
            raise ValueError(f"unknown lifecycle action {action!r}")
        handler()

    def lifecycle_suspend(self) -> None:
        """Go offline keeping RAM state: timers die, traffic stops.

        Bumping the lifecycle epoch kills every pending timer uniformly
        across protocols (mining epochs, consensus rounds, watchdogs,
        periodic reads, transport ticks) — a resumed node re-arms its
        own.
        """
        self.offline = True
        self.lifecycle_epoch += 1

    def lifecycle_resume(self, sync: bool = True) -> None:
        """Come back online: re-arm timers, then fast-sync the gap."""
        self.offline = False
        self.on_lifecycle_resume()
        self.transport.on_start()
        if sync:
            self.sync.start_sync()

    def on_lifecycle_resume(self) -> None:
        """Hook: re-arm protocol timers after an outage.

        The default replays ``on_start``; protocols whose start hooks
        are not safely re-runnable (idempotent service starts, round
        timers pinned to round 0) override this.
        """
        self.on_start()

    def lifecycle_crash(self) -> None:
        """Suspend and lose all in-RAM state; only the block store survives.

        The store is flushed — everything the replica wrote is durable —
        and recovery reopens it afresh.  The reads recorded before the
        crash are views of the crashed tree, which keeps every block it
        held, so they stay judgeable.  A placeholder empty tree keeps
        end-of-run bookkeeping alive while the node is down.
        """
        self.lifecycle_suspend()
        self.tree._store.flush()
        self._boot(BlockTree())

    def lifecycle_recover(self) -> None:
        """Rebuild from the durable store, then resume and fast-sync.

        Durable backends reopen the same per-node file and
        :meth:`BlockTree.replay` restores the tree; the
        in-memory backend recovers nothing (full resync — the correct
        degenerate case).  Consensus components owned by subclasses
        (ordering service, committees) are modelled as durably persisted
        and survive; their timers re-arm through
        :meth:`on_lifecycle_resume`.
        """
        self._boot(BlockTree.replay(open_store(*self._store_at)))
        self.lifecycle_resume()

    def lifecycle_join(self) -> None:
        """A late joiner comes online (it started suspended, store empty)."""
        self.lifecycle_resume()

    def lifecycle_heal(self) -> None:
        """An eclipse lifted: fast-sync the honest view.

        The victim was never suspended — it kept mining on its filtered
        view — so nothing re-arms; it only needs to catch up.
        """
        self.sync.start_sync()

    # -- helpers --------------------------------------------------------------------

    def make_payload(self) -> tuple:
        """Fill a new block's payload.

        With the transaction pipeline enabled the payload comes from
        the local pool via the block packer (fee-priority order, valid
        in the context of the selected chain); otherwise from the
        per-replica synthetic generator.
        """
        if self.packer is not None:
            chain = self.select_chain()
            payload = self.packer.pack(chain, self.scenario.tx_per_block, self.now)
            self._relay_fresh_txs()  # packing syncs the pool; relay unparks
            return payload
        return self.txgen.batch(self.scenario.tx_per_block)

    def append_decided(self, tip: Block, label: str, payload: tuple) -> None:
        """Append the block a consensus instance decided, built on ``tip``.

        Every member builds the same block locally (``creator=None``, so
        the id is content-derived) and seals its copy with its own key —
        any registered signer verifies.  Every member records the append
        too, as an immediate one: the replicated records are echoes of one
        token consumption, deduplicated by block id in the k-fork checker.
        """
        block = self.seal_block(make_block(parent=tip, label=label, payload=payload))
        self.ledger.invoke(self.name, block, block.block_id, time=self.now)
        self.ledger.decide(self.name, block.block_id, block.block_id, time=self.now)
        self.adopt_block(block, relay=True)

    def selected_tip(self) -> Block:
        """The tip of ``f(bt)`` on the local replica."""
        return self.select_chain().tip


class PassiveNode(BlockchainNode):
    """A replica that produces nothing: it gossips, serves and syncs.

    The sync bench and the lifecycle tests use it as a pure
    dissemination endpoint — all of :class:`BlockchainNode`'s adoption,
    storage, transport and lifecycle machinery with no block production
    to perturb measurements.
    """


#: How every view folds rows of the counter table, declared once.  Over
#: one replica's lives nothing folds: a component counts into the row
#: its predecessor counted into and writes its peaks (``peak_occupancy``)
#: through as a maximum.  Over a replica's shard
#: facets (``per_node``) and over replicas (``totals``), a string is a
#: label — kept per node, left out of totals — a key in ``max`` takes
#: the maximum, a key in ``omit`` is left out, and every other value is
#: summed (so a replica's ``peak_occupancy`` is the sum of its facets').
MERGE: Dict[str, Dict[str, Any]] = {
    "per_node": {
        "labels": True,
        "max": {"last_catch_up_s"},
        "omit": set(),
    },
    "totals": {
        # Evidence replicates between replicas, it does not add up.
        "labels": False,
        "max": {"evidence", "banned"},
        # Totals are the byte/message columns of either transport.
        "omit": {"last_catch_up_s", *ROUND_COUNTERS},
    },
}


def _merge(rows: Iterable[Dict[str, Any]], level: str) -> Dict[str, Any]:
    """Fold counter-table rows by the :data:`MERGE` rules of ``level``."""
    rules = MERGE[level]
    merged: Dict[str, Any] = {}
    for row in rows:
        for key, value in row.items():
            if key in rules["omit"]:
                continue
            if isinstance(value, str):
                if rules["labels"]:
                    merged[key] = value
            elif key not in merged:
                merged[key] = value
            elif key in rules["max"]:
                merged[key] = max(merged[key], value)
            else:
                merged[key] += value
    return merged


def _pipelines(hosts: List[Any]) -> List[Tuple[str, int, BlockchainNode]]:
    return [
        (host.name, shard, chain)
        for host in hosts
        for shard, chain in host.pipelines()
    ]


@dataclass
class ProtocolRun:
    """Outcome of one protocol simulation.

    A run is a list of chain :meth:`pipelines` — one per replica on
    shard 0 for a single chain, one facet per shard when
    ``scenario.shards > 1`` — and every measurement below is one fold
    over that list: counters summed per replica, gauges by maximum,
    committed throughput read off each shard's majority-view replica.
    """

    scenario: ProtocolScenario
    #: The recorded history of a single-chain run; ``None`` when sharded
    #: (every shard has its own — see :attr:`histories`).
    history: Optional[ConcurrentHistory]
    #: The processes registered on the network: the replicas, or the
    #: ``ShardedNode`` hosts of their facets.
    nodes: List[Any]
    network: Network
    simulator: Simulator
    #: Live adversary objects built from the scenario's faults (their
    #: dropped/delayed counters survive the run for inspection).
    faults: Dict[str, Any] = field(default_factory=dict)
    #: ``(time, max_fork_degree, max_height)`` over all pipelines,
    #: sampled every ``scenario.metrics_interval`` when requested.
    samples: List[Tuple[float, int, int]] = field(default_factory=list)
    #: Wall-clock seconds spent inside ``Simulator.run`` (run metadata
    #: for the campaign engine's events/sec throughput column).
    wall_clock_s: float = 0.0
    #: The compiled client-traffic schedule (empty without a
    #: ``scenario.traffic``): a tuple for a single chain, shard id →
    #: tuple when sharded.  Submission times anchor the
    #: confirmation-latency measurements of :meth:`mempool_stats`.
    submissions: Any = ()
    #: shard id → recorded history, each judged independently by the
    #: consistency checkers (``{0: history}`` for a single chain).
    histories: Dict[int, ConcurrentHistory] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.histories:
            self.histories = {0: self.history}

    @property
    def shards(self) -> int:
        """Shard count K (1 for a single chain)."""
        return self.scenario.shards

    @property
    def node_names(self) -> List[str]:
        return [n.name for n in self.nodes]

    @property
    def events_executed(self) -> int:
        """Simulator events executed during the run."""
        return self.simulator.events_executed

    def pipelines(self) -> List[Tuple[str, int, BlockchainNode]]:
        """Every ``(replica name, shard, chain pipeline)`` of the run."""
        return _pipelines(self.nodes)

    def _per_replica(self, *components: str) -> Dict[str, Dict[str, Any]]:
        """The rows of ``components`` (:meth:`BlockchainNode.report`),
        folded over each replica's pipelines by :data:`MERGE`."""
        rows: Dict[str, List[Dict[str, Any]]] = {}
        for name, _, chain in self.pipelines():
            rows.setdefault(name, []).extend(chain.report(c) for c in components)
        return {name: _merge(node_rows, "per_node") for name, node_rows in rows.items()}

    def _max_per_replica(
        self, value_of: Callable[[BlockchainNode], int]
    ) -> List[Tuple[str, int]]:
        """Per replica, the largest ``value_of(pipeline)``; name-sorted."""
        return sorted(
            (node.name, max(value_of(chain) for _, chain in node.pipelines()))
            for node in self.nodes
        )

    # -- chains ---------------------------------------------------------------

    def shard_chains(self, shard: int) -> Dict[str, Chain]:
        """Each replica's adopted chain on one shard.

        Goes through ``select_chain`` so equivocation bans are honoured
        when the pipelines run authenticated.
        """
        return {
            name: chain.select_chain()
            for name, k, chain in self.pipelines()
            if k == shard
        }

    def final_chains(self) -> Dict[str, Chain]:
        """Each node's adopted chain at the end of a single-chain run."""
        return self.shard_chains(0)

    def final_majority_chains(self) -> Dict[int, Chain]:
        """shard id → the majority-view final chain of that shard."""
        from repro.protocols.classify import majority_view

        return {k: majority_view(self.shard_chains(k)) for k in range(self.shards)}

    def max_fork_degree(self) -> int:
        """The widest fork observed on any pipeline."""
        return max(chain.tree.max_fork_degree() for _, _, chain in self.pipelines())

    def node_heights(self) -> List[Tuple[str, int]]:
        """Every replica's (tallest) final chain height, name-sorted."""
        return self._max_per_replica(lambda chain: chain.select_chain().height)

    def node_fork_degrees(self) -> List[Tuple[str, int]]:
        """Every replica's widest observed fork, name-sorted."""
        return self._max_per_replica(lambda chain: chain.tree.max_fork_degree())

    # -- measurements ---------------------------------------------------------

    def storage_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-node block-store lifecycle counters (``BlockTree.stats``)."""
        return self._per_replica("tree")

    def unknown_append_resolutions(self) -> int:
        """Total ledger decides that answered no token, all pipelines."""
        per_node = self._per_replica("appends")
        return _merge(per_node.values(), "totals")["unknown_resolutions"]

    def mempool_stats(self) -> Dict[str, Any]:
        """Transaction-pipeline measurements (empty without traffic).

        Deterministic by construction — every number derives from
        simulated time and counters, never wall clock — so a serial and
        a parallel campaign execution of the same cell report identical
        stats (the invariant the mempool bench gates).

        * ``per_node`` — pool lifecycle counters, packer totals and
          gossip duplicate counts for every replica, over all its lives;
        * ``committed`` — throughput over each shard's majority-view
          chain: unique committed transactions, committed tx per
          simulated second, and the confirmation-latency distribution
          (submission to first observation on the majority-view
          replica's chain), summed / merged over shards;
        * ``duplicate_relay_ratio`` — duplicate tx-gossip receives over
          all tx-gossip receives (flooding redundancy).

        A single chain names its majority-view replica in
        ``committed.majority_node``; a sharded run adds the per-shard
        breakdown as ``per_shard`` instead.
        """
        if self.scenario.traffic is None:
            return {}
        from repro.protocols.classify import majority_view

        per_node = self._per_replica("pool", "packer", "tx_gossip")
        sharded = self.shards > 1
        first_submit: Dict[str, float] = {}
        for subs in self.submissions.values() if sharded else (self.submissions,):
            for sub in subs:
                for tx in sub.txs:
                    first_submit.setdefault(tx.tx_id, sub.time)

        duration = self.scenario.duration or 1.0
        pools = {(name, k): chain.pool for name, k, chain in self.pipelines()}
        per_shard: Dict[str, Dict[str, Any]] = {}
        latencies: List[float] = []
        total_committed = 0
        for k in range(self.shards):
            chains = self.shard_chains(k)
            majority = majority_view(chains)
            representative = min(
                name for name, c in chains.items() if c.tip_id == majority.tip_id
            )
            pool = pools[representative, k]
            committed_ids = set(pool.view.committed)
            total_committed += len(committed_ids)
            latencies.extend(
                pool.committed_at[tx_id] - first_submit[tx_id]
                for tx_id in committed_ids
                if tx_id in first_submit and tx_id in pool.committed_at
            )
            per_shard[str(k)] = {
                "txs": len(committed_ids),
                "tx_per_s": len(committed_ids) / duration,
                "height": majority.height,
                "majority_node": representative,
            }
        latencies.sort()

        def percentile(q: float) -> float:
            if not latencies:
                return 0.0
            index = min(len(latencies) - 1, int(q * len(latencies)))
            return latencies[index]

        committed: Dict[str, Any] = {
            "txs": total_committed,
            "submitted": len(first_submit),
            "tx_per_s": total_committed / duration,
            "latency": {
                "observed": len(latencies),
                "mean": sum(latencies) / len(latencies) if latencies else 0.0,
                "p50": percentile(0.50),
                "p90": percentile(0.90),
                "max": latencies[-1] if latencies else 0.0,
            },
        }
        stats: Dict[str, Any] = {"per_node": per_node}
        if sharded:
            stats["per_shard"] = per_shard
        else:
            committed["majority_node"] = per_shard["0"]["majority_node"]
        totals = _merge(per_node.values(), "totals")
        received = totals["tx_gossip_received"]
        stats["committed"] = committed
        stats["duplicate_relay_ratio"] = (
            totals["tx_gossip_duplicates"] / received if received else 0.0
        )
        return stats

    def auth_stats(self) -> Dict[str, Any]:
        """Authenticated-pipeline measurements (empty when auth is off).

        ``per_node`` carries each replica's authenticator counters over
        all its lives, with the evidence it holds and the ids it bans
        now; ``totals`` folds them over replicas (:data:`MERGE`).
        Deterministic: all counters derive from message flow, never wall
        clock, so serial and parallel campaign executions agree.
        """
        if not self.scenario.auth:
            return {}
        per_node = self._per_replica("auth")
        return {"per_node": per_node, "totals": _merge(per_node.values(), "totals")}

    def sync_stats(self) -> Dict[str, Any]:
        """Fast-sync measurements (empty when no replica ever synced).

        ``per_node`` carries each replica's cumulative sync counters
        (they survive crash rebuilds); ``totals`` folds them over
        replicas (:data:`MERGE`) — ``catch_up_s`` is accumulated
        *simulated* catch-up time, so the numbers replay identically
        serial or parallel.  Runs without lifecycle events report ``{}``,
        keeping default campaign cells byte-identical to their pre-sync
        serialization.
        """
        per_node = self._per_replica("sync")
        if not any(stats["syncs_started"] for stats in per_node.values()):
            return {}
        return {"per_node": per_node, "totals": _merge(per_node.values(), "totals")}

    def gossip_stats(self) -> Dict[str, Any]:
        """Dissemination-transport measurements (both gossip kinds).

        ``per_node`` carries each replica's transport counters over all
        its lives (modelled bytes by traffic class, and round/fetch
        counters under reconciliation); ``totals`` sums the byte/message
        columns (:data:`MERGE`) — the numerator of the gossip bench's
        relayed-bytes-per-committed-tx metric.  Deterministic: byte costs
        are modelled from message structure, never wall clock.
        """
        per_node = self._per_replica("transport")
        return {
            "transport": self.scenario.gossip,
            "per_node": per_node,
            "totals": _merge(per_node.values(), "totals"),
        }

    def shard_stats(self) -> Dict[str, Any]:
        """Sharding measurements: none for a single chain (see
        :meth:`repro.shard.run.ShardedRun.shard_stats`)."""
        return {}

    # -- execution ------------------------------------------------------------

    @classmethod
    def execute(
        cls,
        node_cls: Callable[[str, ProtocolScenario], Any],
        scenario: ProtocolScenario,
        channel: Optional[ChannelModel] = None,
        settle: float = 120.0,
        sim_cls: Type[Simulator] = Simulator,
    ) -> "ProtocolRun":
        """Build, run and package a protocol simulation.

        ``node_cls(name, scenario)`` builds the process registered for
        one replica; everything after that drives the hosts' chain
        pipelines (``host.pipelines()``), so a replica that is its own
        pipeline and a ``ShardedNode`` hosting K facets run through the
        same code.  The network runs for ``scenario.duration`` of block
        production plus a settle window during which production stops
        but messages drain — then every pipeline issues one final
        recorded read (the observable limit chains).  Each shard's
        history carries an all-growing single-group continuation: these
        protocols keep producing and converging, which is the declared
        future used by the liveness checkers.
        """
        sim = sim_cls(seed=scenario.seed)
        faults: Dict[str, Any] = {}
        if channel is None:
            # The scenario compiles its own fault structure (partitions,
            # churn, selfish withholding) into the channel stack.
            channel, faults = scenario.build_channel()
        net = Network(sim, channel=channel, overlay=scenario.build_overlay())
        # Node name → the adversary class substituted for ``node_cls``.
        byzantine: Dict[str, Any] = scenario.byzantine_map()
        if byzantine:
            # Late import: repro.protocols.byzantine subclasses the
            # protocol node classes defined on top of this module.
            from repro.protocols.byzantine import ADVERSARY_KINDS

            byzantine = {name: ADVERSARY_KINDS[k] for name, k in byzantine.items()}
        nodes = [
            net.register(byzantine.get(name, node_cls)(name, scenario))
            for name in scenario.node_names()
        ]
        pipelines = _pipelines(nodes)
        members = scenario.shard_members()
        if {shard for _, shard, _ in pipelines} != set(members):
            raise ValueError(
                "sharded scenarios (shards > 1) run through "
                "repro.shard.run.execute_sharded (bitcoin only)"
            )
        by_name = {node.name: node for node in nodes}
        # Late joiners are registered from the start (the membership set
        # is the paper's static Π) but stay suspended until their join
        # event; their t=0 timers die at fire time via the offline gate.
        for name in scenario.initially_offline():
            by_name[name].offline = True
            for _, chain in by_name[name].pipelines():
                chain.offline = True
        for at, action, name in scenario.lifecycle_schedule():
            sim.schedule_at(
                at,
                lambda a=action, node=by_name[name]: node.apply_lifecycle(a),
            )
        submissions: Dict[int, Tuple[Submission, ...]] = {}
        if scenario.traffic is not None:
            # Open-loop client traffic: the schedule is compiled up
            # front (deterministic per seed) and injected at each
            # ingress pipeline's local clock — propagation to everyone
            # else rides tx gossip through the (possibly faulty)
            # channel stack.
            traffic, seed = scenario.traffic, scenario.seed
            if scenario.shards > 1:
                submissions = traffic.compile_shard_submissions(
                    members, seed, scenario.duration
                )
            else:
                submissions = {
                    0: traffic.compile_submissions(members[0], seed, scenario.duration)
                }
            if scenario.auth:
                # Clients seal their transactions before submission; a
                # post-pass keeps the compiled schedule itself (times,
                # ingress choices, tx ids) byte-identical to unsigned.
                from repro.crypto.auth import build_registry, sign_submissions

                registry = build_registry(scenario.seed, scenario.auth_signers())
                submissions = {
                    k: sign_submissions(subs, registry)
                    for k, subs in submissions.items()
                }
            ingress = {(name, shard): chain for name, shard, chain in pipelines}
            for shard, subs in submissions.items():
                for sub in subs:
                    sim.schedule_at(
                        sub.time,
                        lambda chain=ingress[sub.ingress, shard], txs=sub.txs: (
                            chain.submit_transactions(txs)
                        ),
                    )
        samples: List[Tuple[float, int, int]] = []
        if scenario.metrics_interval:
            sim.every(
                scenario.metrics_interval,
                lambda: samples.append(
                    (
                        sim.now,
                        max(c.tree.max_fork_degree() for _, _, c in pipelines),
                        max(c.select_chain().height for _, _, c in pipelines),
                    )
                ),
                until=scenario.duration,
            )
        net.start()
        for node in nodes:
            if isinstance(node, BlockchainNode):
                # Transport timers (reconciliation rounds) arm at t=0
                # without relying on protocol subclasses to forward
                # on_start hooks.  (A host of facets arms theirs in its
                # own on_start.)
                sim.schedule(0.0, node.transport.on_start)
        wall_start = _time.perf_counter()
        sim.run(until=scenario.duration + settle)
        wall_clock_s = _time.perf_counter() - wall_start
        for _, _, chain in pipelines:
            chain.read()  # final read: the limit chain
        recorders = {shard: chain.network.recorder for _, shard, chain in pipelines}
        for recorder in recorders.values():
            recorder.ledger.close(sim.now)
        histories = {
            k: recorders[k].history(
                continuation=ContinuationModel.all_growing(names, group="main")
            )
            for k, names in members.items()
        }
        sharded = scenario.shards > 1
        return cls(
            scenario=scenario,
            history=None if sharded else histories[0],
            nodes=nodes,
            network=net,
            simulator=sim,
            faults=faults,
            samples=samples,
            wall_clock_s=wall_clock_s,
            submissions=submissions if sharded else submissions.get(0, ()),
            histories=histories,
        )
