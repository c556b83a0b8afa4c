"""Experiment scenarios: Table-1 parameter sets, adversarial network
scenarios and large-scale tree workloads.

Two scenario types, both deterministic per seed:

* :class:`ProtocolScenario` — one protocol run: network size,
  merit/stake distribution, block production tempo, channel synchrony,
  duration, store, transport, shards, client traffic and an optional
  fault structure (network partitions that heal or don't, node churn,
  crashes, late joins, eclipses, selfish miners that withhold their own
  blocks, bursts that compress the block interval, Byzantine replicas).
  Every fault tuple defaults to empty, and a fault-free scenario runs
  on a bare synchronous channel.  :meth:`ProtocolScenario.build_channel`
  compiles the faults into the channel/adversary stack of
  :mod:`repro.net.channels` / :mod:`repro.net.faults`, so the protocol
  benches and the consistency checkers run *the same scenario objects*.
  ``default_scenarios`` returns the Table 1 configurations and
  ``adversarial_scenarios`` the fault, traffic, shard and signature
  presets.

* :class:`TreeScenario` — a pure BlockTree workload generator for the
  fork-choice engine: 10k–1M-block deterministic block streams with
  parameterized fork rates, selfish-mining fork shapes, sibling bursts
  and heavy-tailed weights.  These feed ``BlockTree.add_block`` directly
  (no network) and are what the perf benches grow and read.
"""

from __future__ import annotations

import os
import random
from collections import deque
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro._util import prf_uint64
from repro.blocktree.block import GENESIS, Block, creator_name, make_block
from repro.blocktree.tree import BlockTree
from repro.storage import STORE_KINDS, open_store
from repro.storage.base import BlockStore
from repro.workloads.traffic import (
    ClientTrafficScenario,
    shard_traffic_presets,
    traffic_presets,
)

__all__ = [
    "GOSSIP_TAG",
    "derive_seed",
    "ProtocolScenario",
    "PartitionWindow",
    "ChurnEvent",
    "CrashEvent",
    "JoinEvent",
    "EclipseEvent",
    "TrafficBurst",
    "ClientTrafficScenario",
    "TreeScenario",
    "default_scenarios",
    "adversarial_scenarios",
    "traffic_presets",
    "tree_scenarios",
    "skewed_merits",
]

#: Message tag used by block flooding in :mod:`repro.protocols.base`.
#: Defined here so fault matchers can recognize gossip without importing
#: the protocol layer (which imports this module).
GOSSIP_TAG = "block-gossip"

#: Envelope tag for shard-facet traffic, ``(SHARD_TAG, shard_id, inner)``
#: (see :mod:`repro.shard.node`) — here for the same reason.
SHARD_TAG = "shard"


def derive_seed(seed: int, *context: Union[str, int]) -> int:
    """A seed stream derived from ``seed`` and a context tuple via SHA-256.

    Campaign cells (and per-replica components) must never share an RNG
    stream just because they were configured with the same literal seed:
    ``derive_seed(seed, protocol, scenario, cell_index)`` gives every
    (protocol × scenario × cell) coordinate its own independent stream
    while staying bit-for-bit replayable.  The result is folded into 63
    bits so it round-trips through JSON readers that lack uint64.
    """
    return prf_uint64("seed-stream", seed, *context) >> 1


@dataclass(frozen=True)
class ProtocolScenario:
    """Parameters of one protocol simulation run, faults included (see
    the module docstring)."""

    name: str
    n_nodes: int = 5
    seed: int = 2024
    duration: float = 400.0
    mean_block_interval: float = 20.0
    read_interval: float = 7.0
    channel_delta: float = 1.0
    merits: Optional[Tuple[float, ...]] = None
    tx_per_block: int = 3
    round_length: float = 30.0
    pow_difficulty_bits: int = 0  # 0 disables real hash-puzzle validation
    #: When > 0, ProtocolRun.execute samples a (time, max fork degree,
    #: max height) series at this interval during the run.
    metrics_interval: float = 0.0
    #: Block-store backend per replica: ``"memory"`` (default) or the
    #: durable ``"log"`` — the ``--store`` knob (see :mod:`repro.storage`).
    store: str = "memory"
    #: Directory for the durable per-node store files; required when
    #: ``store`` is not ``"memory"``.  The caller owns (and removes) it.
    store_dir: Optional[str] = None
    #: Open-loop client traffic driving the transaction pipeline.  When
    #: set, replicas run a mempool + block packer (payloads come from
    #: the pool instead of the per-replica synthetic generator) and the
    #: compiled submission schedule is injected during the run.  None
    #: keeps the historical generator path byte-identical.
    traffic: Optional[ClientTrafficScenario] = None
    #: Dissemination transport: ``"flood"`` (forward-once flooding of
    #: full bodies, the historical behavior) or ``"reconcile"``
    #: (Erlay-style lazy block announce/getdata + periodic IBLT set
    #: reconciliation of the transaction pool — see
    #: :mod:`repro.net.reconcile`).  Every preset, fault model and
    #: partition scenario runs unchanged on either transport.
    gossip: str = "flood"
    #: Reconciliation round cadence (simulated seconds) when
    #: ``gossip="reconcile"``; ignored under flooding.
    recon_interval: float = 10.0
    #: Overlay topology nodes gossip over (see :mod:`repro.net.overlay`):
    #: ``"full"`` (the historical clique, byte-identical to pre-overlay
    #: runs), ``"ring"`` or ``"small-world"``.  Quorum protocols relay
    #: their votes multi-hop (:class:`repro.consensus.relay.QuorumRelay`),
    #: so every protocol runs on any of them.
    topology: str = "full"
    #: Per-node link budget for sparse topologies; ignored by ``full``.
    topology_degree: int = 8
    #: Blocks per fast-sync BLOCKS batch (see :mod:`repro.net.sync`;
    #: its request timeout and retry backoff derive from
    #: ``channel_delta``).
    sync_batch: int = 64
    #: Shard count K (see :mod:`repro.shard`).  1 keeps the historical
    #: single-chain pipeline byte-identical; K > 1 runs one BlockTree +
    #: Mempool + UTXOView *facet* per shard on every replica,
    #: with users hashed to shards and cross-shard transfers carried as
    #: two-phase LOCK/COMMIT records in block payloads.
    shards: int = 1
    #: Authenticated pipeline (see :mod:`repro.crypto.auth`): when True,
    #: authoring replicas sign block/transaction content ids and every
    #: receive path verifies before accept/park/relay.  False keeps the
    #: historical unsigned pipeline byte-identical (signatures are
    #: witness data, excluded from content ids, so ids match either way).
    auth: bool = False
    # -- fault structure: every tuple empty is a fault-free run -------------
    partitions: Tuple[PartitionWindow, ...] = ()
    churn: Tuple[ChurnEvent, ...] = ()
    crashes: Tuple[CrashEvent, ...] = ()
    joins: Tuple[JoinEvent, ...] = ()
    eclipses: Tuple[EclipseEvent, ...] = ()
    bursts: Tuple[TrafficBurst, ...] = ()
    #: Miners whose own blocks gossip :attr:`SELFISH_EXTRA_DELAY` late.
    selfish_nodes: Tuple[str, ...] = ()
    #: Byzantine replica assignments: ``(node name, adversary kind)``
    #: pairs substituting the node's class at registration (see
    #: ``repro.protocols.byzantine.ADVERSARY_KINDS``).  The signature
    #: adversaries (forged-signature / equivocating-signer /
    #: stolen-identity) are meaningful with ``auth=True`` — running them
    #: unsigned demonstrates the attack succeeding.
    byzantine: Tuple[Tuple[str, str], ...] = ()

    #: How much later than honest gossip a selfish miner's own blocks
    #: leave it (simulated seconds).
    SELFISH_EXTRA_DELAY = 18.0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Reject structurally impossible parameter sets."""
        if not self.name:
            raise ValueError("scenario needs a name")
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if self.duration < 0:
            # duration == 0 is a legal degenerate run: nothing is produced.
            raise ValueError("duration must be >= 0")
        if self.mean_block_interval <= 0 or self.read_interval <= 0:
            raise ValueError("intervals must be positive")
        if self.round_length <= 0:
            raise ValueError("round_length must be positive")
        if self.channel_delta <= 0:
            raise ValueError("channel_delta must be positive")
        if self.tx_per_block < 0:
            raise ValueError("tx_per_block must be >= 0")
        if self.metrics_interval < 0:
            raise ValueError("metrics_interval must be >= 0")
        if self.merits is not None:
            if len(self.merits) != self.n_nodes:
                raise ValueError(
                    f"merits has {len(self.merits)} entries for {self.n_nodes} nodes"
                )
            if any(m < 0 for m in self.merits):
                raise ValueError("merits must be non-negative")
        if self.store not in STORE_KINDS:
            raise ValueError(
                f"unknown store {self.store!r}; expected one of "
                f"{sorted(STORE_KINDS)} (the directory goes in store_dir, "
                "or --workdir for a campaign)"
            )
        if self.store != "memory" and self.store_dir is None:
            raise ValueError(
                f"store {self.store!r} needs a directory: set store_dir "
                "(--workdir for a campaign)"
            )
        from repro.net.overlay import TOPOLOGY_KINDS
        from repro.net.reconcile import GOSSIP_KINDS

        if self.gossip not in GOSSIP_KINDS:
            raise ValueError(
                f"unknown gossip {self.gossip!r}; expected one of {GOSSIP_KINDS}"
            )
        if self.recon_interval <= 0:
            raise ValueError("recon_interval must be positive")
        if self.topology not in TOPOLOGY_KINDS:
            raise ValueError(
                f"unknown topology {self.topology!r}; expected one of {TOPOLOGY_KINDS}"
            )
        if self.topology_degree < 2:
            raise ValueError("topology_degree must be >= 2")
        if self.sync_batch < 1:
            raise ValueError("sync_batch must be >= 1")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.shards > 1:
            if self.store != "memory":
                raise ValueError("sharded runs support the memory store only")
            if self.traffic is None:
                raise ValueError("sharded runs need client traffic")
            if self.traffic.shards != self.shards:
                raise ValueError(
                    f"traffic.shards={self.traffic.shards} disagrees with "
                    f"scenario shards={self.shards}"
                )
        names = self.node_names()
        seen_byz = set()
        if self.byzantine:
            # Imported here: the protocol layer imports this module.
            from repro.protocols.byzantine import ADVERSARY_KINDS
        for node, kind in self.byzantine:
            if node not in names:
                raise ValueError(f"byzantine node {node!r} is not in the network")
            if kind not in ADVERSARY_KINDS:
                raise ValueError(
                    f"unknown byzantine kind {kind!r}; expected one of "
                    f"{tuple(ADVERSARY_KINDS)}"
                )
            if node in seen_byz:
                raise ValueError(f"node {node!r} assigned two byzantine kinds")
            seen_byz.add(node)
        if self.byzantine and self.shards > 1:
            raise ValueError("byzantine replicas are not supported in sharded runs")
        for partition in self.partitions:
            partition.validate(names)
        lifecycle = (*self.churn, *self.crashes, *self.joins, *self.eclipses)
        for event in lifecycle:
            event.validate(names)
        # One replica cannot be in two lifecycle states at once: its
        # churn/crash/join/eclipse windows must not overlap each other.
        by_node: Dict[str, List[Tuple[float, Optional[float]]]] = {}
        for event in lifecycle:
            by_node.setdefault(event.node, []).append(event.window())
        for node, windows in by_node.items():
            windows.sort(key=lambda w: w[0])
            for (_s1, e1), (s2, _e2) in zip(windows, windows[1:]):
                if e1 is None or s2 < e1:
                    raise ValueError(
                        f"overlapping lifecycle windows for node {node!r}"
                    )
        for burst in self.bursts:
            burst.validate()
        for node in self.selfish_nodes:
            if node not in names:
                raise ValueError(f"selfish node {node!r} is not in the network")

    def merit_of(self, index: int) -> float:
        """The merit α of node ``index`` (uniform when unspecified)."""
        if self.merits is not None:
            return self.merits[index]
        return 1.0 / self.n_nodes

    def node_names(self) -> Tuple[str, ...]:
        """The node identities ``p0 … p(n-1)``."""
        return tuple(f"p{i}" for i in range(self.n_nodes))

    def shard_members(self) -> Dict[int, Tuple[str, ...]]:
        """shard id → names of the replicas running that shard's chain:
        every replica runs every shard (name-sorted when ``shards > 1``;
        a single chain is shard 0 in :meth:`node_names` order)."""
        names = self.node_names()
        if self.shards > 1:
            names = tuple(sorted(names))
        return {k: names for k in range(self.shards)}

    # -- authenticated pipeline ---------------------------------------------

    def auth_signers(self) -> Tuple[str, ...]:
        """Every identity holding a key in this scenario's PKI.

        Replicas sign the blocks they author; traffic clients (and the
        spam adversary's namespace) sign the transactions they issue.
        Registering a key costs nothing for identities that never sign,
        so the spammer is always included when traffic is configured.
        """
        signers = list(self.node_names())
        if self.traffic is not None:
            signers.extend(self.traffic.client_names())
            signers.append("spammer")
        return tuple(signers)

    def build_auth(self, counts: Optional[Dict[str, int]] = None):
        """A fresh :class:`~repro.crypto.auth.BlockAuthenticator` for one
        replica, counting into ``counts``, or ``None`` when the scenario
        runs unsigned.

        Keys derive from ``(seed, owner)`` only, so every replica — and
        every shard facet built from a facet-scoped scenario copy with
        the same seed — reconstructs the identical PKI independently.
        """
        if not self.auth:
            return None
        from repro.crypto.auth import BlockAuthenticator, build_registry

        return BlockAuthenticator(
            build_registry(self.seed, self.auth_signers()), counts=counts
        )

    def byzantine_map(self) -> Dict[str, str]:
        """Node name → adversary kind (empty for fault-free scenarios)."""
        return dict(self.byzantine)

    def block_interval_at(self, now: float) -> float:
        """Mean block interval in effect at simulated time ``now``
        (compressed by every burst active then)."""
        interval = self.mean_block_interval
        for burst in self.bursts:
            if burst.active(now):
                interval /= burst.factor
        return interval

    def for_cell(self, protocol: str, cell_index: int) -> "ProtocolScenario":
        """This scenario re-seeded for one campaign cell.

        The cell's seed is ``derive_seed(seed, protocol, name, index)``,
        so two cells differing in any coordinate — including only the
        index — draw disjoint RNG streams, while re-expanding the same
        grid replays every cell identically.
        """
        return replace(
            self, seed=derive_seed(self.seed, protocol, self.name, cell_index)
        )

    def build_channel(self) -> Tuple[Any, Dict[str, Any]]:
        """Compile the fault structure into a channel stack.

        Returns ``(channel, faults)`` where ``faults`` holds the live
        adversary objects (their drop/delay counters are inspectable
        after the run through ``ProtocolRun.faults``).  A fault-free
        scenario gets a bare ``SynchronousChannel`` and ``{}``.
        """
        from repro.net.channels import DelayedChannel, LossyChannel, SynchronousChannel

        channel: Any = SynchronousChannel(delta=self.channel_delta)
        faults: Dict[str, Any] = {}
        if self.partitions or self.churn or self.eclipses:
            drop = self._drop_rule(faults)
            channel = LossyChannel(inner=channel, should_drop=drop)
        if self.selfish_nodes:
            from repro.net.reconcile import RECON_BLK_ANN, RECON_BLK_DATA

            selfish = set(self.selfish_nodes)

            def _creator_is(block: Any, src: str) -> bool:
                return isinstance(block, Block) and creator_name(block) == src

            def withholds(src: str, dst: str, message: Any, now: float) -> bool:
                # Withhold only the miner's *own* blocks: forwarded
                # honest blocks flow normally, which is what a selfish
                # miner does.  Under reconciliation the miner's block
                # leaves through an announcement or a segment transfer
                # instead of a flooded body — both are matched here.
                if src not in selfish:
                    return False
                if isinstance(message, tuple) and message[:1] == (SHARD_TAG,):
                    message = message[-1]  # facet traffic: match the inner message
                if not (isinstance(message, tuple) and message):
                    return False
                tag = message[0]
                if tag == GOSSIP_TAG and len(message) == 3:
                    return _creator_is(message[2], src)
                if tag == RECON_BLK_ANN and len(message) == 4:
                    return message[3] == src
                if tag == RECON_BLK_DATA and len(message) == 2:
                    return any(_creator_is(b, src) for b in message[1])
                return False

            channel = DelayedChannel(
                inner=channel,
                should_delay=withholds,
                extra_delay=self.SELFISH_EXTRA_DELAY,
            )
            faults["selfish"] = channel
        return channel, faults

    def _drop_rule(self, faults: Dict[str, Any]) -> Any:
        """One drop rule over the partition, churn and eclipse
        adversaries, each also put in ``faults`` under its kind.  Called
        only when one is configured, so a fault-free run never imports
        :mod:`repro.net.faults`."""
        from repro.net.faults import (
            ChurnAdversary,
            CompositeDrop,
            EclipseAdversary,
            PartitionAdversary,
        )

        rules: List[Any] = []
        if self.partitions:
            adversaries = tuple(
                PartitionAdversary(
                    groups=tuple(frozenset(g) for g in window.groups),
                    heal_at=window.heal_at,
                    start_at=window.start,
                )
                for window in self.partitions
            )
            faults["partitions"] = adversaries
            rules.extend(adversaries)
        if self.churn:
            churn = ChurnAdversary(
                windows=tuple((e.node, e.leave_at, e.rejoin_at) for e in self.churn)
            )
            faults["churn"] = churn
            rules.append(churn)
        if self.eclipses:
            adversaries = tuple(
                EclipseAdversary(victim=e.node, start_at=e.start, heal_at=e.heal_at)
                for e in self.eclipses
            )
            faults["eclipses"] = adversaries
            rules.extend(adversaries)
        return rules[0] if len(rules) == 1 else CompositeDrop(rules=tuple(rules))

    def build_overlay(self):
        """The :class:`~repro.net.overlay.Overlay` for this scenario.

        ``None`` for ``topology="full"``: the network's legacy all-pairs
        path is then taken verbatim, keeping historical runs
        byte-identical.  Sparse topologies derive deterministically from
        ``(seed, topology, degree)`` so a cell's overlay replays
        bit-for-bit.
        """
        if self.topology == "full":
            return None
        from repro.net.overlay import build_overlay

        return build_overlay(
            self.topology,
            self.node_names(),
            seed=derive_seed(self.seed, "overlay", self.topology),
            degree=self.topology_degree,
        )

    # -- node lifecycle ------------------------------------------------------

    def lifecycle_schedule(self) -> Tuple[Tuple[float, str, str], ...]:
        """``(time, action, node)`` lifecycle events, time-ordered.

        Actions are the :meth:`repro.protocols.base.BlockchainNode
        .apply_lifecycle` verbs: churn suspends/resumes (RAM survives
        the outage), crashes lose RAM and recover from the store, joins
        bring an initially-offline replica up, and eclipse heals trigger
        a fast-sync (the victim was never suspended — only filtered).
        Empty for a fault-free scenario.
        """
        events: List[Tuple[float, str, str]] = []
        for e in self.churn:
            events.append((e.leave_at, "suspend", e.node))
            if e.rejoin_at is not None:
                events.append((e.rejoin_at, "resume", e.node))
        for c in self.crashes:
            events.append((c.at, "crash", c.node))
            events.append((c.recover_at, "recover", c.node))
        for j in self.joins:
            events.append((j.at, "join", j.node))
        for ecl in self.eclipses:
            if ecl.heal_at is not None:
                events.append((ecl.heal_at, "heal", ecl.node))
        return tuple(sorted(events))

    def initially_offline(self) -> frozenset:
        """Nodes that start suspended: the late joiners."""
        return frozenset(j.node for j in self.joins)

    # -- storage knob -------------------------------------------------------

    def build_store(self, node_name: str) -> BlockStore:
        """Open the block store one replica's tree persists through.

        ``"memory"`` costs nothing; the log store gets one file per node
        under ``store_dir``, so replicas never share a log.
        """
        if self.store == "memory":
            return open_store("memory")
        return open_store(
            self.store, path=os.path.join(self.store_dir, f"{node_name}.btlog")
        )


# -- adversarial fault structure --------------------------------------------------


@dataclass(frozen=True)
class PartitionWindow:
    """A network split into ``groups`` from ``start`` until ``heal_at``.

    ``heal_at=None`` never heals (the permanent-partition environment).
    """

    groups: Tuple[Tuple[str, ...], ...]
    start: float = 0.0
    heal_at: Optional[float] = None

    def validate(self, node_names: Tuple[str, ...]) -> None:
        if len(self.groups) < 2:
            raise ValueError("a partition needs at least two groups")
        seen: set = set()
        for group in self.groups:
            for node in group:
                if node not in node_names:
                    raise ValueError(f"partition references unknown node {node!r}")
                if node in seen:
                    raise ValueError(f"node {node!r} appears in two partition groups")
                seen.add(node)
        if self.heal_at is not None and self.heal_at <= self.start:
            raise ValueError("partition must heal after it starts")


@dataclass(frozen=True)
class ChurnEvent:
    """Node ``node`` is offline from ``leave_at`` until ``rejoin_at``.

    While offline the node is suspended — its timers do not fire, it
    produces no blocks, and every message to or from it is lost (the
    channel-level :class:`~repro.net.faults.ChurnAdversary` still
    filters, so in-flight traffic is counted as churn drops).  On
    rejoin the node resumes with its pre-outage RAM state and fast-syncs
    the gap.  ``rejoin_at=None`` means the node never comes back.
    """

    node: str
    leave_at: float
    rejoin_at: Optional[float] = None

    def validate(self, node_names: Tuple[str, ...]) -> None:
        if self.node not in node_names:
            raise ValueError(f"churn references unknown node {self.node!r}")
        if self.leave_at < 0:
            raise ValueError("leave_at must be >= 0")
        if self.rejoin_at is not None and self.rejoin_at <= self.leave_at:
            raise ValueError("rejoin must happen after leave")

    def window(self) -> Tuple[float, Optional[float]]:
        return (self.leave_at, self.rejoin_at)


@dataclass(frozen=True)
class CrashEvent:
    """Node ``node`` crashes at ``at`` and recovers at ``recover_at``.

    A crash loses all in-RAM state (tree indices, orphan buffers, dedup
    sets, mempool); recovery reopens the node's pluggable block store,
    replays it into a fresh tree, and fast-syncs the gap from peers.
    With the default in-memory store nothing survives, so recovery is a
    full resync — the degenerate case, still correct.  Use a
    :class:`ChurnEvent` with ``rejoin_at=None`` for crash-*stop*.
    """

    node: str
    at: float
    recover_at: float

    def validate(self, node_names: Tuple[str, ...]) -> None:
        if self.node not in node_names:
            raise ValueError(f"crash references unknown node {self.node!r}")
        if self.at < 0:
            raise ValueError("crash time must be >= 0")
        if self.recover_at <= self.at:
            raise ValueError("recovery must happen after the crash")

    def window(self) -> Tuple[float, Optional[float]]:
        return (self.at, self.recover_at)


@dataclass(frozen=True)
class JoinEvent:
    """Node ``node`` joins the network at ``at`` with an empty store.

    The replica is registered from the start (the membership set is
    static, matching the paper's Π) but stays suspended until ``at``:
    no timers, no mining, no traffic.  On join it fast-syncs the whole
    chain from its peers, then participates normally.
    """

    node: str
    at: float

    def validate(self, node_names: Tuple[str, ...]) -> None:
        if self.node not in node_names:
            raise ValueError(f"join references unknown node {self.node!r}")
        if self.at < 0:
            raise ValueError("join time must be >= 0")

    def window(self) -> Tuple[float, Optional[float]]:
        return (0.0, self.at)


@dataclass(frozen=True)
class EclipseEvent:
    """Node ``node`` is eclipsed from ``start`` until ``heal_at``.

    Unlike churn the victim keeps running — it mines on its own
    diverging view while every message crossing its links is filtered
    (:class:`~repro.net.faults.EclipseAdversary`).  At heal the filter
    lifts and the victim fast-syncs the honest majority's chain.
    ``heal_at=None`` never heals.
    """

    node: str
    start: float
    heal_at: Optional[float] = None

    def validate(self, node_names: Tuple[str, ...]) -> None:
        if self.node not in node_names:
            raise ValueError(f"eclipse references unknown node {self.node!r}")
        if self.start < 0:
            raise ValueError("eclipse start must be >= 0")
        if self.heal_at is not None and self.heal_at <= self.start:
            raise ValueError("eclipse must heal after it starts")

    def window(self) -> Tuple[float, Optional[float]]:
        return (self.start, self.heal_at)


@dataclass(frozen=True)
class TrafficBurst:
    """Block production accelerated by ``factor`` during a window."""

    at: float
    duration: float
    factor: float = 4.0

    def validate(self) -> None:
        if self.at < 0:
            raise ValueError("burst start must be >= 0")
        if self.duration <= 0:
            raise ValueError("burst duration must be positive")
        if self.factor <= 0:
            raise ValueError("burst factor must be positive")

    def active(self, now: float) -> bool:
        return self.at <= now < self.at + self.duration


#: A second name for :class:`ProtocolScenario`, for callers that import
#: it under this one.
AdversarialScenario = ProtocolScenario


def skewed_merits(n_nodes: int, exponent: float = 1.2, seed: int = 0) -> Tuple[float, ...]:
    """A Zipf-skewed merit distribution, shuffled deterministically.

    ``merit_i ∝ 1/rank^exponent`` normalized to sum to 1 — the
    heterogeneous hash-power environment where one miner dominates.
    """
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    if exponent < 0:
        raise ValueError("exponent must be >= 0")
    raw = [1.0 / (rank ** exponent) for rank in range(1, n_nodes + 1)]
    rng = random.Random(seed)
    rng.shuffle(raw)
    total = sum(raw)
    return tuple(w / total for w in raw)


# -- tree-scale workloads -----------------------------------------------------------


@dataclass(frozen=True)
class TreeScenario:
    """A deterministic large-scale BlockTree workload (no network).

    ``blocks()`` yields ``n_blocks`` blocks in parent-before-child order
    drawn from a seeded RNG, shaped by:

    * ``fork_rate``/``fork_window`` — probability that an honest block
      attaches to a random recent block instead of the tip, and how far
      back it may reach;
    * ``selfish_lead``/``selfish_power`` — a withholding adversary that
      grows a private branch with probability ``selfish_power`` per slot
      and overtakes the public chain whenever its lead reaches
      ``selfish_lead`` (the classic selfish-mining fork shape);
    * ``burst_every``/``burst_width`` — every ``burst_every``-th slot
      emits ``burst_width`` sibling blocks under the same parent (bushy
      GHOST stress, the burst-traffic shape);
    * ``weight_profile`` — ``unit``, ``exponential`` or ``heavytail``
      block weights (skewed work distributions).

    Scenarios scale from 10k to 1M+ blocks: ``at_scale`` rescales
    ``n_blocks`` without touching the shape parameters.
    """

    name: str
    n_blocks: int
    seed: int = 2024
    fork_rate: float = 0.0
    fork_window: int = 8
    weight_profile: str = "unit"
    selfish_lead: int = 0
    selfish_power: float = 0.35
    burst_every: int = 0
    burst_width: int = 4

    _WEIGHT_PROFILES = ("unit", "exponential", "heavytail")

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if not self.name:
            raise ValueError("scenario needs a name")
        if self.n_blocks < 1:
            raise ValueError("n_blocks must be >= 1")
        if not 0.0 <= self.fork_rate <= 1.0:
            raise ValueError("fork_rate must be in [0, 1]")
        if self.fork_window < 1:
            raise ValueError("fork_window must be >= 1")
        if self.weight_profile not in self._WEIGHT_PROFILES:
            raise ValueError(
                f"unknown weight_profile {self.weight_profile!r}; "
                f"expected one of {self._WEIGHT_PROFILES}"
            )
        if self.selfish_lead < 0:
            raise ValueError("selfish_lead must be >= 0")
        if self.selfish_lead and not 0.0 < self.selfish_power < 1.0:
            raise ValueError("selfish_power must be in (0, 1)")
        if self.burst_every < 0:
            raise ValueError("burst_every must be >= 0")
        if self.burst_every and self.burst_width < 1:
            raise ValueError("burst_width must be >= 1 when bursts are enabled")

    def at_scale(self, n_blocks: int) -> "TreeScenario":
        """The same workload shape at a different block count."""
        return replace(self, n_blocks=n_blocks, name=f"{self.name}@{n_blocks}")

    def for_cell(self, cell_index: int) -> "TreeScenario":
        """The same workload re-seeded for one campaign cell (see
        :meth:`ProtocolScenario.for_cell`)."""
        return replace(self, seed=derive_seed(self.seed, "tree", self.name, cell_index))

    def _weight(self, rng: random.Random) -> float:
        if self.weight_profile == "unit":
            return 1.0
        if self.weight_profile == "exponential":
            return rng.expovariate(1.0)
        return rng.paretovariate(2.0)

    def blocks(self) -> Iterator[Block]:
        """Yield the workload's blocks (deterministic per seed)."""
        rng = random.Random(self.seed)
        heights: Dict[str, int] = {GENESIS.block_id: 0}
        recent: deque = deque([GENESIS], maxlen=self.fork_window)
        public_tip = GENESIS
        private_tip: Optional[Block] = None
        emitted = 0

        def emit(parent: Block, tag: str, creator: int) -> Block:
            nonlocal emitted
            block = make_block(
                parent,
                label=f"{self.name}/{tag}{emitted}",
                creator=creator,
                weight=self._weight(rng),
            )
            heights[block.block_id] = heights[parent.block_id] + 1
            emitted += 1
            return block

        while emitted < self.n_blocks:
            if self.selfish_lead and rng.random() < self.selfish_power:
                base = private_tip if private_tip is not None else public_tip
                block = emit(base, "a", creator=-1)
                private_tip = block
                yield block
                if (
                    heights[private_tip.block_id]
                    >= heights[public_tip.block_id] + self.selfish_lead
                ):
                    # Reveal: the private branch overtakes and becomes public.
                    public_tip = private_tip
                    private_tip = None
                    recent.append(public_tip)
                continue
            if self.burst_every and emitted and emitted % self.burst_every == 0:
                parent = public_tip
                for _ in range(min(self.burst_width, self.n_blocks - emitted)):
                    block = emit(parent, "b", creator=1)
                    yield block
                    recent.append(block)
                    if heights[block.block_id] > heights[public_tip.block_id]:
                        public_tip = block
                continue
            if self.fork_rate and len(recent) > 1 and rng.random() < self.fork_rate:
                parent = recent[rng.randrange(len(recent))]
            else:
                parent = public_tip
            block = emit(parent, "h", creator=0)
            yield block
            recent.append(block)
            if heights[block.block_id] > heights[public_tip.block_id]:
                public_tip = block

    def build(
        self,
        tree: Optional[BlockTree] = None,
        on_block: Optional[Callable[[BlockTree, Block], None]] = None,
        store: Optional[BlockStore] = None,
    ) -> BlockTree:
        """Grow ``tree`` (a fresh one by default) with the workload.

        ``on_block(tree, block)`` runs after every insertion — the perf
        benches use it to interleave reads with growth.  ``store`` is the
        fresh tree's backend; it cannot be combined with an explicit
        ``tree``.
        """
        if tree is not None and store is not None:
            raise ValueError("pass a store or an existing tree, not both")
        if tree is None:
            tree = BlockTree(store=store)
        for block in self.blocks():
            tree.add_block(block)
            if on_block is not None:
                on_block(tree, block)
        return tree


# -- registries ---------------------------------------------------------------------


def default_scenarios() -> Dict[str, ProtocolScenario]:
    """The standard per-protocol scenarios used by the Table 1 bench —
    the one home of each protocol's parameters, in the paper's row order
    (the order of ``repro.protocols.classify.RUNNERS``)."""
    return {
        "bitcoin": ProtocolScenario(
            name="bitcoin", mean_block_interval=10.0, channel_delta=3.0
        ),
        "ethereum": ProtocolScenario(
            name="ethereum", mean_block_interval=6.0, channel_delta=3.0
        ),
        "algorand": ProtocolScenario(name="algorand", round_length=25.0),
        "byzcoin": ProtocolScenario(name="byzcoin", mean_block_interval=25.0),
        "peercensus": ProtocolScenario(name="peercensus", mean_block_interval=25.0),
        "redbelly": ProtocolScenario(name="redbelly", round_length=30.0, n_nodes=4),
        "hyperledger": ProtocolScenario(name="hyperledger", round_length=15.0),
    }


def adversarial_scenarios(
    n_nodes: int = 4, duration: float = 240.0
) -> Dict[str, ProtocolScenario]:
    """The adversarial workload matrix (small enough for smoke runs).

    Every entry exercises one fault axis; compose them freely with
    ``dataclasses.replace`` for mixed adversaries.
    """
    half = n_nodes // 2
    names = tuple(f"p{i}" for i in range(n_nodes))
    presets = traffic_presets()
    shard_presets = shard_traffic_presets(duration, n_shards=4)

    def preset(
        name: str, mean_block_interval: float = 12.0, **axis: Any
    ) -> ProtocolScenario:
        """What every entry shares: size, horizon, tempo and a 24-point
        fork-degree/height series — plus its one fault ``axis``."""
        return ProtocolScenario(
            name=name,
            n_nodes=n_nodes,
            duration=duration,
            mean_block_interval=mean_block_interval,
            metrics_interval=duration / 24,
            **axis,
        )

    entries = (
        preset(
            "partition-heal",
            partitions=(
                PartitionWindow(
                    groups=(names[:half], names[half:]),
                    start=duration * 0.25,
                    heal_at=duration * 0.6,
                ),
            ),
        ),
        preset(
            "node-churn",
            churn=(
                ChurnEvent(node=names[-1], leave_at=duration * 0.2, rejoin_at=duration * 0.5),
                ChurnEvent(node=names[0], leave_at=duration * 0.6, rejoin_at=duration * 0.8),
            ),
        ),
        preset(
            "selfish-miner",
            mean_block_interval=10.0,
            # p0 gets the dominant share: a selfish miner below ~25%
            # merit barely forks, which would make this entry toothless.
            merits=tuple(sorted(skewed_merits(n_nodes, exponent=1.0, seed=7), reverse=True)),
            selfish_nodes=(names[0],),
        ),
        preset(
            "skewed-merit",
            mean_block_interval=10.0,
            merits=skewed_merits(n_nodes, exponent=1.6, seed=11),
        ),
        preset(
            "burst-traffic",
            mean_block_interval=16.0,
            bursts=(
                TrafficBurst(at=duration * 0.3, duration=duration * 0.2, factor=6.0),
            ),
        ),
        # Node-lifecycle presets (see repro.net.sync): a replica drops
        # out of the run — losing RAM, joining late, or mining eclipsed
        # on a stale view — and must end Strong-Prefix-consistent with
        # the majority after fast-syncing the gap.
        preset(
            "crash-rejoin",
            crashes=(
                CrashEvent(
                    node=names[-1], at=duration * 0.3, recover_at=duration * 0.6
                ),
            ),
        ),
        preset("late-join", joins=(JoinEvent(node=names[-1], at=duration * 0.5),)),
        preset(
            "eclipse-heal",
            eclipses=(
                EclipseEvent(
                    node=names[-1], start=duration * 0.25, heal_at=duration * 0.6
                ),
            ),
        ),
        # Transaction-pipeline presets: client traffic drives the
        # mempool/gossip/packer path (see repro.mempool).  The fault-free
        # steady workload is the throughput baseline; the spam flood
        # stresses duplicate filtering, double-spend rejection and
        # bounded-capacity eviction on every replica.
        preset("client-steady", traffic=presets["steady"]),
        preset("spam-flood", traffic=presets["spam-flood"]),
        # Sharded-pipeline presets (see repro.shard): K=4 shard facets
        # per replica, 5% cross-shard two-phase transfers.  shard-hot
        # drives one shard at 4× the per-shard rate with regionally
        # skewed ingress — the hot-shard capacity stress.
        preset("shard-uniform", shards=4, traffic=shard_presets["shard-uniform"]),
        preset("shard-hot", shards=4, traffic=shard_presets["shard-hot"]),
        # Authenticated-pipeline presets (see repro.crypto.auth): one
        # Byzantine replica mounts an attack only signature checking can
        # defeat — the PoW predicate, double-spend rules and lifecycle
        # machinery all accept its blocks.  The gate (benchmarks/
        # test_bench_auth.py) asserts zero adversary-authored blocks in
        # any honest replica's committed chain.
        preset(
            "forged-signature",
            auth=True,
            byzantine=((names[-1], "forged-signature"),),
        ),
        preset(
            "equivocating-signer",
            auth=True,
            # The equivocator gets the dominant merit share so its rival
            # pairs actually land on honest tips often enough to matter.
            merits=tuple(
                sorted(skewed_merits(n_nodes, exponent=1.0, seed=13), reverse=True)
            ),
            byzantine=((names[0], "equivocating-signer"),),
        ),
        preset(
            "stolen-identity",
            auth=True,
            byzantine=((names[-1], "stolen-identity"),),
        ),
    )
    return {entry.name: entry for entry in entries}


def tree_scenarios() -> Dict[str, TreeScenario]:
    """The tree-workload matrix for the fork-choice engine benches.

    Registry sizes are the 10k tier; use ``at_scale(100_000)`` /
    ``at_scale(1_000_000)`` for the larger tiers — generation is O(n)
    and deterministic per seed at any scale.
    """
    return {
        "linear-10k": TreeScenario(name="linear-10k", n_blocks=10_000),
        "forky-10k": TreeScenario(
            name="forky-10k", n_blocks=10_000, fork_rate=0.08, fork_window=12
        ),
        "selfish-10k": TreeScenario(
            name="selfish-10k", n_blocks=10_000, selfish_lead=3, selfish_power=0.4
        ),
        "bursty-10k": TreeScenario(
            name="bursty-10k", n_blocks=10_000, burst_every=64, burst_width=6
        ),
        "heavytail-10k": TreeScenario(
            name="heavytail-10k",
            n_blocks=10_000,
            fork_rate=0.04,
            weight_profile="heavytail",
        ),
    }
