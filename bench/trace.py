"""Span tracing installed from outside the program.

The benchmark may not edit ``src/``, so layer boundaries are wrapped from
here: :data:`BOUNDARIES` declares ``(layer, op, target)`` rows and
:meth:`Tracer.install` rebinds each target (class attributes; module-level
functions in every ``repro`` namespace that looks them up) to a wrapper
that keeps a span stack.  Per span name the tracer accumulates calls,
total time and *self* time (total minus the time its child spans cover),
plus caller→callee edges; raw ``(name, start, end, parent)`` spans are
kept only for the names in :data:`RAW_SPANS`.  Everything stays in memory
until :meth:`Tracer.report` is read at the end of the cell.

A target ending in ``+`` also wraps every loaded subclass that overrides
the attribute, so import the program's modules before installing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Tuple

__all__ = ["BOUNDARIES", "PHASES", "RAW_SPANS", "Tracer", "resolve"]

#: Root spans opened by ``bench/cell.py`` itself; every other span nests
#: inside one of them, so per-span self times sum to the traced cell.
PHASES = ("phase.imports", "phase.build", "phase.judge", "phase.stats")

#: ``(layer, op, "module:Class.method")`` — the span is ``layer.op`` and
#: the module is relative to ``repro``.
BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    ("net.simulator", "run", "net.simulator:Simulator.run"),
    ("net.process", "transmit", "net.process:Network.transmit"),
    ("net.process", "deliver", "net.process:Network._deliver"),
    ("net.channels", "delay", "net.channels:ChannelModel.delay+"),
    ("net.faults", "drop", "net.faults:MessageDropAdversary.__call__"),
    ("net.faults", "drop", "net.faults:PartitionAdversary.__call__"),
    ("net.faults", "drop", "net.faults:ChurnAdversary.__call__"),
    ("net.faults", "drop", "net.faults:EclipseAdversary.__call__"),
    ("net.faults", "drop", "net.faults:CompositeDrop.__call__"),
    ("net.overlay", "build", "net.overlay:build_overlay"),
    ("net.overlay", "neighbors", "net.overlay:Overlay.neighbors+"),
    ("net.reconcile", "on_message", "net.reconcile:GossipTransport.on_message+"),
    ("net.reconcile", "relay", "net.reconcile:GossipTransport.announce+"),
    ("net.reconcile", "relay", "net.reconcile:GossipTransport.relay_block+"),
    ("net.reconcile", "relay", "net.reconcile:GossipTransport.relay_txs+"),
    ("net.reconcile", "wire_size", "net.reconcile:wire_size"),
    ("net.sketch", "build", "net.sketch:BloomFilter.for_items"),
    ("net.sketch", "build", "net.sketch:IBLT.for_items"),
    ("net.sketch", "subtract", "net.sketch:IBLT.subtract"),
    ("net.sketch", "decode", "net.sketch:IBLT.decode"),
    ("util", "prf_uint64", "_util:prf_uint64"),
    ("util", "stable_repr", "_util:stable_repr"),
    ("net.sync", "on_message", "net.sync:SyncManager.on_message"),
    ("net.sync", "start_sync", "net.sync:SyncManager.start_sync"),
    ("protocols.base", "on_gossip", "protocols.base:BlockchainNode.on_gossip"),
    (
        "protocols.base",
        "ingest_txs",
        "protocols.base:BlockchainNode.ingest_gossiped_txs",
    ),
    (
        "protocols.base",
        "ingest_txs",
        "protocols.base:BlockchainNode.submit_transactions",
    ),
    ("protocols.base", "adopt_block", "protocols.base:BlockchainNode.adopt_block"),
    ("protocols.base", "select_chain", "protocols.base:BlockchainNode.select_chain"),
    ("protocols.models", "on_timer", "protocols.base:BlockchainNode.on_timer+"),
    ("blocktree", "add_block", "blocktree.tree:BlockTree.add_block"),
    ("blocktree", "selection", "blocktree.selection:SelectionFunction.select+"),
    ("blocktree", "replay", "blocktree.tree:BlockTree.replay"),
    ("storage", "put", "storage.logstore:AppendOnlyLogStore.put"),
    ("storage", "get", "storage.logstore:AppendOnlyLogStore.get"),
    ("storage", "scan", "storage.logstore:AppendOnlyLogStore.scan"),
    ("mempool", "add_batch", "mempool.pool:Mempool.add_batch"),
    ("mempool", "observe_chain", "mempool.pool:Mempool.observe_chain"),
    ("mempool", "pack", "mempool.packer:BlockPacker.pack"),
    ("mempool", "utxo_sync", "mempool.utxo:UTXOView.sync"),
    ("crypto.auth", "check_block", "crypto.auth:BlockAuthenticator.check_block"),
    ("crypto.auth", "check_tx", "crypto.auth:BlockAuthenticator.check_tx"),
    ("crypto.auth", "sign", "crypto.auth:BlockAuthenticator.sign_block"),
    ("crypto.auth", "sign", "crypto.auth:sign_submissions"),
    ("crypto.auth", "prime_batch", "crypto.auth:BlockAuthenticator.prime_batch"),
    ("consensus.pbft", "on_message", "consensus.pbft:PBFTComponent.on_message"),
    ("consensus.pbft", "on_timer", "consensus.pbft:PBFTComponent.on_timer"),
    (
        "consensus.ordering",
        "on_message",
        "consensus.ordering:OrderingService.on_message",
    ),
    ("consensus.ordering", "on_timer", "consensus.ordering:OrderingService.on_timer"),
    ("consensus.ba_star", "on_message", "consensus.ba_star:BAStarComponent.on_message"),
    ("consensus.ba_star", "on_timer", "consensus.ba_star:BAStarComponent.on_timer"),
    ("consensus.relay", "on_message", "consensus.relay:QuorumRelay.on_message"),
    ("shard.node", "on_message", "shard.node:ShardedNode.on_message"),
    ("shard", "atomicity", "shard.run:ShardedRun.atomicity"),
    ("histories", "record", "histories.builder:HistoryRecorder.record_read"),
    ("histories", "record", "histories.builder:HistoryRecorder.record_append"),
    ("histories", "record", "histories.builder:HistoryRecorder.instant"),
    ("histories", "build", "histories.builder:HistoryRecorder.history"),
    ("consistency", "strong", "consistency.criteria:BTStrongConsistency.check"),
    ("consistency", "eventual", "consistency.criteria:BTEventualConsistency.check"),
    ("consistency", "strong_prefix", "consistency.properties:check_strong_prefix"),
    (
        "workloads.traffic",
        "compile",
        "workloads.traffic:ClientTrafficScenario.compile_submissions",
    ),
    (
        "workloads.traffic",
        "compile",
        "workloads.traffic:ClientTrafficScenario.compile_shard_submissions",
    ),
)

#: Spans rare enough to keep individually (phases, sync sessions, batch
#: priming); everything else is aggregated only.
RAW_SPANS = frozenset(PHASES) | {"net.sync.start_sync", "crypto.auth.prime_batch"}


def resolve(target: str) -> List[Tuple[Any, str]]:
    """The ``(owner, attribute)`` bindings a boundary target names.

    Raises :class:`LookupError` when nothing matches, so a rename in
    ``src/`` fails loudly instead of silently zeroing a layer.
    """
    module_name, _, qualname = target.partition(":")
    with_subclasses = qualname.endswith("+")
    qualname = qualname.rstrip("+")
    module = importlib.import_module(f"repro.{module_name}")
    if "." not in qualname:
        function = getattr(module, qualname, None)
        if function is None:
            raise LookupError(f"{target}: no such function")
        # ``from m import f`` copies the binding: rebind every copy.
        return [
            (mod, name)
            for mod_name, mod in list(sys.modules.items())
            if mod is not None and mod_name.partition(".")[0] == "repro"
            for name, value in list(vars(mod).items())
            if value is function
        ]
    class_name, _, attr = qualname.partition(".")
    cls = getattr(module, class_name, None)
    if cls is None:
        raise LookupError(f"{target}: no such class")
    owners = [cls] if attr in vars(cls) else []
    if with_subclasses:
        pending = list(cls.__subclasses__())
        while pending:
            sub = pending.pop()
            pending.extend(sub.__subclasses__())
            if attr in vars(sub) and sub not in owners:
                owners.append(sub)
    if not owners:
        raise LookupError(f"{target}: {attr!r} is not defined there")
    return [(owner, attr) for owner in owners]


class Tracer:
    """A span stack with per-name call/total/self accumulators."""

    def __init__(self) -> None:
        #: span name → [calls, total ns, ns covered by child spans]
        self.stats: Dict[str, List[int]] = {}
        #: (caller span, callee span) → [calls, total ns]
        self.edges: Dict[Tuple[str, str], List[int]] = {}
        #: raw spans: (name, start ns, end ns, parent name or "")
        self.raw: List[Tuple[str, int, int, str]] = []
        self._stack: List[List[Any]] = []

    # -- span bookkeeping -----------------------------------------------------

    def _close(self, frame: List[Any], start: int, end: int) -> None:
        name = frame[0]
        elapsed = end - start
        stack = self._stack
        stack.pop()
        stat = self.stats[name]
        stat[0] += 1
        stat[1] += elapsed
        stat[2] += frame[1]
        parent = ""
        if stack:
            parent_frame = stack[-1]
            parent = parent_frame[0]
            parent_frame[1] += elapsed
            edge = self.edges.get((parent, name))
            if edge is None:
                self.edges[(parent, name)] = [1, elapsed]
            else:
                edge[0] += 1
                edge[1] += elapsed
        if name in RAW_SPANS:
            self.raw.append((name, start, end, parent))

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Open ``name`` around a block of the benchmark's own code."""
        self.stats.setdefault(name, [0, 0, 0])
        frame = [name, 0]
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(frame, start, time.perf_counter_ns())

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with a ``name`` span around every outermost call.

        A call made while ``name`` is already the innermost open span
        (``stable_repr`` and ``wire_size`` recurse) stays inside that span.
        """
        self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack
        close = self._close
        clock = time.perf_counter_ns

        if inspect.isgeneratorfunction(fn):
            # Time the body between ``next`` calls, not the consumer's.
            @functools.wraps(fn)
            def traced_generator(*args: Any, **kwargs: Any) -> Iterator[Any]:
                iterator = fn(*args, **kwargs)
                while True:
                    frame = [name, 0]
                    stack.append(frame)
                    start = clock()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        close(frame, start, clock())
                    yield item

            return traced_generator

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if stack and stack[-1][0] is name:
                return fn(*args, **kwargs)
            frame = [name, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close(frame, start, clock())

        return traced

    def install(self) -> None:
        """Rebind every :data:`BOUNDARIES` target to its traced wrapper."""
        for layer, op, target in BOUNDARIES:
            name = f"{layer}.{op}"
            for owner, attr in resolve(target):
                original = vars(owner)[attr]
                if isinstance(original, staticmethod):
                    wrapped: Any = staticmethod(self.wrap(name, original.__func__))
                elif isinstance(original, classmethod):
                    wrapped = classmethod(self.wrap(name, original.__func__))
                else:
                    wrapped = self.wrap(name, original)
                setattr(owner, attr, wrapped)

    # -- output ---------------------------------------------------------------

    def report(self) -> Dict[str, Any]:
        """Aggregates in seconds: spans, edges and the raw rare spans."""
        origin = self.raw[0][1] if self.raw else 0
        return {
            "spans": {
                name: {
                    "calls": calls,
                    "total_s": total / 1e9,
                    "self_s": (total - children) / 1e9,
                }
                for name, (calls, total, children) in sorted(self.stats.items())
            },
            "edges": [
                [caller, callee, calls, total / 1e9]
                for (caller, callee), (calls, total) in sorted(self.edges.items())
            ],
            "raw": [
                [name, (start - origin) / 1e9, (end - origin) / 1e9, parent]
                for name, start, end, parent in self.raw
            ],
        }
