"""Processes and the network binding them (paper §4.2 system model).

``Π = {p1, …, pn}`` processes, each running one protocol instance,
communicating over reliable FIFO authenticated channels (the Bitcoin /
Ethereum model of §5.1–5.2) with configurable synchrony.  Authentication
is structural: ``on_message`` receives the true sender name.  FIFO is
enforced per ordered pair by clamping delivery times.  Crash-stop and
Byzantine behaviours are modelled by :meth:`Network.crash` and by
subclassing :class:`SimProcess` with arbitrary logic, respectively.

Connectivity is an :class:`~repro.net.overlay.Overlay`: ``broadcast``
reaches a node's overlay neighbours, not the whole membership.  The
default (``overlay=None``) is the legacy complete graph, byte-identical
to the pre-overlay behaviour.  At scale, membership is *lazy* —
:meth:`Network.register_factory` records how to build a node without
building it, and the node materialises on first delivery — so a 50k-name
simulation where 1k nodes act allocates O(active) node state.

Every process owns a :class:`~repro.histories.builder.HistoryRecorder`
reference (shared, network-wide) through which it records BT-ADT
operations and the §4.2 replica events.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.histories.builder import HistoryRecorder
from repro.net.channels import DROP, ChannelModel, SynchronousChannel
from repro.net.overlay import Overlay
from repro.net.simulator import Simulator

__all__ = ["SimProcess", "Network"]


class SimProcess:
    """Base class for simulated processes.

    Subclasses override :meth:`on_start`, :meth:`on_message` and
    :meth:`on_timer`.  Helper methods ``send``, ``broadcast``,
    ``call_later`` and ``set_timer`` are available once the process is
    registered with a :class:`Network`.

    The base state lives in ``__slots__`` (part of the large-N hot-class
    sweep); subclasses may still declare ad-hoc attributes — they get a
    ``__dict__`` of their own unless they opt into slots too.
    """

    __slots__ = ("name", "network", "crashed", "offline", "lifecycle_epoch", "__weakref__")

    def __init__(self, name: str) -> None:
        self.name = name
        self.network: Optional[Network] = None
        self.crashed = False
        #: Suspended by a lifecycle fault (crash-recover window, pre-join):
        #: sends no messages, receives none, and its timers do not fire.
        #: Unlike ``crashed`` (crash-*stop*, permanent) this is reversible.
        self.offline = False
        #: Bumped on every suspend/crash so timers armed in a previous
        #: life never fire into a recovered process (their closures
        #: captured the old epoch).
        self.lifecycle_epoch = 0

    # -- lifecycle hooks -------------------------------------------------------

    def on_start(self) -> None:
        """Called once when the simulation starts."""

    def on_message(self, src: str, message: Any) -> None:
        """Called on delivery of ``message`` from ``src``."""

    def on_timer(self, tag: Any) -> None:
        """Called when a timer set via :meth:`set_timer` fires."""

    # -- actions ---------------------------------------------------------------

    def send(self, dst: str, message: Any) -> None:
        """Send ``message`` to ``dst`` over the network's channels."""
        self.network.transmit(self.name, dst, message)

    def broadcast(self, message: Any, include_self: bool = False) -> None:
        """Send ``message`` to every overlay neighbour (optionally to self).

        On the default full overlay this reaches every other process —
        the legacy semantics.  On a sparse overlay it reaches direct
        neighbours only; network-wide dissemination is then the gossip
        layer's job (relay on first receipt), and consensus protocols
        that assume all-to-all vote delivery require the full overlay.
        """
        targets = self.network.neighbors_of(self.name)
        if include_self:
            targets = sorted((*targets, self.name))
        for other in targets:
            self.send(other, message)

    def call_later(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` after ``delay`` — the one timer guard.

        The call dies silently if the process is crashed or offline at
        fire time, or if it suspended or crashed in between (the
        lifecycle epoch moved on): resumed processes re-arm their own
        timers, and stale ones must not double-fire into them.
        """
        epoch = self.lifecycle_epoch

        def fire() -> None:
            if self.crashed or self.offline or self.lifecycle_epoch != epoch:
                return
            fn(*args)

        self.network.simulator.schedule(delay, fire)

    def set_timer(self, delay: float, tag: Any) -> None:
        """Schedule :meth:`on_timer` with ``tag`` after ``delay``."""
        self.call_later(delay, self.on_timer, tag)

    @property
    def now(self) -> float:
        """Simulation time — for logging/metrics only, never protocol logic."""
        return self.network.simulator.now

    def record_instant(self, op_name: str, args: tuple, result: Any = None) -> None:
        """Record an instantaneous replica event (send/receive/update)."""
        self.network.recorder.instant(self.name, op_name, args, result, time=self.now)


class Network:
    """The network connecting processes via a channel model and overlay."""

    def __init__(
        self,
        simulator: Simulator,
        channel: Optional[ChannelModel] = None,
        recorder: Optional[HistoryRecorder] = None,
        fifo: bool = True,
        overlay: Optional[Overlay] = None,
    ) -> None:
        self.simulator = simulator
        self.channel = channel or SynchronousChannel()
        self.recorder = recorder or HistoryRecorder()
        self.fifo = fifo
        #: ``None`` means the legacy complete graph.
        self.overlay = overlay
        self.processes: Dict[str, SimProcess] = {}
        #: Names registered lazily: built by their factory on first use.
        self._factories: Dict[str, Callable[[str], SimProcess]] = {}
        self._names_cache: Optional[Sequence[str]] = None
        self._started = False
        self._last_delivery: Dict[tuple, float] = {}
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0

    # -- membership -------------------------------------------------------------

    def register(self, process: SimProcess) -> SimProcess:
        """Add ``process`` to the network."""
        if process.name in self.processes or process.name in self._factories:
            raise ValueError(f"duplicate process name {process.name!r}")
        process.network = self
        self.processes[process.name] = process
        self._names_cache = None
        return process

    def register_factory(self, name: str, factory: Callable[[str], SimProcess]) -> None:
        """Register ``name`` without building its process.

        ``factory(name)`` runs on first touch — first message delivery,
        or an explicit :meth:`node` call — and its ``on_start`` fires at
        that moment if the network has already started.  Nodes that are
        never touched are never allocated, so resident state scales with
        *active* nodes, not registered names.
        """
        if name in self.processes or name in self._factories:
            raise ValueError(f"duplicate process name {name!r}")
        self._factories[name] = factory
        self._names_cache = None

    def node(self, name: str) -> SimProcess:
        """The process named ``name``, materialising it if still lazy."""
        proc = self.processes.get(name)
        if proc is None:
            proc = self._materialize(name)
        return proc

    def _materialize(self, name: str) -> SimProcess:
        factory = self._factories.pop(name)
        proc = factory(name)
        if proc.name != name:
            raise ValueError(f"factory for {name!r} built {proc.name!r}")
        proc.network = self
        self.processes[name] = proc
        if self._started:
            proc.on_start()
        return proc

    def process_names(self) -> Sequence[str]:
        """All registered names (lazy ones included), sorted, cached."""
        if self._names_cache is None:
            if self._factories:
                names = list(self.processes)
                names.extend(self._factories)
                names.sort()
            else:
                names = sorted(self.processes)
            self._names_cache = tuple(names)
        return self._names_cache

    def neighbors_of(self, name: str) -> Sequence[str]:
        """The names ``name``'s broadcasts reach (overlay neighbours)."""
        if self.overlay is None:
            return [n for n in self.process_names() if n != name]
        return self.overlay.neighbors(name)

    def correct_processes(self) -> List[str]:
        """Names of processes that have not crashed.

        A still-lazy node has done nothing, so it cannot have crashed —
        it counts as correct without being materialised.
        """
        processes = self.processes
        return [
            n
            for n in self.process_names()
            if n not in processes or not processes[n].crashed
        ]

    def start(self) -> None:
        """Invoke every *materialised* process's ``on_start`` at time 0.

        Lazy registrations keep their ``on_start`` for the moment they
        materialise — waking 50k nodes at t=0 would defeat laziness.
        """
        self._started = True
        for name in self.process_names():
            proc = self.processes.get(name)
            if proc is not None:
                self.simulator.schedule(0.0, proc.on_start)

    def crash(self, name: str, at: float = 0.0) -> None:
        """Crash-stop ``name`` at simulated time ``at``."""
        def do_crash() -> None:
            self.node(name).crashed = True

        self.simulator.schedule_at(max(at, self.simulator.now), do_crash)

    # -- transmission -----------------------------------------------------------

    def transmit(self, src: str, dst: str, message: Any) -> None:
        """Route one message through the channel model."""
        sender = self.processes[src]
        if sender.crashed or sender.offline:
            return
        self.messages_sent += 1
        simulator = self.simulator
        delay = self.channel.delay(src, dst, message, simulator.rng, simulator.now)
        if delay is DROP:
            self.messages_dropped += 1
            return
        deliver_at = simulator.now + delay
        if self.fifo:
            key = (src, dst)
            floor = self._last_delivery.get(key, 0.0)
            deliver_at = max(deliver_at, floor + 1e-9)
            self._last_delivery[key] = deliver_at
        simulator.schedule_call(deliver_at, self._deliver, src, dst, message)

    def _deliver(self, src: str, dst: str, message: Any) -> None:
        target = self.processes.get(dst)
        if target is None:
            target = self._materialize(dst)
        if target.crashed:
            return
        if target.offline:
            # The wire delivered but nobody is listening: an offline
            # replica loses in-flight traffic (it catches up via sync).
            self.messages_dropped += 1
            return
        self.messages_delivered += 1
        target.on_message(src, message)
