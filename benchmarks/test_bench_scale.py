"""Large-N simulator gates: bytes/node and topology propagation.

Not a paper figure — these gate the calendar-queue/overlay stack:

* **memory gate** — tracemalloc peak per registered node at N=10k
  stays under a fixed byte budget, with lazy membership keeping
  untouched nodes unallocated.
* **propagation percentiles** — p50/p90/p99 gossip propagation latency
  on ring and small-world overlays, with every message
  reaching every node (coverage 1.0).

Simulator throughput is measured by ``bench/run.py`` (the
``gossip-smallworld-n1k`` workload), and the small-world campaign cell's
serial ≡ parallel matrix is a tier-1 test (``tests/test_campaign.py``).
"""

import json
import statistics
import tracemalloc

from repro._util import prf_uint64
from repro.net.channels import SynchronousChannel
from repro.net.overlay import build_overlay
from repro.net.process import Network, SimProcess
from repro.net.simulator import Simulator

_N = 10_000
#: Executed-event budget for the bytes/node measurement.
_EVENT_BUDGET = 150_000
_BYTES_PER_NODE_GATE = 4096
_DEGREE = 8


class ScaleGossipNode(SimProcess):
    """Minimal forward-once gossip node (``__slots__``, no protocol).

    Relays each message id on first receipt and records its arrival
    time, which is all the memory and propagation measurements need.
    """

    __slots__ = ("seen", "arrivals")

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.seen = set()
        self.arrivals = {}

    def originate(self, mid, now: float) -> None:
        self.seen.add(mid)
        self.arrivals[mid] = 0.0
        self.broadcast((mid, now))

    def on_message(self, src: str, message) -> None:
        mid, origin_time = message
        if mid in self.seen:
            return
        self.seen.add(mid)
        self.arrivals[mid] = self.now - origin_time
        self.broadcast(message)


def _build(n, topology, seed=2024, lazy=True):
    """One gossip fleet on a ``topology`` overlay."""
    names = [f"s{i:05d}" for i in range(n)]
    sim = Simulator(seed=seed)
    overlay = build_overlay(topology, names, seed=seed, degree=_DEGREE)
    net = Network(sim, channel=SynchronousChannel(delta=1.0), overlay=overlay)
    if lazy:
        for name in names:
            net.register_factory(name, ScaleGossipNode)
    else:
        for name in names:
            net.register(ScaleGossipNode(name))
    return sim, net, names


def _inject(sim, net, names, n_messages=2, spacing=20.0):
    """Schedule ``n_messages`` gossip origins at PRF-chosen nodes."""
    for k in range(n_messages):
        origin = names[prf_uint64("scale-origin", k) % len(names)]
        at = k * spacing

        def fire(origin=origin, k=k, at=at):
            net.node(origin).originate(k, at)

        sim.schedule_at(at, fire)


def test_bench_resident_bytes_per_node(report):
    """Gate: tracemalloc peak stays under the per-node byte budget."""
    tracemalloc.start()
    before, _ = tracemalloc.get_traced_memory()
    sim, net, names = _build(_N, "small-world")
    _inject(sim, net, names)
    sim.run(max_events=_EVENT_BUDGET)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    resident = peak - before
    per_node = resident / _N
    row = {
        "n_nodes": _N,
        "events": sim.events_executed,
        "peak_bytes": resident,
        "bytes_per_node": round(per_node, 1),
        "gate_bytes_per_node": _BYTES_PER_NODE_GATE,
        "materialised_nodes": len(net.processes),
    }
    report(
        f"Resident bytes/node at N={_N} "
        f"(gate: ≤{_BYTES_PER_NODE_GATE} B/node)",
        json.dumps(row, indent=2),
    )
    assert per_node <= _BYTES_PER_NODE_GATE, (
        f"{per_node:.0f} B/node exceeds the {_BYTES_PER_NODE_GATE} B/node budget"
    )


def test_bench_propagation_percentiles(report):
    """p50/p90/p99 propagation latency per sparse topology, full coverage."""
    n = max(200, _N // 5)
    n_messages = 10
    rows = []
    for topology in ("ring", "small-world"):
        sim, net, names = _build(n, topology, lazy=False)
        _inject(sim, net, names, n_messages=n_messages, spacing=1.0)
        sim.run()
        latencies = []
        covered = 0
        for name in names:
            arrivals = net.node(name).arrivals
            covered += len(arrivals)
            latencies.extend(v for v in arrivals.values() if v > 0.0)
        coverage = covered / (n * n_messages)
        latencies.sort()
        q = statistics.quantiles(latencies, n=100)
        rows.append(
            {
                "topology": topology,
                "n_nodes": n,
                "messages": n_messages,
                "degree": _DEGREE,
                "coverage": round(coverage, 6),
                "p50_s": round(q[49], 3),
                "p90_s": round(q[89], 3),
                "p99_s": round(q[98], 3),
                "max_s": round(latencies[-1], 3),
                "events": sim.events_executed,
            }
        )
    report(
        f"Gossip propagation percentiles at N={n} "
        "(gate: coverage == 1.0 on every topology)",
        json.dumps(rows, indent=2),
    )
    for row in rows:
        assert row["coverage"] == 1.0, f"{row['topology']}: incomplete propagation"
        assert row["p50_s"] <= row["p90_s"] <= row["p99_s"]
    # Sanity on shape: the ring's diameter dwarfs the small world's.
    by_topo = {r["topology"]: r for r in rows}
    assert by_topo["ring"]["p99_s"] > by_topo["small-world"]["p99_s"]
