"""Large-N simulator gates: events/s, bytes/node, topology propagation.

Not a paper figure — these gate the calendar-queue/overlay restructure
and populate ``BENCH_scale.json`` (schema documented in
``docs/benchmarks.md``; regenerated by ``make bench-scale``):

* **events/s gate** — at N=10k, the new stack (calendar-queue
  :class:`~repro.net.simulator.Simulator` + degree-8 small-world
  overlay) must sustain ≥5× the events/s of the pre-PR configuration
  (the retained :class:`~repro.net.reference_queue.HeapSimulator`
  flooding the full clique) on the same gossip workload at the same N.
  Wall-clock rates need CPUs to mean anything, so like bench-campaign
  the assertion is enforced only on hosts with ≥4 CPUs; the measured
  ratio is always recorded and the JSON says enforced or waived.
* **memory gate** (always enforced) — tracemalloc peak per registered
  node at N=10k stays under a fixed byte budget, with lazy membership
  keeping untouched nodes unallocated.
* **propagation percentiles** (always enforced) — p50/p90/p99 gossip
  propagation latency on ring, small-world, geo and skip-graph overlays,
  with every message reaching every node (coverage 1.0).
* **campaign determinism gate** (always enforced) — a 1k-node
  small-world bitcoin campaign cell classifies SC/EC byte-identically
  when the grid runs serially vs on a 2-worker pool.

``BENCH_SCALE_N`` rescales the big-N experiments (the committed JSON is
the N=10000 run); ``BENCH_SCALE_DURATION`` caps the 1k-node campaign
cell's simulated duration.
"""

import json
import os
import statistics
import time
import tracemalloc

from repro._util import prf_uint64
from repro.campaign import CampaignGrid, run_campaign
from repro.net.channels import SynchronousChannel
from repro.net.overlay import build_overlay
from repro.net.process import Network, SimProcess
from repro.net.reference_queue import HeapSimulator
from repro.net.simulator import Simulator

_RESULTS = {"bench": "scale"}
_JSON_PATH = "BENCH_scale.json"
_N = int(os.environ.get("BENCH_SCALE_N", "10000"))
_DURATION = float(os.environ.get("BENCH_SCALE_DURATION", "240"))
#: Executed-event budget for the new-stack throughput measurement.
_EVENT_BUDGET = int(os.environ.get("BENCH_SCALE_EVENTS", "150000"))
#: The flood baseline pays O(N) sends per delivery, so it gets a smaller
#: budget — events/s is a rate, so the comparison stays apples-to-apples.
_BASELINE_BUDGET = int(os.environ.get("BENCH_SCALE_BASELINE_EVENTS", "600"))

_SPEEDUP_GATE = 5.0
_BYTES_PER_NODE_GATE = 4096
_DEGREE = 8
#: Wall-clock rates on a starved host measure the neighbours, not the
#: engine (same policy as bench-campaign's speedup gate).
_GATE_ENFORCED = (os.cpu_count() or 1) >= 4


class ScaleGossipNode(SimProcess):
    """Minimal forward-once gossip node (``__slots__``, no protocol).

    Relays each message id on first receipt and records its arrival
    time, which is all the throughput and propagation measurements need.
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


def _build(sim_cls, n, topology, seed=2024, lazy=True):
    """One gossip fleet: ``topology=None`` is the legacy full flood."""
    names = [f"s{i:05d}" for i in range(n)]
    sim = sim_cls(seed=seed)
    overlay = None
    if topology is not None:
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


def _timed_run(sim, max_events):
    start = time.perf_counter()
    executed = sim.run(max_events=max_events)
    wall = time.perf_counter() - start
    return executed, wall


def test_bench_events_per_sec(report):
    """Gate: new stack ≥5× events/s vs the pre-PR heap flood at N=10k."""
    sim, net, names = _build(Simulator, _N, "small-world")
    _inject(sim, net, names)
    new_events, new_wall = _timed_run(sim, _EVENT_BUDGET)
    new_rate = new_events / new_wall if new_wall > 0 else 0.0

    base_sim, base_net, base_names = _build(HeapSimulator, _N, None, lazy=False)
    _inject(base_sim, base_net, base_names)
    base_events, base_wall = _timed_run(base_sim, _BASELINE_BUDGET)
    base_rate = base_events / base_wall if base_wall > 0 else 0.0

    ratio = new_rate / base_rate if base_rate > 0 else 0.0
    row = {
        "n_nodes": _N,
        "degree": _DEGREE,
        "new_stack": {
            "engine": "calendar",
            "topology": "small-world",
            "events": new_events,
            "wall_s": round(new_wall, 3),
            "events_per_sec": round(new_rate, 1),
            "messages_sent": net.messages_sent,
        },
        "heap_flood_baseline": {
            "engine": "heap",
            "topology": "full",
            "events": base_events,
            "wall_s": round(base_wall, 3),
            "events_per_sec": round(base_rate, 1),
            "messages_sent": base_net.messages_sent,
        },
        "ratio": round(ratio, 1),
        "gate": _SPEEDUP_GATE,
        "cpu_count": os.cpu_count() or 1,
        "gate_enforced": _GATE_ENFORCED,
        "passed": ratio >= _SPEEDUP_GATE,
    }
    report(
        f"Events/s at N={_N}: calendar+small-world vs heap+flood "
        f"(gate: ≥{_SPEEDUP_GATE}×, "
        f"{'enforced' if _GATE_ENFORCED else 'waived: too few CPUs'})",
        json.dumps(row, indent=2),
    )
    assert new_events > 0 and base_events > 0
    if _GATE_ENFORCED:
        assert ratio >= _SPEEDUP_GATE, (
            f"events/s ratio {ratio:.1f}× below the {_SPEEDUP_GATE}× gate"
        )
    _RESULTS["events_per_sec"] = row


def test_bench_resident_bytes_per_node(report):
    """Gate: tracemalloc peak stays under the per-node byte budget."""
    tracemalloc.start()
    before, _ = tracemalloc.get_traced_memory()
    sim, net, names = _build(Simulator, _N, "small-world")
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
        f"(gate: ≤{_BYTES_PER_NODE_GATE} B/node, always enforced)",
        json.dumps(row, indent=2),
    )
    assert per_node <= _BYTES_PER_NODE_GATE, (
        f"{per_node:.0f} B/node exceeds the {_BYTES_PER_NODE_GATE} B/node budget"
    )
    _RESULTS["memory"] = row


def test_bench_propagation_percentiles(report):
    """p50/p90/p99 propagation latency per sparse topology, full coverage."""
    n = max(200, _N // 5)
    n_messages = 10
    rows = []
    for topology in ("ring", "small-world", "geo", "skip-graph"):
        sim, net, names = _build(Simulator, n, topology, lazy=False)
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
    _RESULTS["propagation"] = rows


def test_bench_campaign_1k_small_world(report):
    """Gate: a 1k-node small-world campaign cell is serial≡parallel."""
    grid = CampaignGrid(
        protocols=("bitcoin",),
        scenarios=("partition-heal",),
        seeds=(2024,),
        n_nodes=1000,
        duration=_DURATION,
        topology="small-world",
        topology_degree=_DEGREE,
    )
    serial = run_campaign(grid, workers=1)
    parallel = run_campaign(grid, workers=2)
    identical = serial.to_dict(include_timing=False) == parallel.to_dict(
        include_timing=False
    )
    cells = [
        {
            "protocol": c.protocol,
            "scenario": c.scenario,
            "sc_ok": c.row.sc_ok,
            "ec_ok": c.row.ec_ok,
            "refinement": c.row.measured_refinement,
            "events": c.events,
        }
        for c in serial.cells
    ]
    row = {
        "n_nodes": 1000,
        "topology": "small-world",
        "duration": _DURATION,
        "identical": identical,
        "cells": cells,
    }
    report(
        "1k-node small-world campaign cell (gate: serial ≡ 2-worker matrix)",
        json.dumps(row, indent=2),
    )
    assert identical, "serial and parallel 1k-node matrices diverged"
    _RESULTS["campaign_1k"] = row


def test_emit_bench_json():
    """Write BENCH_scale.json (schema: docs/benchmarks.md)."""
    required = ("events_per_sec", "memory", "propagation", "campaign_1k")
    missing = [key for key in required if key not in _RESULTS]
    assert not missing, (
        f"sections {missing} missing — run the whole file, not a subset"
    )
    payload = dict(_RESULTS, emitted_by="benchmarks/test_bench_scale.py")
    with open(_JSON_PATH, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, ensure_ascii=False)
    assert os.path.getsize(_JSON_PATH) > 0
