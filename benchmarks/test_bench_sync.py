"""Fast-sync gates: catch-up speedup and the lifecycle classification matrix.

Not a paper figure — these gate the frontier-sync subsystem:

* **fast-sync gate** — a replica joining with a 50k-block deficit must
  catch up through the frontier protocol (:mod:`repro.net.sync`) ≥10×
  faster wall-clock than naive gossip replay.  Both paths run in the
  *same* 16-node flood network: the naive baseline re-floods each
  historical block as its own gossip message (the server broadcasts to
  every peer, the joiner adopts and re-relays, every bystander dedups
  the redundant copies — the O(degree) dissemination cost a block
  normally pays once, paid again per replayed block), while fast sync
  pulls point-to-point batched ranges and relays nothing.  The naive
  baseline is timed on an evenly-sized sample and extrapolated
  linearly; both timed sections run with the GC paused so neither path
  is charged the other's garbage.  The synced tree must be
  byte-identical to the server's and select the same fork-choice chain.
* **lifecycle matrix gate** — the three node-lifecycle presets
  (``crash-rejoin``/``late-join``/``eclipse-heal``) run for bitcoin and
  hyperledger on *both* transports (flood and reconcile); every cell
  must classify consistently (a measured SC or EC refinement, never
  ``inconsistent``) and complete at least one sync.

Serial ≡ parallel lifecycle campaigns are a tier-1 test
(``tests/test_campaign.py``).
"""

import gc
import json
import time

from repro.blocktree.selection import LongestChain
from repro.campaign.engine import run_campaign
from repro.campaign.grid import CampaignGrid
from repro.campaign.matrix import short_verdict
from repro.net.channels import SynchronousChannel
from repro.net.process import Network
from repro.net.simulator import Simulator
from repro.protocols.base import PassiveNode
from repro.workloads.scenarios import ProtocolScenario, TreeScenario

_GAP = 50_000
_DURATION = 240.0

_SPEEDUP_GATE = 10.0
_NAIVE_SAMPLE = 4000
#: Network size for the fast-sync gate.  Flood replay pays O(degree)
#: redundancy per block (broadcast + joiner re-relay + bystander
#: dedup) while the sync stream is point-to-point, so the measured
#: speedup grows with the network; 16 replicas is the repo's standard
#: "small real network" size (cf. the gossip benches).
_NET_NODES = 16


def _gap_blocks():
    return list(
        TreeScenario(
            name="sync-gap", n_blocks=_GAP, fork_rate=0.02, fork_window=4
        ).blocks()
    )


def _fresh_net(name, blocks, **overrides):
    """A fresh ``_NET_NODES``-replica flood network; every node except
    the last (the lagging joiner) is prefilled with ``blocks``."""
    scenario = ProtocolScenario(
        name=name, n_nodes=_NET_NODES, duration=10_000_000.0, **overrides
    )
    sim = Simulator(seed=7)
    net = Network(sim, channel=SynchronousChannel(delta=scenario.channel_delta))
    nodes = [net.register(PassiveNode(n, scenario)) for n in scenario.node_names()]
    for node in nodes[:-1]:
        for block in blocks:
            node.tree.add_block(block)
    return sim, net, nodes[0], nodes[-1]


def _timed(run):
    """Wall-clock ``run()`` with the GC paused (collected first), so a
    measurement is never charged the previous phase's garbage."""
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        run()
        return time.perf_counter() - start
    finally:
        gc.enable()


def test_bench_fast_sync_vs_naive_replay(report):
    """Gate: frontier catch-up ≥10× over per-block gossip replay."""
    blocks = _gap_blocks()

    # Naive baseline: the server re-floods each historical block as its
    # own gossip message; the joiner walks the full per-block path
    # (receive, validate, adopt, relay onward, application read) and
    # every bystander dedups the redundant copies.
    sample = min(_GAP, _NAIVE_SAMPLE)
    sim, _net, server, client = _fresh_net("sync-naive", blocks)
    _net.start()
    sim.schedule_at(
        1.0,
        lambda: [server.transport.relay_block(b) for b in blocks[:sample]],
    )
    naive_sample_s = _timed(sim.run)
    assert len(client.tree) == sample + 1  # the replay actually landed
    naive_s = naive_sample_s * (_GAP / sample)
    del sim, _net, server, client

    # Frontier sync: the client joins with the full deficit and pulls
    # batched ranges until the confirm round returns an empty diff.
    sim, _net, server, client = _fresh_net("sync-fast", blocks, sync_batch=256)
    client.offline = True
    _net.start()
    sim.schedule_at(1.0, client.lifecycle_join)
    fast_s = _timed(sim.run)

    assert client.sync.state == "done"
    assert client.metrics["sync"]["blocks_synced"] == _GAP
    # Byte-identity: same tree, and the same fork-choice verdict.
    assert client.tree.freeze() == server.tree.freeze()
    select = LongestChain().select
    assert select(client.tree).block_ids() == select(server.tree).block_ids()

    speedup = naive_s / fast_s if fast_s > 0 else 0.0
    row = {
        "gap_blocks": _GAP,
        "n_nodes": _NET_NODES,
        "naive_sample": sample,
        "naive_sample_s": round(naive_sample_s, 4),
        "naive_extrapolated_s": round(naive_s, 4),
        "fast_s": round(fast_s, 4),
        "speedup": round(speedup, 1),
        "gate": _SPEEDUP_GATE,
        "sync_messages": client.metrics["sync"]["messages_sent"]
        + server.metrics["sync"]["messages_sent"],
        "bytes_received": client.metrics["sync"]["bytes_received"],
        "catch_up_sim_s": round(client.metrics["sync"]["catch_up_s"], 2),
        "fork_choice_identical": True,
    }
    report(
        f"Frontier fast sync vs naive gossip replay, {_GAP}-block gap "
        f"(gate: ≥{_SPEEDUP_GATE}×)",
        json.dumps(row, indent=2),
    )
    assert speedup >= _SPEEDUP_GATE, (
        f"fast-sync speedup {speedup:.1f}× below the {_SPEEDUP_GATE}× gate"
    )


def test_bench_lifecycle_matrix(report):
    """Gate: every lifecycle cell classifies SC or EC on both transports."""
    matrix_rows = {}
    for gossip in ("flood", "reconcile"):
        grid = CampaignGrid(
            protocols=("bitcoin", "hyperledger"),
            scenarios=("crash-rejoin", "late-join", "eclipse-heal"),
            seeds=(2024,),
            n_nodes=4,
            duration=_DURATION,
            gossip=gossip,
        )
        cells = []
        for cell in run_campaign(grid).cells:
            assert cell.sync is not None, f"{cell.cell_id} carries no sync stats"
            cells.append(
                {
                    "cell": cell.cell_id,
                    "verdict": short_verdict(cell.row.measured_refinement),
                    "syncs_completed": cell.sync["totals"]["syncs_completed"],
                    "blocks_synced": cell.sync["totals"]["blocks_synced"],
                    "max_fork_degree": cell.row.max_fork_degree,
                }
            )
        matrix_rows[gossip] = cells
    report(
        "Lifecycle classification matrix, flood + reconcile "
        "(gate: every cell SC or EC)",
        json.dumps(matrix_rows, indent=2),
    )
    for gossip, cells in matrix_rows.items():
        for cell in cells:
            assert cell["verdict"] in ("SC", "EC"), (
                f"{gossip}/{cell['cell']} classified {cell['verdict']}"
            )
            assert cell["syncs_completed"] >= 1, (
                f"{gossip}/{cell['cell']} never completed a sync"
            )
    # The rebuilt/late replicas actually shipped blocks somewhere.
    assert any(
        c["blocks_synced"] > 0 for cells in matrix_rows.values() for c in cells
    )
