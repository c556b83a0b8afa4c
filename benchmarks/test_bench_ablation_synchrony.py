"""Ablation — channel synchrony: sync(δ) vs weakly-sync(GST) vs async.

Section 4.2's channel taxonomy drives the fork dynamics of prodigal-
oracle systems: the longer messages take relative to the block interval,
the more concurrent tokens get consumed.  The bench runs the same
Bitcoin workload over the three channel models and reports fork rate and
divergence depth — expected shape: async ≥ weakly-sync ≥ sync.
"""

from repro.analysis.metrics import divergence_depth, fork_rate
from repro.analysis.tables import render_table
from repro.net.channels import (
    AsynchronousChannel,
    SynchronousChannel,
    WeaklySynchronousChannel,
)
from repro.protocols.base import ProtocolRun
from repro.protocols.bitcoin import BitcoinNode
from repro.workloads.scenarios import ProtocolScenario


def sweep(seed=31):
    scenario = ProtocolScenario(
        name="bitcoin", duration=250.0, mean_block_interval=8.0, seed=seed
    )
    channels = [
        ("synchronous δ=1", SynchronousChannel(delta=1.0)),
        ("weakly-sync GST=125 δ=1", WeaklySynchronousChannel(gst=125.0, delta=1.0,
                                                             pre_gst_mean=6.0)),
        ("asynchronous mean=6", AsynchronousChannel(mean=6.0)),
    ]
    rows = []
    for label, channel in channels:
        run = ProtocolRun.execute(BitcoinNode, scenario, channel=channel, settle=200.0)
        rows.append(
            (label, f"{fork_rate(run):.3f}", divergence_depth(run),
             run.final_chains()["p0"].height)
        )
    return rows


def test_bench_ablation_synchrony(benchmark, report):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(
        "Ablation — channel synchrony vs fork production (Bitcoin workload)",
        render_table(["channel", "fork rate", "divergence depth", "height"], rows),
    )
    sync_rate = float(rows[0][1])
    async_rate = float(rows[2][1])
    # Shape: a fully synchronous fast network forks no more than the
    # asynchronous one (the crossover the §4.2 taxonomy predicts).
    assert sync_rate <= async_rate
    benchmark.extra_info["fork_rates"] = {r[0]: r[1] for r in rows}
