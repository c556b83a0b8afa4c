"""A run makes no cyclic garbage — the invariant behind pausing the collector.

``Simulator.run`` disables CPython's cyclic garbage collector for its
loop and collects generations 0–1 once on exit.  That is only free
because reference counting already reclaims everything a run drops: a
collection during a run finds nothing.  These tests hold each kind of
run to that — Table 1's seven default scenarios, a sharded run, bitcoin
over reconciliation gossip, and a crash-rejoin with client traffic on a
log store — by counting what the collector reclaims while the run's
result is still alive.  They also pin the two properties the pause
relies on: ``run`` leaves the collector as it found it, and a
``call_later`` timer armed before a crash or a suspend never fires.
"""

from __future__ import annotations

import dataclasses
import gc

import pytest

from repro.net.channels import SynchronousChannel
from repro.net.process import Network, SimProcess
from repro.net.simulator import Simulator
from repro.protocols.bitcoin import run_bitcoin
from repro.protocols.classify import RUNNERS
from repro.workloads.scenarios import adversarial_scenarios, default_scenarios
from repro.workloads.traffic import traffic_presets


def collected_by(action):
    """``(action(), objects the collector reclaimed meanwhile)``.

    The result stays referenced through the closing full collection:
    the live run state is full of reference cycles (process ↔ network),
    and it is what the run dropped, not what it keeps, that must be nil.
    """
    gc.collect()
    reclaimed = []

    def hook(phase, info):
        if phase == "stop":
            reclaimed.append(info["collected"])

    gc.callbacks.append(hook)
    try:
        result = action()
        gc.collect()
    finally:
        gc.callbacks.remove(hook)
    return result, sum(reclaimed)


@pytest.mark.parametrize("protocol", list(RUNNERS))
def test_table1_default_runs_make_no_cyclic_garbage(protocol):
    scenario = dataclasses.replace(default_scenarios()[protocol], duration=120.0)
    run, reclaimed = collected_by(lambda: RUNNERS[protocol](scenario))
    assert run.simulator.events_executed > 0
    assert reclaimed == 0


def test_sharded_run_makes_no_cyclic_garbage():
    scenario = adversarial_scenarios(n_nodes=4, duration=80.0)["shard-uniform"]
    run, reclaimed = collected_by(lambda: run_bitcoin(scenario))
    assert run.shards == 4
    assert reclaimed == 0


def test_reconcile_gossip_run_makes_no_cyclic_garbage():
    scenario = dataclasses.replace(
        adversarial_scenarios(n_nodes=4, duration=120.0)["client-steady"],
        gossip="reconcile",
    )
    run, reclaimed = collected_by(lambda: run_bitcoin(scenario))
    per_node = run.gossip_stats()["per_node"].values()
    assert sum(row["rounds_completed"] for row in per_node) > 0
    assert reclaimed == 0


def test_crash_rejoin_with_traffic_on_a_log_store_makes_no_cyclic_garbage(tmp_path):
    scenario = dataclasses.replace(
        adversarial_scenarios(n_nodes=4, duration=160.0)["crash-rejoin"],
        traffic=traffic_presets()["steady"],
        store="log",
        store_dir=str(tmp_path),
    )
    run, reclaimed = collected_by(lambda: run_bitcoin(scenario))
    assert run.sync_stats()["totals"]["syncs_completed"] > 0
    assert reclaimed == 0


# -- what the pause relies on ---------------------------------------------------


@pytest.mark.parametrize("enabled", [True, False])
def test_run_restores_the_collector_state_it_found(enabled):
    sim = Simulator(seed=1)
    seen = []
    sim.schedule(1.0, lambda: seen.append(gc.isenabled()))
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        sim.run()
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert seen == [False]  # paused (or left off) while events fire


def test_run_restores_the_collector_when_an_event_raises():
    sim = Simulator(seed=1)

    def boom():
        raise RuntimeError("boom")

    sim.schedule(1.0, boom)
    assert gc.isenabled()
    with pytest.raises(RuntimeError):
        sim.run()
    assert gc.isenabled()


class _Timed(SimProcess):
    def __init__(self, name):
        super().__init__(name)
        self.fired = []


def _armed_process():
    sim = Simulator(seed=1)
    net = Network(sim, channel=SynchronousChannel(delta=1.0))
    proc = net.register(_Timed("p0"))
    proc.call_later(5.0, proc.fired.append, "timer")
    return sim, proc


def test_call_later_timer_fires_in_the_life_it_was_armed_in():
    sim, proc = _armed_process()
    sim.run()
    assert proc.fired == ["timer"] and sim.now == 5.0


@pytest.mark.parametrize(
    "interrupt",
    [
        pytest.param(lambda p: setattr(p, "crashed", True), id="crash"),
        pytest.param(lambda p: setattr(p, "offline", True), id="offline"),
        # A suspend and resume between arming and firing: the process is
        # up again at fire time, but in a later life.
        pytest.param(
            lambda p: setattr(p, "lifecycle_epoch", p.lifecycle_epoch + 1),
            id="epoch-bump",
        ),
    ],
)
def test_call_later_timer_dies_across_an_interruption(interrupt):
    sim, proc = _armed_process()
    sim.schedule(1.0, lambda: interrupt(proc))
    sim.run()
    assert proc.fired == []
