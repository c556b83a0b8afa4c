"""The one run surface: ``ProtocolRun`` folds over chain pipelines.

``ShardedRun`` inherits every measurement from ``ProtocolRun``; these
tests pin the fold against sums computed here directly from the facets
(an oracle that shares no code with it), the shapes the benchmark reads
off the newly inherited surfaces, the routing guard for ``shards > 1``
and the selfish-withholding fix for shard-enveloped traffic.
"""

from dataclasses import replace

import pytest

from repro.protocols.bitcoin import run_bitcoin
from repro.protocols.classify import RUNNERS
from repro.shard.run import ShardedRun
from repro.workloads.scenarios import adversarial_scenarios, default_scenarios
from repro.workloads.traffic import shard_traffic_presets


def _sharded(preset: str, shards: int = 2, duration: float = 240.0, **overrides):
    base = adversarial_scenarios(n_nodes=4, duration=duration)[preset]
    return replace(
        base,
        shards=shards,
        traffic=shard_traffic_presets(duration, shards)["shard-uniform"],
        **overrides,
    )


@pytest.fixture(scope="module")
def crash_run():
    run = run_bitcoin(_sharded("crash-rejoin", auth=True))
    assert isinstance(run, ShardedRun)
    return run


def _lifetime(facet, component, live):
    """``live`` counters plus the carry the facet's crashed predecessor
    components left (occupancy readings stay live, the peak is a max)."""
    total = dict(live)
    for key, value in facet._carry.get(component, {}).items():
        if key == "peak_occupancy":
            total[key] = max(total[key], value)
        elif key not in ("occupancy", "pending", "kind"):
            total[key] += value
    return total


def _summed(dicts, maxed=()):
    total = {}
    for stats in dicts:
        for key, value in stats.items():
            if key in maxed:
                total[key] = max(total.get(key, value), value)
            else:
                total[key] = total.get(key, 0) + value
    return total


class TestFoldAgainstFacetOracle:
    def test_mempool_per_node_is_the_facet_sum(self, crash_run):
        per_node = crash_run.mempool_stats()["per_node"]
        # The crashed replica's facets carry their pre-crash counters.
        (crashed,) = [n for n in crash_run.nodes if n.facets[0]._carry]
        assert all(f._carry["pool"]["accepted"] > 0 for f in crashed.facets.values())
        for node in crash_run.nodes:
            expected = _summed(
                {
                    **_lifetime(facet, "pool", facet.pool.stats()),
                    **_lifetime(
                        facet,
                        "packer",
                        {
                            "blocks_packed": facet.packer.blocks_packed,
                            "txs_packed": facet.packer.txs_packed,
                        },
                    ),
                    "tx_gossip_received": facet.tx_gossip_received,
                    "tx_gossip_duplicates": facet.tx_gossip_duplicates,
                }
                for facet in node.facets.values()
            )
            assert per_node[node.name] == expected
        assert sum(stats["accepted"] for stats in per_node.values()) > 0

    def test_sync_per_node_is_the_facet_sum(self, crash_run):
        sync = crash_run.sync_stats()
        for node in crash_run.nodes:
            expected = _summed(
                (facet.sync_totals for facet in node.facets.values()),
                maxed=("last_catch_up_s",),
            )
            assert sync["per_node"][node.name] == expected
        # The crashed replica re-synced every facet.
        assert sync["totals"]["syncs_completed"] >= crash_run.shards
        assert "last_catch_up_s" not in sync["totals"]

    def test_auth_per_node_is_the_facet_sum(self, crash_run):
        auth = crash_run.auth_stats()
        for node in crash_run.nodes:
            expected = _summed(f.auth_report() for f in node.facets.values())
            assert auth["per_node"][node.name] == expected
        assert auth["totals"]["verified"] == sum(
            stats["verified"] for stats in auth["per_node"].values()
        )
        assert auth["totals"]["banned"] == max(
            stats["banned"] for stats in auth["per_node"].values()
        )

    def test_committed_is_the_per_shard_sum(self, crash_run):
        mempool = crash_run.mempool_stats()
        per_shard = mempool["per_shard"]
        assert sorted(per_shard) == ["0", "1"]
        assert mempool["committed"]["txs"] == sum(s["txs"] for s in per_shard.values())
        assert mempool["committed"]["txs"] > 0
        assert "majority_node" not in mempool["committed"]
        for k, stats in per_shard.items():
            rep = next(n for n in crash_run.nodes if n.name == stats["majority_node"])
            assert stats["txs"] == len(rep.facets[int(k)].pool.view.committed)

    def test_heights_forks_and_appends_fold_over_facets(self, crash_run):
        assert crash_run.node_heights() == sorted(
            (n.name, max(f.select_chain().height for f in n.facets.values()))
            for n in crash_run.nodes
        )
        assert crash_run.node_fork_degrees() == sorted(
            (n.name, max(f.tree.max_fork_degree() for f in n.facets.values()))
            for n in crash_run.nodes
        )
        assert crash_run.max_fork_degree() == max(
            degree for _, degree in crash_run.node_fork_degrees()
        )
        assert crash_run.unknown_append_resolutions() == 0
        assert crash_run.history is None
        assert sorted(crash_run.histories) == [0, 1]
        assert sorted(crash_run.submissions) == [0, 1]


class TestInheritedSurfacesHaveTheBenchShapes:
    """``bench/cell.py`` sums numeric ``per_node`` counters of
    ``gossip_stats()`` and reads ``storage_stats()[name]["blocks"]``."""

    def test_gossip_stats(self, crash_run):
        gossip = crash_run.gossip_stats()
        assert set(gossip["per_node"]) == set(crash_run.node_names)
        for node in crash_run.nodes:
            stats = gossip["per_node"][node.name]
            assert stats.pop("kind") == "flood"
            assert all(isinstance(v, int) for v in stats.values())
            assert stats["messages_sent"] == sum(
                _lifetime(f, "transport", f.transport.stats())["messages_sent"]
                for f in node.facets.values()
            )
        assert gossip["totals"]["messages_sent"] > 0

    def test_storage_stats(self, crash_run):
        storage = crash_run.storage_stats()
        for node in crash_run.nodes:
            assert storage[node.name]["blocks"] == sum(
                f.tree.stats()["blocks"] for f in node.facets.values()
            )
            assert all(isinstance(v, int) for v in storage[node.name].values())

    def test_append_stats(self, crash_run):
        appends = crash_run.append_stats()
        for node in crash_run.nodes:
            entry = appends[node.name]
            assert entry["begun"] == sum(
                f.appends_begun for f in node.facets.values()
            )
            assert entry["begun"] == entry["resolved"]
            assert entry["unknown_resolutions"] == 0
            assert entry["auth"] == crash_run.auth_stats()["per_node"][node.name]

    def test_single_chain_run_has_no_shard_stats(self):
        run = run_bitcoin(adversarial_scenarios(duration=60.0)["client-steady"])
        assert run.shard_stats() == {}
        assert run.shards == 1
        assert run.histories == {0: run.history}
        assert isinstance(run.submissions, tuple)


@pytest.mark.parametrize("protocol", sorted(set(RUNNERS) - {"bitcoin"}))
def test_sharded_scenario_is_refused_by_single_chain_runners(protocol):
    with pytest.raises(ValueError, match="execute_sharded"):
        RUNNERS[protocol](_sharded("shard-uniform", duration=60.0))


def test_selfish_withholding_sees_shard_envelopes():
    """Facet traffic travels as ``("shard", k, inner)``: the selfish
    miner's own blocks must be delayed at K=2 as they are at K=1."""
    single = adversarial_scenarios(n_nodes=4, duration=400.0)["selfish-miner"]
    assert run_bitcoin(single).faults["selfish"].delayed > 0
    for gossip in ("flood", "reconcile"):
        run = run_bitcoin(_sharded("selfish-miner", duration=400.0, gossip=gossip))
        assert run.faults["selfish"].delayed > 0, gossip


def test_runners_take_their_parameters_from_default_scenarios():
    """Protocol parameters live in ``default_scenarios()`` alone: it
    lists the seven systems in ``RUNNERS`` order, and no runner builds
    a scenario of its own."""
    assert list(RUNNERS) == list(default_scenarios())
    for runner in RUNNERS.values():
        with pytest.raises(TypeError):
            runner()
