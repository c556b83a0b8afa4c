"""The decode boundary: every process checks a message's shape once.

:meth:`repro.net.process.SimProcess.on_message` looks a message's tag up
in the process's route table and drops anything that is not a tuple, is
empty, carries an unrouted tag or has a length its kind does not take.
These tests feed such messages to every replica class of Table 1, the
passive replica and the sharded host, and check that nothing raises and
nothing changes: no counter, no tree, no network traffic.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.histories.builder import HistoryRecorder
from repro.net import Network, Simulator, SynchronousChannel
from repro.protocols import (
    AlgorandNode,
    BitcoinNode,
    ByzCoinNode,
    EthereumNode,
    HyperledgerNode,
    PeerCensusNode,
    RedBellyNode,
)
from repro.protocols.base import PassiveNode
from repro.protocols.classify import RUNNERS
from repro.shard.node import ShardedNode
from repro.workloads.scenarios import SHARD_TAG, ProtocolScenario
from repro.workloads.traffic import shard_traffic_presets

#: The replica class behind each Table 1 runner.
NODE_CLASSES = {
    "bitcoin": BitcoinNode,
    "ethereum": EthereumNode,
    "algorand": AlgorandNode,
    "byzcoin": ByzCoinNode,
    "peercensus": PeerCensusNode,
    "redbelly": RedBellyNode,
    "hyperledger": HyperledgerNode,
}


def _scenario(name, **overrides):
    return ProtocolScenario(name=name, n_nodes=4, duration=60.0, **overrides)


#: host kind → (host class, scenario)
HOSTS = {
    **{protocol: (cls, _scenario(protocol)) for protocol, cls in NODE_CLASSES.items()},
    **{
        f"bitcoin-{gossip}-auth{int(auth)}": (
            BitcoinNode,
            _scenario("bitcoin", gossip=gossip, auth=auth),
        )
        for gossip in ("flood", "reconcile")
        for auth in (False, True)
    },
    "passive": (PassiveNode, _scenario("passive")),
    "sharded": (
        ShardedNode,
        _scenario(
            "sharded", shards=2, traffic=shard_traffic_presets(60.0, 2)["shard-uniform"]
        ),
    ),
}

_NETWORKS = {}


def _network(kind):
    """A never-started four-replica network of ``kind``, built once."""
    if kind not in _NETWORKS:
        host_cls, scenario = HOSTS[kind]
        if host_cls is ShardedNode:
            recorders = {k: HistoryRecorder() for k in range(scenario.shards)}
            members = scenario.shard_members()

            def build(name):
                return ShardedNode(name, scenario, recorders, members)

        else:

            def build(name):
                return host_cls(name, scenario)

        sim = Simulator(seed=scenario.seed)
        net = Network(sim, channel=SynchronousChannel(delta=scenario.channel_delta))
        _NETWORKS[kind] = (net, [net.register(build(n)) for n in scenario.node_names()])
    return _NETWORKS[kind]


def _snapshot(net, host):
    chains = [chain for _, chain in host.pipelines()]
    return (
        copy.deepcopy([chain.metrics for chain in chains]),
        [sorted(chain.tree.iter_ids()) for chain in chains],
        (net.messages_sent, net.messages_delivered, net.messages_dropped),
    )


JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.text(max_size=4),
    st.binary(max_size=4),
    st.lists(st.integers(), max_size=2),
)


def _routed(tag, routes):
    try:
        return tag in routes
    except TypeError:  # unhashable: routed nowhere
        return False


def malformed(routes):
    """Messages the boundary of a process with ``routes`` must drop."""
    unknown = st.builds(
        lambda tag, fields: (tag, *fields),
        JUNK.filter(lambda tag: not _routed(tag, routes)),
        st.lists(JUNK, max_size=4),
    )
    wrong_length = st.sampled_from(sorted(routes)).flatmap(
        lambda tag: st.integers(1, 8)
        .filter(lambda n: n not in routes[tag][1])
        .flatmap(
            lambda n: st.lists(JUNK, min_size=n - 1, max_size=n - 1).map(
                lambda fields: (tag, *fields)
            )
        )
    )
    return st.one_of(JUNK, st.just(()), unknown, wrong_length)


def test_every_runner_has_a_host():
    assert set(NODE_CLASSES) == set(RUNNERS)


@pytest.mark.parametrize("kind", sorted(HOSTS))
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)
@given(data=st.data())
def test_the_boundary_drops_malformed_messages(kind, data):
    net, hosts = _network(kind)
    host = data.draw(st.sampled_from(hosts))
    messages = malformed(host.routes)
    if isinstance(host, ShardedNode):
        # A well-formed envelope around a malformed facet message
        # re-enters the facet's own boundary.
        messages = st.one_of(
            messages,
            st.sampled_from(sorted(host.facets)).flatmap(
                lambda k: malformed(host.facets[k].routes).map(
                    lambda inner: (SHARD_TAG, k, inner)
                )
            ),
        )
    message = data.draw(messages)
    before = _snapshot(net, host)
    host.on_message("p1", message)
    assert _snapshot(net, host) == before


@pytest.mark.parametrize(
    "message",
    [("shard",), ("shard", 0), ("xshard-notice",), ("xshard-decision", "t")],
)
def test_truncated_shard_messages_are_dropped(message):
    """Each of these raised ``IndexError`` in the sharded host before it
    decoded messages at one boundary."""
    net, hosts = _network("sharded")
    before = _snapshot(net, hosts[0])
    hosts[0].on_message("p1", message)
    assert _snapshot(net, hosts[0]) == before
