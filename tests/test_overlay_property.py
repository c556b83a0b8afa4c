"""Property suite for overlay topologies (Hypothesis).

Three invariants over *arbitrary* node-name sets, seeds and degrees:

* **Connectivity honesty** — the components found by a real BFS match
  the overlay's ``declared_partitions()``; every built-in topology
  declares a single component, so every generated overlay must *be*
  connected.
* **Degree bounds** — ``len(neighbors(n)) <= degree_bound()`` for every
  node, and the neighbour relation is symmetric, self-free and sorted.
* **Skip-graph routing termination** — greedy key routing reaches any
  destination from any source within ``n - 1`` hops, for arbitrary
  (non-uniform, adversarially named) membership sets.
"""

import string

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.overlay import (
    TOPOLOGY_KINDS,
    SkipGraphOverlay,
    build_overlay,
    components,
)
from repro.net.process import Network
from repro.net.simulator import Simulator
from repro.workloads.scenarios import ProtocolScenario

# Arbitrary node ids: not just p0…pN — routing and PRF derivations must
# not depend on the repo's naming convention.
names_strategy = st.lists(
    st.text(alphabet=string.ascii_lowercase + string.digits + "-_.", min_size=1, max_size=12),
    min_size=1,
    max_size=64,
    unique=True,
)

#: ``"full"`` is no overlay: it is ``Network(overlay=None)``.
sparse_kinds = tuple(k for k in TOPOLOGY_KINDS if k != "full")


@given(
    names=names_strategy,
    kind=st.sampled_from(sparse_kinds),
    seed=st.integers(min_value=0, max_value=2**32),
    degree=st.integers(min_value=4, max_value=16),
)
@settings(max_examples=120, deadline=None)
def test_overlay_connected_or_partitions_declared(names, kind, seed, degree):
    ov = build_overlay(kind, names, seed=seed, degree=degree)
    found = tuple(components(ov))
    declared = tuple(sorted(ov.declared_partitions(), key=lambda c: c[0]))
    assert found == declared, (
        f"{kind} overlay claims partitions {declared} but BFS finds {found}"
    )
    # Every built-in topology must actually be connected.
    assert len(found) == 1


@given(
    names=names_strategy,
    kind=st.sampled_from(sparse_kinds),
    seed=st.integers(min_value=0, max_value=2**32),
    degree=st.integers(min_value=4, max_value=16),
)
@settings(max_examples=120, deadline=None)
def test_degree_bounds_and_symmetry(names, kind, seed, degree):
    ov = build_overlay(kind, names, seed=seed, degree=degree)
    bound = ov.degree_bound()
    for name in ov.names:
        nbs = ov.neighbors(name)
        assert name not in nbs
        assert len(set(nbs)) == len(nbs)
        assert tuple(sorted(nbs)) == tuple(nbs)
        assert len(nbs) <= bound
        for other in nbs:
            assert name in ov.neighbors(other), f"{kind}: {name}->{other} one-way"
        if len(ov.names) > 1:
            assert nbs, f"{kind}: {name} is isolated"


def test_full_topology_is_the_networks_own_complete_graph():
    scenario = ProtocolScenario(name="x", n_nodes=3)
    assert scenario.topology == "full" and scenario.build_overlay() is None
    with pytest.raises(ValueError, match="unknown overlay kind 'full'"):
        build_overlay("full", scenario.node_names())
    net = Network(Simulator(seed=0), overlay=None)
    for name in scenario.node_names():
        net.register_factory(name, lambda n: None)
    assert net.neighbors_of("p1") == ("p0", "p2")


@given(
    names=names_strategy,
    seed=st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=60, deadline=None)
def test_skip_graph_routing_terminates(names, seed):
    ov = SkipGraphOverlay(names, seed=seed)
    n = len(ov.names)
    # Deterministically sample endpoint pairs (all pairs would be O(n²)
    # routes per example); always include the extreme-key pair.
    pairs = {(ov.names[0], ov.names[-1])}
    for i in range(min(n, 12)):
        src = ov.names[(i * 7) % n]
        dst = ov.names[(i * 13 + 5) % n]
        pairs.add((src, dst))
    for src, dst in pairs:
        path = ov.route(src, dst)
        assert path[0] == src and path[-1] == dst
        assert len(path) <= n  # termination bound: n-1 hops, n vertices
        # Each hop follows a real overlay edge.
        for a, b in zip(path, path[1:]):
            assert b in ov.neighbors(a)


@given(
    names=names_strategy,
    kind=st.sampled_from(sparse_kinds),
    seed=st.integers(min_value=0, max_value=2**32),
    degree=st.integers(min_value=4, max_value=16),
)
@settings(max_examples=40, deadline=None)
def test_overlay_is_deterministic(names, kind, seed, degree):
    a = build_overlay(kind, names, seed=seed, degree=degree)
    b = build_overlay(kind, list(reversed(names)), seed=seed, degree=degree)
    assert a.names == b.names
    for name in a.names:
        assert a.neighbors(name) == b.neighbors(name)
