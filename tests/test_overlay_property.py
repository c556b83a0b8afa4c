"""Property suite for overlay topologies (Hypothesis).

Three invariants over *arbitrary* node-name sets, seeds and degrees:

* **Connectivity** — a BFS from one node reaches every node.
* **Degree bounds** — ``len(neighbors(n)) <= degree`` for every node,
  and the neighbour relation is symmetric, self-free and sorted.
* **Determinism** — the overlay depends on the name set, not its order.
"""

import string

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.overlay import TOPOLOGY_KINDS, build_overlay
from repro.net.process import Network
from repro.net.simulator import Simulator
from repro.workloads.scenarios import ProtocolScenario

# Arbitrary node ids: not just p0…pN — PRF derivations must not depend on the repo's naming convention.
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
def test_overlay_is_connected(names, kind, seed, degree):
    ov = build_overlay(kind, names, seed=seed, degree=degree)
    seen = {ov.names[0]}
    frontier = [ov.names[0]]
    while frontier:
        frontier = {nb for n in frontier for nb in ov.neighbors(n)} - seen
        seen |= frontier
    assert seen == set(ov.names), f"{kind} overlay is not connected"


@given(
    names=names_strategy,
    kind=st.sampled_from(sparse_kinds),
    seed=st.integers(min_value=0, max_value=2**32),
    degree=st.integers(min_value=4, max_value=16),
)
@settings(max_examples=120, deadline=None)
def test_degree_bounds_and_symmetry(names, kind, seed, degree):
    ov = build_overlay(kind, names, seed=seed, degree=degree)
    for name in ov.names:
        nbs = ov.neighbors(name)
        assert name not in nbs
        assert len(set(nbs)) == len(nbs)
        assert tuple(sorted(nbs)) == tuple(nbs)
        assert len(nbs) <= degree
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
