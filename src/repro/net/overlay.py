"""Overlay topologies: who is whose neighbour (NISTIR 8202 §4 networks).

Everything before this module assumed the complete graph — every
``broadcast`` touched every replica, which is both unrealistic (no
deployed blockchain floods a clique) and the reason simulations stalled
past a few hundred nodes: one delivery event fanned out O(N) sends.  An
:class:`Overlay` fixes the neighbour relation once, deterministically
from ``(names, seed, degree)``, and :class:`repro.net.process.Network`
routes broadcast/gossip/reconcile/sync traffic through it.

All overlays here are *undirected* (``b in neighbors(a)`` iff
``a in neighbors(b)``), *deterministic* (pure functions of their
constructor arguments via the repo PRF — no :mod:`random` state), and
*connected by construction*; a future partitioned overlay must say so
through :meth:`Overlay.declared_partitions`, which the property suite
checks against a real BFS.

Five topologies, four of them an :class:`Overlay`:

* ``full`` — not an overlay: the network's own complete graph, taken
  when :class:`~repro.net.process.Network` has ``overlay=None``
  (``ProtocolScenario.build_overlay()`` returns ``None`` for it);
* ``ring`` — each node links to ``degree/2`` successors/predecessors on
  the sorted name ring (high diameter, the worst case for propagation);
* ``small-world`` — Newman–Watts: the ring plus PRF-chosen shortcuts,
  capacity-capped so the degree bound is strict (unlike Watts–Strogatz
  *rewiring*, adding shortcuts can never disconnect the ring);
* ``geo`` — geo-clustered regions: dense intra-region rings bridged by
  a sparse gateway ring (continental latency structure);
* ``skip-graph`` — membership-vector level lists in the style of the
  bami skip-graph harness; greedy key routing in O(log n) expected hops
  (:meth:`SkipGraphOverlay.route`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro._util import prf_uint64, require

__all__ = [
    "Overlay",
    "RingOverlay",
    "SmallWorldOverlay",
    "GeoClusteredOverlay",
    "SkipGraphOverlay",
    "build_overlay",
    "components",
    "TOPOLOGY_KINDS",
]

TOPOLOGY_KINDS = ("full", "ring", "small-world", "geo", "skip-graph")


class Overlay:
    """Base class: a fixed, deterministic neighbour relation."""

    kind = "abstract"

    def __init__(self, names: Iterable[str], seed: int = 0, degree: int = 8) -> None:
        self.names: Tuple[str, ...] = tuple(sorted(names))
        require(len(self.names) > 0, "overlay needs at least one node")
        require(len(set(self.names)) == len(self.names), "duplicate node names")
        require(degree >= 2, "overlay degree must be >= 2")
        self.seed = seed
        self.degree = degree
        self._index: Dict[str, int] = {n: i for i, n in enumerate(self.names)}

    def neighbors(self, name: str) -> Tuple[str, ...]:
        """Sorted neighbours of ``name`` (never includes ``name``)."""
        raise NotImplementedError

    def degree_bound(self) -> int:
        """A strict upper bound on ``len(neighbors(n))`` for every node."""
        raise NotImplementedError

    def declared_partitions(self) -> Tuple[Tuple[str, ...], ...]:
        """The connected components this overlay *claims* to have.

        All built-in overlays are connected by construction and declare
        one component; an intentionally-partitioned overlay must
        override this, and the property suite holds every overlay to its
        declaration with a real BFS.
        """
        return (self.names,)

    def _check_member(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            raise KeyError(f"{name!r} is not in this overlay")
        return idx


class RingOverlay(Overlay):
    """``degree/2`` successors and predecessors on the sorted name ring."""

    kind = "ring"

    def __init__(self, names: Iterable[str], seed: int = 0, degree: int = 8) -> None:
        super().__init__(names, seed, degree)
        self._k = max(1, degree // 2)
        self._cache: Dict[str, Tuple[str, ...]] = {}

    def neighbors(self, name: str) -> Tuple[str, ...]:
        cached = self._cache.get(name)
        if cached is not None:
            return cached
        i = self._check_member(name)
        n = len(self.names)
        if n == 1:
            return ()
        picked = set()
        for step in range(1, min(self._k, (n - 1) // 2 + 1) + 1):
            picked.add(self.names[(i + step) % n])
            picked.add(self.names[(i - step) % n])
        picked.discard(name)
        result = tuple(sorted(picked))
        self._cache[name] = result
        return result

    def degree_bound(self) -> int:
        return 2 * self._k


class SmallWorldOverlay(Overlay):
    """Newman–Watts small world: ring + capacity-capped PRF shortcuts.

    Start from the ``i ± 1`` ring (connectivity is then unconditional),
    then let each node propose ``degree - 2`` shortcuts to PRF-chosen
    targets, accepting an edge only while *both* endpoints still have
    spare capacity.  The result keeps a strict per-node degree bound of
    ``degree`` — unlike classic Newman–Watts, where shortcut in-degree
    is unbounded — while preserving the O(log n) expected diameter.
    """

    kind = "small-world"

    def __init__(self, names: Iterable[str], seed: int = 0, degree: int = 8) -> None:
        require(degree >= 4, "small-world overlay needs degree >= 4")
        super().__init__(names, seed, degree)
        n = len(self.names)
        adj: List[set] = [set() for _ in range(n)]
        for i in range(n):
            if n > 1:
                adj[i].add((i + 1) % n)
                adj[i].add((i - 1) % n)
        budget = degree - 2
        for i, name in enumerate(self.names):
            for attempt in range(budget):
                j = prf_uint64(seed, "small-world", name, attempt) % n
                if j == i or j in adj[i]:
                    continue
                if len(adj[i]) >= degree or len(adj[j]) >= degree:
                    continue
                adj[i].add(j)
                adj[j].add(i)
        self._adj: Tuple[Tuple[str, ...], ...] = tuple(
            tuple(sorted(self.names[j] for j in peers)) for peers in adj
        )

    def neighbors(self, name: str) -> Tuple[str, ...]:
        return self._adj[self._check_member(name)]

    def degree_bound(self) -> int:
        return self.degree


class GeoClusteredOverlay(Overlay):
    """Contiguous regions with dense intra-region rings, sparse bridges.

    Names split into contiguous regions of ``~2 * degree`` nodes.  Each
    region is internally a ring (every member links to its intra-region
    neighbours), and the first node of each region — its *gateway* —
    additionally joins a ring of gateways.  Models continental topology:
    cheap local links, few expensive long-haul bridges, so propagation
    percentiles show the inter-region penalty.
    """

    kind = "geo"

    def __init__(self, names: Iterable[str], seed: int = 0, degree: int = 8) -> None:
        require(degree >= 4, "geo overlay needs degree >= 4")
        super().__init__(names, seed, degree)
        n = len(self.names)
        region_size = max(4, 2 * degree)
        self._region_size = region_size
        self._n_regions = max(1, (n + region_size - 1) // region_size)
        self._cache: Dict[str, Tuple[str, ...]] = {}

    def _region_of(self, i: int) -> int:
        return i // self._region_size

    def _region_span(self, r: int) -> Tuple[int, int]:
        lo = r * self._region_size
        hi = min(lo + self._region_size, len(self.names))
        return lo, hi

    def neighbors(self, name: str) -> Tuple[str, ...]:
        cached = self._cache.get(name)
        if cached is not None:
            return cached
        i = self._check_member(name)
        n = len(self.names)
        if n == 1:
            return ()
        r = self._region_of(i)
        lo, hi = self._region_span(r)
        size = hi - lo
        picked = set()
        if size > 1:
            local = i - lo
            picked.add(self.names[lo + (local + 1) % size])
            picked.add(self.names[lo + (local - 1) % size])
        if i == lo and self._n_regions > 1:
            # Gateway: link to the neighbouring regions' gateways.
            prev_r = (r - 1) % self._n_regions
            next_r = (r + 1) % self._n_regions
            picked.add(self.names[self._region_span(prev_r)[0]])
            picked.add(self.names[self._region_span(next_r)[0]])
        picked.discard(name)
        result = tuple(sorted(picked))
        self._cache[name] = result
        return result

    def degree_bound(self) -> int:
        # Intra-region ring (2) plus the gateway ring (2).
        return 4


class SkipGraphOverlay(Overlay):
    """Skip-graph overlay: membership-vector level lists, greedy routing.

    Every node gets a PRF key (its position in the level-0 list) and a
    PRF membership vector.  At level ``i`` the nodes sharing the same
    first ``i`` membership bits form a sorted doubly-linked list; each
    node's neighbours are its predecessor/successor in every level it
    belongs to.  Level 0 is the full sorted list, so the overlay is
    connected by construction, and :meth:`route` resolves any key in
    O(log n) expected hops — the structure the bami skip-graph harness
    simulates at scale.
    """

    kind = "skip-graph"

    def __init__(self, names: Iterable[str], seed: int = 0, degree: int = 8) -> None:
        super().__init__(names, seed, degree)
        n = len(self.names)
        self._levels = max(1, (n - 1).bit_length())
        # PRF keys; the (u64, name) pair breaks collisions deterministically.
        self._key: Dict[str, Tuple[int, str]] = {
            name: (prf_uint64(seed, "skip-key", name), name) for name in self.names
        }
        self._mvec: Dict[str, int] = {
            name: prf_uint64(seed, "skip-mvec", name) for name in self.names
        }
        by_key = sorted(self.names, key=self._key.__getitem__)
        adj: Dict[str, set] = {name: set() for name in self.names}
        for level in range(self._levels + 1):
            mask = (1 << level) - 1
            groups: Dict[int, List[str]] = {}
            for name in by_key:  # already key-sorted; grouping preserves it
                groups.setdefault(self._mvec[name] & mask, []).append(name)
            for members in groups.values():
                for a, b in zip(members, members[1:]):
                    adj[a].add(b)
                    adj[b].add(a)
        self._adj: Dict[str, Tuple[str, ...]] = {
            name: tuple(sorted(peers)) for name, peers in adj.items()
        }

    def neighbors(self, name: str) -> Tuple[str, ...]:
        self._check_member(name)
        return self._adj[name]

    def degree_bound(self) -> int:
        return 2 * (self._levels + 1)

    def route(self, src: str, dst: str, max_hops: Optional[int] = None) -> List[str]:
        """Greedy key routing from ``src`` to ``dst``; returns the path.

        Each hop moves to the neighbour whose key is closest to the
        target without overshooting.  The level-0 successor/predecessor
        always qualifies, so progress is guaranteed and the walk
        terminates in at most ``n - 1`` hops (O(log n) expected).
        """
        self._check_member(src)
        self._check_member(dst)
        target = self._key[dst]
        limit = max_hops if max_hops is not None else len(self.names)
        path = [src]
        cur = src
        while cur != dst:
            if len(path) > limit:
                raise RuntimeError(f"routing {src!r}->{dst!r} exceeded {limit} hops")
            cur_key = self._key[cur]
            if target > cur_key:
                cur = max(
                    (nb for nb in self._adj[cur] if cur_key < self._key[nb] <= target),
                    key=self._key.__getitem__,
                )
            else:
                cur = min(
                    (nb for nb in self._adj[cur] if target <= self._key[nb] < cur_key),
                    key=self._key.__getitem__,
                )
            path.append(cur)
        return path


_BUILDERS = {
    "ring": RingOverlay,
    "small-world": SmallWorldOverlay,
    "geo": GeoClusteredOverlay,
    "skip-graph": SkipGraphOverlay,
}


def build_overlay(
    kind: str, names: Iterable[str], seed: int = 0, degree: int = 8
) -> Overlay:
    """Construct the overlay ``kind`` (a :data:`TOPOLOGY_KINDS` entry
    other than ``"full"``, which is ``Network(overlay=None)``)."""
    try:
        cls = _BUILDERS[kind]
    except KeyError:
        raise ValueError(
            f"unknown overlay kind {kind!r}; expected one of {tuple(_BUILDERS)}"
        )
    return cls(names, seed=seed, degree=degree)


def components(overlay: Overlay) -> List[Tuple[str, ...]]:
    """The real connected components of ``overlay``, by BFS.

    Each component is a sorted name tuple; components are sorted by
    their first member, so the result is canonical and comparable to
    :meth:`Overlay.declared_partitions`.
    """
    seen: set = set()
    out: List[Tuple[str, ...]] = []
    for root in overlay.names:
        if root in seen:
            continue
        frontier = [root]
        seen.add(root)
        comp = [root]
        while frontier:
            nxt: List[str] = []
            for node in frontier:
                for nb in overlay.neighbors(node):
                    if nb not in seen:
                        seen.add(nb)
                        comp.append(nb)
                        nxt.append(nb)
            frontier = nxt
        out.append(tuple(sorted(comp)))
    out.sort(key=lambda c: c[0])
    return out
