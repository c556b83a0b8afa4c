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
*connected by construction*; the property suite checks both with a BFS.

Three topologies, two of them an :class:`Overlay`:

* ``full`` — not an overlay: the network's own complete graph, taken
  when :class:`~repro.net.process.Network` has ``overlay=None``
  (``ProtocolScenario.build_overlay()`` returns ``None`` for it);
* ``ring`` — each node links to ``degree/2`` successors/predecessors on
  the sorted name ring (high diameter, the worst case for propagation);
* ``small-world`` — Newman–Watts: the ring plus PRF-chosen shortcuts,
  capacity-capped so the degree bound is strict (unlike Watts–Strogatz
  *rewiring*, adding shortcuts can never disconnect the ring).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro._util import prf_uint64, require

__all__ = [
    "Overlay",
    "RingOverlay",
    "SmallWorldOverlay",
    "build_overlay",
    "TOPOLOGY_KINDS",
]

TOPOLOGY_KINDS = ("full", "ring", "small-world")


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


_BUILDERS = {
    "ring": RingOverlay,
    "small-world": SmallWorldOverlay,
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
