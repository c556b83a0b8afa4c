"""Lazy membership: resident node state is O(active), not O(registered).

A 50k-name network where only 1k nodes ever act must allocate process
state for the active set plus the overlay fringe it touches — nothing
else.  Before this fix every registered node was constructed eagerly at
registration, so a 50k-node scenario paid 50k allocations up front even
if a single node acted.
"""

from repro.net.overlay import RingOverlay
from repro.net.process import Network, SimProcess
from repro.net.simulator import Simulator

N_REGISTERED = 50_000
N_ACTIVE = 1_000
DEGREE = 8


class Quiet(SimProcess):
    """Receives and counts; never relays (keeps the active set closed)."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.received = 0
        self.started = False

    def on_start(self) -> None:
        self.started = True

    def on_message(self, src: str, message) -> None:
        self.received += 1


def _names():
    # Zero-padded so lexicographic (overlay ring) order == numeric order.
    return [f"n{i:05d}" for i in range(N_REGISTERED)]


class TestLazyMaterialization:
    def _build(self):
        names = _names()
        sim = Simulator(seed=11)
        overlay = RingOverlay(names, seed=11, degree=DEGREE)
        net = Network(sim, overlay=overlay)
        built = []

        def factory(name: str) -> SimProcess:
            built.append(name)
            return Quiet(name)

        for name in names:
            net.register_factory(name, factory)
        return sim, net, names, built

    def test_only_active_nodes_and_fringe_materialise(self):
        sim, net, names, built = self._build()
        net.start()
        assert built == []  # start() must not wake lazy nodes

        active = names[:N_ACTIVE]
        for name in active:
            node = net.node(name)
            node.broadcast("hello")
        sim.run()

        # The contiguous active prefix touches degree/2 ring neighbours
        # on each side (one side wraps to the tail of the ring).
        fringe = DEGREE // 2
        expected = set(active)
        expected.update(names[N_ACTIVE : N_ACTIVE + fringe])
        expected.update(names[-fringe:])
        assert set(built) == expected
        assert len(built) == len(set(built)) == N_ACTIVE + 2 * fringe
        assert len(net.processes) == len(built)
        # O(active): nowhere near the 50k registered names.
        assert len(built) <= N_ACTIVE + 2 * fringe < N_REGISTERED // 40

    def test_membership_visible_without_materialising(self):
        sim, net, names, built = self._build()
        assert len(net.process_names()) == N_REGISTERED
        assert built == []  # membership queries allocate nothing

    def test_lazy_node_starts_on_materialisation(self):
        sim, net, names, built = self._build()
        net.start()
        node = net.node(names[123])
        assert node.started  # on_start ran at materialisation, post-start
        assert built == [names[123]]

    def test_messages_reach_lazy_nodes(self):
        sim, net, names, built = self._build()
        net.start()
        sender = net.node(names[0])
        sender.broadcast("ping")
        sim.run()
        fringe = DEGREE // 2
        for nb in names[1 : 1 + fringe]:
            assert net.node(nb).received == 1

    def test_duplicate_factory_registration_rejected(self):
        sim, net, names, built = self._build()
        try:
            net.register_factory(names[0], lambda name: Quiet(name))
        except ValueError:
            pass
        else:  # pragma: no cover
            raise AssertionError("duplicate registration accepted")
