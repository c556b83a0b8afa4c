"""Tests for the step scheduler and the exhaustive model checker."""

import pytest

from repro.concurrent.modelcheck import explore
from repro.concurrent.objects import AtomicRegister
from repro.concurrent.scheduler import (
    Decide,
    Done,
    Invoke,
    Program,
    RandomScheduler,
    System,
)


class WriteThenDecide(Program):
    """Write a value to a register, read it back, decide what was read."""

    def __init__(self, value):
        self.value = value

    def init(self):
        return ("begin",)

    def step(self, local, response):
        phase = local[0]
        if phase == "begin":
            return ("wrote",), Invoke("reg", "write", (self.value,))
        if phase == "wrote":
            return ("read",), Invoke("reg", "read", ())
        if phase == "read":
            return ("done",), Decide(response)
        return local, Done()


def one_writer_system(value="v"):
    return System(
        objects={"reg": AtomicRegister()},
        programs={"p0": WriteThenDecide(value)},
    )


class TestScheduler:
    def test_single_process_runs_to_completion(self):
        result = RandomScheduler(seed=1).run(one_writer_system())
        assert result.decisions == {"p0": "v"}
        assert result.integrity()
        assert result.all_correct_decided()

    def test_two_processes_race_on_register(self):
        system = System(
            objects={"reg": AtomicRegister()},
            programs={"p0": WriteThenDecide("a"), "p1": WriteThenDecide("b")},
        )
        result = RandomScheduler(seed=3).run(system)
        assert set(result.decisions) == {"p0", "p1"}
        assert all(v in ("a", "b") for v in result.decisions.values())

    def test_crash_stops_process(self):
        system = System(
            objects={"reg": AtomicRegister()},
            programs={"p0": WriteThenDecide("a"), "p1": WriteThenDecide("b")},
        )
        result = RandomScheduler(seed=3).run(system, crash_at={"p1": 0})
        assert "p1" not in result.decisions
        assert result.crashed["p1"]
        assert result.all_correct_decided()  # crashed processes are excused

    def test_deterministic_under_seed(self):
        r1 = RandomScheduler(seed=9).run(one_writer_system())
        r2 = RandomScheduler(seed=9).run(one_writer_system())
        assert r1.schedule == r2.schedule

    def test_capture_restore_roundtrip(self):
        system = one_writer_system()
        snap = system.capture()
        system.step_proc("p0")
        system.restore(snap)
        assert not system.procs["p0"].started

    def test_nonquiescent_run_raises(self):
        class Spinner(Program):
            def init(self):
                return ("spin",)

            def step(self, local, response):
                return local, Invoke("reg", "read", ())

        system = System({"reg": AtomicRegister()}, {"p0": Spinner()})
        with pytest.raises(RuntimeError, match="did not quiesce"):
            RandomScheduler(seed=1, max_steps=50).run(system)

    def test_agreement_helper(self):
        result = RandomScheduler(seed=1).run(one_writer_system())
        assert result.agreement()


class TestExplorer:
    def test_explores_all_terminal_states(self):
        result = explore(one_writer_system, predicate=lambda r: True)
        assert result.ok
        assert result.terminal_runs >= 1
        assert result.states_explored >= 3

    def test_finds_violation_with_schedule(self):
        # Predicate "decision is 'x'" fails; explorer must report it.
        result = explore(
            one_writer_system,
            predicate=lambda r: r.decisions.get("p0") == "x",
        )
        assert not result.ok
        assert result.first_violation_schedule() is not None

    def test_two_proc_interleavings_covered(self):
        def make():
            return System(
                objects={"reg": AtomicRegister()},
                programs={"p0": WriteThenDecide("a"), "p1": WriteThenDecide("b")},
            )

        outcomes = set()

        def predicate(run):
            outcomes.add(tuple(sorted(run.decisions.items())))
            return True

        explore(make, predicate)
        # Races must produce several distinct outcome combinations.
        assert len(outcomes) >= 2

    def test_crash_branches_explored(self):
        def make():
            return System(
                objects={"reg": AtomicRegister()},
                programs={"p0": WriteThenDecide("a"), "p1": WriteThenDecide("b")},
            )

        saw_crash = []

        def predicate(run):
            if any(run.crashed.values()):
                saw_crash.append(True)
            return True

        explore(make, predicate, max_crashes=1)
        assert saw_crash

    def test_step_bound_flags_non_wait_free(self):
        class Spinner(Program):
            def init(self):
                return ("spin",)

            def step(self, local, response):
                return local, Invoke("reg", "read", ())

        def make():
            return System({"reg": AtomicRegister()}, {"p0": Spinner()})

        with pytest.raises(RuntimeError, match="not wait-free"):
            explore(make, predicate=lambda r: True, per_proc_step_bound=10)
