"""The paper's shared-memory reductions (Figures 9, 10, 12).

* :class:`CASFromConsumeToken` — Figure 10: a wait-free implementation of
  ``Compare&Swap(K[h], {}, b)`` by a single ``consumeToken`` invocation on
  a Θ_F,k=1 CT object (Theorem 4.1).  Since CAS has consensus number ∞,
  so has ``consumeToken`` — half of Theorem 4.2.
* :class:`CASConsensusProgram` — the classic consensus-from-CAS program
  used to certify the CAS object itself (and hence, composed with
  Figure 10, consensus from the frugal oracle) on all interleavings.
* :class:`SnapshotConsumeToken` — Figure 12: the prodigal
  ``consumeToken`` implemented from Atomic Snapshot (``update`` own
  register then ``scan``), witnessing that Θ_P needs nothing stronger
  than a consensus-number-1 object (Theorem 4.3).
"""

from __future__ import annotations

from typing import Any, Tuple

from repro.concurrent.objects import ConsumeTokenObject
from repro.concurrent.scheduler import Decide, Done, Invoke, Program

__all__ = [
    "CASFromConsumeToken",
    "cas_compare_and_swap",
    "CASConsensusProgram",
    "SnapshotConsumeToken",
]


# ---------------------------------------------------------------------------
# Figure 10 — CAS from consumeToken (sequential wrapper + Program form).
# ---------------------------------------------------------------------------


def cas_compare_and_swap(ct: ConsumeTokenObject, holder: Any, value: Any) -> Any:
    """Figure 10 verbatim: ``compare&swap(K[h], {}, b)`` by CT.

    ``returned ← consumeToken(b)``; if ``returned == {b}`` the CAS
    succeeded and the previous value was empty, so return ``{}`` (here the
    empty tuple); otherwise return ``returned`` (the value that was
    already in ``K[h]``).
    """
    returned = ct.apply("consume", (holder, value))
    if returned == (value,):
        return ()
    return returned


class CASFromConsumeToken(Program):
    """Program form of Figure 10: one CAS attempt, decide its return value.

    Used by the model checker to certify, over all interleavings, the CAS
    semantics: exactly one process observes the empty previous value and
    everyone else observes the winner's value.
    """

    def __init__(self, holder: Any, value: Any) -> None:
        self.holder = holder
        self.value = value

    def init(self) -> Any:
        return ("begin",)

    def step(self, local: Any, response: Any) -> Tuple[Any, Any]:
        phase = local[0]
        if phase == "begin":
            return ("await",), Invoke("ct", "consume", (self.holder, self.value))
        if phase == "await":
            returned = () if response == (self.value,) else response
            return ("decided",), Decide(returned)
        return local, Done()


# ---------------------------------------------------------------------------
# Consensus from CAS — the standard construction certifying consensus number.
# ---------------------------------------------------------------------------


class CASConsensusProgram(Program):
    """Propose ``value``: ``prev ← cas(⊥, value)``; decide winner.

    With a single CAS register, the first CAS installs its value; every
    process decides the installed value — Agreement, Validity, Integrity
    and wait-free Termination hold on every schedule, which the explorer
    verifies exhaustively for small n.
    """

    def __init__(self, value: Any) -> None:
        self.value = value

    def init(self) -> Any:
        return ("begin",)

    def step(self, local: Any, response: Any) -> Tuple[Any, Any]:
        phase = local[0]
        if phase == "begin":
            return ("await",), Invoke("reg", "cas", (None, self.value))
        if phase == "await":
            decided = self.value if response is None else response
            return ("decided",), Decide(decided)
        return local, Done()


# ---------------------------------------------------------------------------
# Figure 12 — prodigal consumeToken from Atomic Snapshot.
# ---------------------------------------------------------------------------


class SnapshotConsumeToken(Program):
    """Figure 12: ``consumeToken_k(tkn_m)`` by Atomic Snapshot (Θ_P).

    Process ``m`` owns segment ``m`` of the snapshot object for holder
    ``h``: it updates its segment with its token, then scans and decides
    the scan (the set ``K[h]`` it observed).  Because updates are never
    refused, this implements the *prodigal* consume (k = ∞); the checker
    verifies that every process's scan contains its own token and that
    scans are totally ordered by inclusion (linearizability of snapshot).
    """

    def __init__(self, index: int, token: Any) -> None:
        self.index = index
        self.token = token

    def init(self) -> Any:
        return ("begin",)

    def step(self, local: Any, response: Any) -> Tuple[Any, Any]:
        phase = local[0]
        if phase == "begin":
            return ("updated",), Invoke("snap", "update", (self.index, self.token))
        if phase == "updated":
            return ("scanned",), Invoke("snap", "scan", ())
        if phase == "scanned":
            observed = tuple(v for v in response if v is not None)
            return ("decided",), Decide(observed)
        return local, Done()


def scans_totally_ordered(scans: list[tuple]) -> bool:
    """Whether a set of scan results is totally ordered by inclusion.

    Atomic snapshots linearize, so the multiset of observed values along
    any execution must form a chain under ⊆ — the property the Figure 12
    experiment checks across all interleavings.
    """
    as_sets = sorted((set(s) for s in scans), key=len)
    return all(a <= b for a, b in zip(as_sets, as_sets[1:]))
