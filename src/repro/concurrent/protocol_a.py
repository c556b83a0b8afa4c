"""Protocol A (Figure 11): Consensus from the frugal oracle Θ_F,k=1.

Upon ``propose(b)`` a process loops ``getToken(b0, b)`` until the oracle
grants a (valid) block, then invokes ``consumeToken`` and decides the
returned set.  With ``k = 1`` the set ``K[b0]`` holds exactly the first
consumed block and is returned unchanged to every later consumer, so all
processes decide the same singleton — Consensus with the external
Validity of Definition 4.1 (the decided block is oracle-validated, i.e.
satisfies ``P``; it may originate from any process, including a faulty
one, matching the [11]-style Validity the paper adopts).

Theorem 4.2's statement (consensus number ∞) is certified experimentally:
:func:`build_protocol_a_system` instances are explored over *all*
interleavings for n = 2, 3 (and under crash failures), and randomly for
larger n — Agreement, Validity, Integrity and wait-free Termination hold
on every run.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.blocktree.block import make_block
from repro.concurrent.scheduler import Decide, Done, Invoke, Program, System
from repro.oracle.theta import ThetaOracle, ThetaState

__all__ = ["ProtocolA", "build_protocol_a_system", "protocol_a_validity"]

HOLDER = "b0"


class ProtocolA(Program):
    """The Figure 11 state machine for one proposing process.

    The proposed block is a descriptor on ``b0`` labelled with the
    process's proposal.
    """

    def __init__(self, merit_id: str, proposal: Any) -> None:
        self.get_token_call = Invoke(
            "oracle", "get_token", (HOLDER, make_block(HOLDER, label=proposal), merit_id)
        )

    def init(self) -> Any:
        return ("begin",)

    def step(self, local: Any, response: Any) -> Tuple[Any, Any]:
        phase = local[0]
        if phase == "begin":
            return ("await_token",), self.get_token_call
        if phase == "await_token":
            if response is None:  # tape cell was ⊥ — loop (lines 3–4)
                return ("await_token",), self.get_token_call
            return ("await_consume",), Invoke("oracle", "consume_token", (response,))
        if phase == "await_consume":
            return ("decided",), Decide(response)  # the validBlockSet (line 6)
        return local, Done()


def build_protocol_a_system(
    n: int,
    seed: int = 1,
    probability: float = 1.0,
    proposals: Optional[Dict[str, Any]] = None,
) -> System:
    """A system of ``n`` Protocol A processes over one Θ_F,k=1 oracle.

    ``probability`` is every process's tape probability; exhaustive
    exploration uses 1.0 so the getToken loop has bounded length, while
    randomized runs exercise the retry loop with lower values.
    """
    oracle = ThetaOracle(ThetaState(k=1, seed=seed, default_probability=probability))
    programs: Dict[str, Program] = {}
    for i in range(n):
        name = f"p{i}"
        value = proposals[name] if proposals else f"block-{name}"
        programs[name] = ProtocolA(merit_id=name, proposal=value)
    return System(objects={"oracle": oracle}, programs=programs)


def protocol_a_validity(run_result, proposals: Dict[str, Any]) -> bool:
    """Definition 4.1 Validity: every decided set holds a proposed block.

    Decisions are sets ``K[b0]`` of tokenized blocks; each must be a
    singleton whose block's label was actually proposed by some process
    (oracle-tokenized ⇒ satisfies ``P``).
    """
    proposed = set(proposals.values())
    return all(
        len(decided) == 1 and decided[0].block.label in proposed
        for decided in run_result.decisions.values()
    )
