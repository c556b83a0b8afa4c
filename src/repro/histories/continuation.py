"""Continuation declarations: decidable liveness on finite histories.

The paper's Ever-Growing Tree and Eventual Prefix properties quantify over
*infinite* histories (``E(a*, r*)`` / ``E(a, r*)``).  A finite recording
cannot witness them directly, but the executions the paper reasons about —
its Figures 2–4 and the counterexamples of Lemmas 4.4/4.5 — are all
*eventually regular*: after the recorded prefix, each process either

* keeps **growing** one branch (issuing appends and reads forever), or
* is **frozen** on its final chain (its replica never changes again),

and either keeps issuing reads forever or stops reading.  Growing
processes are partitioned into *growth groups*: members of one group
extend a single common branch (their pairwise maximal common prefix grows
without bound), while chains of different groups — and of frozen
processes — share at most the common prefix of their final chains,
forever.

Under such a declaration every liveness clause reduces to a finite check;
:mod:`repro.consistency.properties` implements the reductions and
``DESIGN.md`` documents the semantics.  When no continuation is supplied,
a finite history is interpreted as *complete* (all processes stop), which
satisfies the liveness clauses vacuously — only safety clauses can fail.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

__all__ = ["GrowthMode", "Continuation", "ContinuationModel"]


class GrowthMode(enum.Enum):
    """How a process's replica evolves after the recorded prefix."""

    GROWING = "growing"
    FROZEN = "frozen"


@dataclass(frozen=True)
class Continuation:
    """Declared future behaviour of one process.

    ``reads_forever`` — the process issues infinitely many further reads.
    ``mode`` — whether its adopted chain keeps growing or stays fixed.
    ``group`` — growth-group name (only meaningful when ``GROWING``);
    processes in the same group converge on one branch.
    """

    reads_forever: bool = True
    mode: GrowthMode = GrowthMode.GROWING
    group: str = "main"


@dataclass
class ContinuationModel:
    """Per-process continuation declarations for a finite history."""

    per_process: Dict[str, Continuation] = field(default_factory=dict)

    @staticmethod
    def all_growing(procs: Iterable[str], group: str = "main") -> "ContinuationModel":
        """Every process keeps reading and growing the same branch."""
        return ContinuationModel(
            {p: Continuation(True, GrowthMode.GROWING, group) for p in procs}
        )

    @staticmethod
    def diverging(procs: Iterable[str]) -> "ContinuationModel":
        """Every process grows its *own* branch forever (Figure 4 shape)."""
        return ContinuationModel(
            {p: Continuation(True, GrowthMode.GROWING, f"group-{p}") for p in procs}
        )

    @staticmethod
    def complete(procs: Iterable[str]) -> "ContinuationModel":
        """The run is over: everyone frozen, nobody reads again."""
        return ContinuationModel(
            {p: Continuation(False, GrowthMode.FROZEN, "none") for p in procs}
        )

    def of(self, proc: str) -> Optional[Continuation]:
        """The declaration for ``proc`` (``None`` if undeclared)."""
        return self.per_process.get(proc)

    def set(self, proc: str, continuation: Continuation) -> None:
        """Declare (or overwrite) the continuation of ``proc``."""
        self.per_process[proc] = continuation

    def reads_forever_procs(self) -> list[str]:
        """Processes declared to issue infinitely many further reads."""
        return sorted(p for p, c in self.per_process.items() if c.reads_forever)
