"""The composed BT consistency criteria (Definitions 3.2 and 3.4).

A criterion is its property set: a name and an ordered tuple of names
from :data:`PROPERTIES`, the one table of the five property checkers.

* **BT Strong Consistency (SC)** = Block Validity ∧ Local Monotonic Read
  ∧ Strong Prefix ∧ Ever-Growing Tree.
* **BT Eventual Consistency (EC)** = Block Validity ∧ Local Monotonic
  Read ∧ Ever-Growing Tree ∧ Eventual Prefix.

Judging one history against both, pass one ``memo`` dict to both checks:
each shared property is then decided once and both reports hold the same
:class:`PropertyCheck` objects.

Theorem 3.1 (``H_SC ⊂ H_EC``) is visible structurally: SC's Strong Prefix
implies EC's Eventual Prefix (two chains of which one prefixes the other
share a maximal common prefix equal to the shorter one, whose score the
growing tree eventually exceeds); the hierarchy experiments re-verify it
empirically on sampled histories.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, Optional, Tuple

from repro.blocktree.score import ScoreFunction
from repro.consistency.properties import (
    PropertyCheck,
    check_block_validity,
    check_eventual_prefix,
    check_ever_growing_tree,
    check_local_monotonic_read,
    check_strong_prefix,
)
from repro.histories.continuation import ContinuationModel
from repro.histories.history import ConcurrentHistory

__all__ = [
    "CriterionReport",
    "Criterion",
    "BTStrongConsistency",
    "BTEventualConsistency",
]

#: Property name → its decision on ``(history, score, continuation)``.  The
#: entries look the checkers up when called, so rebinding one of this
#: module's names (the benchmark's span tracer does) reaches every criterion.
PROPERTIES = {
    "block-validity": lambda h, s, m: check_block_validity(h),
    "local-monotonic-read": lambda h, s, m: check_local_monotonic_read(h, s),
    "strong-prefix": lambda h, s, m: check_strong_prefix(h, m),
    "ever-growing-tree": lambda h, s, m: check_ever_growing_tree(h, s, m),
    "eventual-prefix": lambda h, s, m: check_eventual_prefix(h, s, m),
}


@dataclass(frozen=True)
class CriterionReport:
    """Aggregated verdict of a criterion: per-property results."""

    criterion: str
    checks: Dict[str, PropertyCheck]

    @property
    def ok(self) -> bool:
        """Whether every component property holds."""
        return all(c.ok for c in self.checks.values())

    def __bool__(self) -> bool:
        """Truthiness is the composed verdict (``if report: …``)."""
        return self.ok

    def failures(self) -> Dict[str, PropertyCheck]:
        """The failing properties with their witnesses."""
        return {n: c for n, c in self.checks.items() if not c.ok}

    def describe(self) -> str:
        """Multi-line summary like the paper's per-property discussion."""
        lines = [f"{self.criterion}: {'SATISFIED' if self.ok else 'VIOLATED'}"]
        for name, check in self.checks.items():
            mark = "✓" if check.ok else "✗"
            suffix = f" — {check.witness}" if check.witness else ""
            lines.append(f"  {mark} {name}{suffix}")
        return "\n".join(lines)


@dataclass
class Criterion:
    """A conjunction of :data:`PROPERTIES`, judged under one score function."""

    score: ScoreFunction
    name: ClassVar[str]
    properties: ClassVar[Tuple[str, ...]]

    def check(
        self,
        history: ConcurrentHistory,
        continuation: Optional[ContinuationModel] = None,
        *,
        memo: Optional[Dict[str, PropertyCheck]] = None,
    ) -> CriterionReport:
        """Evaluate the properties on ``history``, in :attr:`properties` order.

        ``memo`` holds verdicts already decided on the same history, score
        and continuation; the ones missing are decided and added to it.
        """
        model = continuation if continuation is not None else history.continuation
        memo = {} if memo is None else memo
        for prop in self.properties:
            if prop not in memo:
                memo[prop] = PROPERTIES[prop](history, self.score, model)
        checks = {prop: memo[prop] for prop in self.properties}
        return CriterionReport(criterion=self.name, checks=checks)


class BTStrongConsistency(Criterion):
    """The BT Strong Consistency criterion (Definition 3.2)."""

    name = "BT-Strong-Consistency"
    properties = (
        "block-validity",
        "local-monotonic-read",
        "strong-prefix",
        "ever-growing-tree",
    )
    #: In each criterion's own class body, so the span tracer times each apart.
    check = Criterion.check


class BTEventualConsistency(Criterion):
    """The BT Eventual Consistency criterion (Definition 3.4)."""

    name = "BT-Eventual-Consistency"
    properties = (
        "block-validity",
        "local-monotonic-read",
        "ever-growing-tree",
        "eventual-prefix",
    )
    check = Criterion.check
