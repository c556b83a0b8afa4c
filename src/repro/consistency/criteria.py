"""The composed BT consistency criteria (Definitions 3.2 and 3.4).

* **BT Strong Consistency (SC)** = Block Validity ∧ Local Monotonic Read
  ∧ Strong Prefix ∧ Ever-Growing Tree.
* **BT Eventual Consistency (EC)** = Block Validity ∧ Local Monotonic
  Read ∧ Ever-Growing Tree ∧ Eventual Prefix.

Theorem 3.1 (``H_SC ⊂ H_EC``) is visible structurally: SC's Strong Prefix
implies EC's Eventual Prefix (two chains of which one prefixes the other
share a maximal common prefix equal to the shorter one, whose score the
growing tree eventually exceeds); the hierarchy experiments re-verify it
empirically on sampled histories.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set

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

__all__ = ["CriterionReport", "BTStrongConsistency", "BTEventualConsistency"]


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
class BTStrongConsistency:
    """The BT Strong Consistency criterion (Definition 3.2)."""

    score: ScoreFunction
    valid_block_ids: Optional[Set[str]] = None
    strict_order: bool = False

    def check(
        self,
        history: ConcurrentHistory,
        continuation: Optional[ContinuationModel] = None,
    ) -> CriterionReport:
        """Evaluate all four SC properties on ``history``."""
        model = continuation if continuation is not None else history.continuation
        checks = {
            "block-validity": check_block_validity(
                history, self.valid_block_ids, self.strict_order
            ),
            "local-monotonic-read": check_local_monotonic_read(history, self.score),
            "strong-prefix": check_strong_prefix(history, model),
            "ever-growing-tree": check_ever_growing_tree(history, self.score, model),
        }
        return CriterionReport(criterion="BT-Strong-Consistency", checks=checks)


@dataclass
class BTEventualConsistency:
    """The BT Eventual Consistency criterion (Definition 3.4)."""

    score: ScoreFunction
    valid_block_ids: Optional[Set[str]] = None
    strict_order: bool = False

    def check(
        self,
        history: ConcurrentHistory,
        continuation: Optional[ContinuationModel] = None,
    ) -> CriterionReport:
        """Evaluate all four EC properties on ``history``."""
        model = continuation if continuation is not None else history.continuation
        checks = {
            "block-validity": check_block_validity(
                history, self.valid_block_ids, self.strict_order
            ),
            "local-monotonic-read": check_local_monotonic_read(history, self.score),
            "ever-growing-tree": check_ever_growing_tree(history, self.score, model),
            "eventual-prefix": check_eventual_prefix(history, self.score, model),
        }
        return CriterionReport(criterion="BT-Eventual-Consistency", checks=checks)
