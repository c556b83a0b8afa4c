"""Shared helpers for the benchmark gates.

Every paper-figure bench runs its experiment inside the ``benchmark``
fixture (so ``--benchmark-only`` measures it), prints the rows/series
the paper reports, asserts the qualitative *shape* (who wins, what is
violated, where the crossover is) and attaches the verdicts to
``benchmark.extra_info``.  The remaining suites are pass/fail gates;
committed performance numbers come from ``bench/run.py``.
"""

from __future__ import annotations

import pytest


@pytest.fixture
def report():
    """Print a titled block that survives in captured bench output."""

    def _print(title: str, body: str) -> None:
        print(f"\n{'=' * 72}\n{title}\n{'=' * 72}\n{body}\n")

    return _print
