"""The paper's concrete artifacts: figure histories and experiments.

:mod:`repro.paper.figures` rebuilds the exact example histories drawn in
Figures 2, 3 and 4 (and the Figure 13 update-agreement history) so the
checkers can reproduce the paper's stated verdicts block-for-block.
:mod:`repro.paper.experiments` hosts the constructive counterexamples of
the Section 4 theorems (4.4/4.5, 4.7, 4.8) and the experiment registry
that maps every figure/table id to its runnable.
"""
