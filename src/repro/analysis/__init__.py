"""Run analysis: metrics over protocol runs and ASCII rendering.

:mod:`repro.analysis.metrics` computes the quantities the benches report
(fork rate, convergence lag, divergence depth, chain quality);
:mod:`repro.analysis.tables` renders aligned ASCII tables and series so
every bench prints reproducible rows, mirroring how the paper presents
Table 1.
"""
