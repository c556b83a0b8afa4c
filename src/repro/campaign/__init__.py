"""Parallel protocol-campaign engine: Table 1 across the adversarial grid.

The paper's Table 1 classifies each system from one run of one default
scenario.  This package measures the whole (protocol × adversarial
scenario × seed) grid instead:

* :mod:`repro.campaign.grid` — declarative :class:`CampaignGrid` specs
  expanded into independent :class:`CampaignCell`\\ s with SHA-256-derived
  per-cell seed streams and per-cell store directories;
* :mod:`repro.campaign.engine` — :func:`run_cell` (the single-cell
  executor ``classify_protocol`` wraps) and :func:`run_campaign` (serial
  or ``multiprocessing`` pool execution, identical matrices either way);
* :mod:`repro.campaign.matrix` — :class:`CellResult` measurements folded
  into a :class:`CampaignMatrix`: verdicts + stability per coordinate,
  JSON/CSV serialization, ASCII rendering.

Run ``python -m repro.campaign --help`` for the command-line front end.
"""
