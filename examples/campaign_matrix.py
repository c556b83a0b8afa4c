#!/usr/bin/env python
"""Classify Table 1 systems across an adversarial campaign grid.

Where ``classify_protocols.py`` regenerates the paper's Table 1 from one
default run per system, this example measures the whole (protocol ×
adversarial scenario × seed) grid with the campaign engine and shows how
verdicts *shift* under adversity: a committee protocol that is Strongly
consistent on a quiet network can degrade to Eventual consistency under
a healing partition, and the stability column says how often a verdict
held across seed replicates.

Run:  python examples/campaign_matrix.py           (3×3 grid, ~seconds)
      python -m repro.campaign --workers 4         (the full 7×6 grid)
"""

import sys

from repro.campaign.engine import run_campaign
from repro.campaign.grid import CampaignGrid


def main(quick: bool = True) -> None:
    grid = CampaignGrid(
        protocols=("bitcoin", "byzcoin", "hyperledger"),
        scenarios=("default", "partition-heal", "selfish-miner"),
        seeds=(2024, 2025),
        n_nodes=4,
        duration=120.0 if quick else 240.0,
    )
    matrix = run_campaign(grid, workers=2)
    print(matrix.render())
    print()
    for protocol in grid.protocols:
        shifts = [
            f"{scenario}: {matrix.modal_verdict(protocol, scenario)} "
            f"(stability {matrix.stability(protocol, scenario):.0%})"
            for scenario in grid.scenarios
        ]
        print(f"{protocol:12s} " + " | ".join(shifts))
    cells = len(matrix.cells)
    events = sum(c.events for c in matrix.cells)
    print(f"\n{cells} cells, {events:,} simulator events, "
          f"{matrix.total_unknown_append_resolutions()} unknown append resolutions")


if __name__ == "__main__":
    main(quick="--full" not in sys.argv)
