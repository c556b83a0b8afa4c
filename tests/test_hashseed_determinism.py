"""A bench cell's simulated result does not depend on the string-hash seed.

``bench/run.py`` rejects a run whose two repeats of one input disagree
on ``sim_digest``, and every repeat is a fresh interpreter with its own
``PYTHONHASHSEED``.  Anything that lets str-hash set order reach the
simulation (iterating a set of block ids into a decision, say) would
fail there only on some runs.  This test pins the seed instead: it runs
``bench/cell.py --smoke 1`` under two hash seeds and requires the same
digest and no tripped guard.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

CELL = Path(__file__).resolve().parents[1] / "bench" / "cell.py"

#: ``table1-default`` runs every Table 1 protocol and BlockTree in each;
#: ``lifecycle-signed-n8`` adds crash/log-store replay, sync and auth.
WORKLOADS = ("table1-default", "lifecycle-signed-n8")

HASH_SEEDS = ("0", "1")


def _run_cell(workload: str, hash_seed: str, tmp: Path) -> dict:
    command = [sys.executable, str(CELL), "--workload", workload, "--seed", "2024"]
    command += ["--index", "0", "--smoke", "1", "--tmp", str(tmp)]
    proc = subprocess.run(
        command + ["--spawned-at", repr(time.monotonic())],
        env=dict(os.environ, PYTHONHASHSEED=hash_seed),
        stdout=subprocess.PIPE,
        text=True,
        timeout=120,
        check=False,
    )
    lines = proc.stdout.strip().splitlines()
    assert lines, f"{workload} under PYTHONHASHSEED={hash_seed}: no output"
    return json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_sim_digest_is_independent_of_the_hash_seed(workload, tmp_path):
    cells = {}
    for hash_seed in HASH_SEEDS:
        store_dir = tmp_path / f"hash-{hash_seed}"
        store_dir.mkdir()
        cells[hash_seed] = _run_cell(workload, hash_seed, store_dir)
    for hash_seed, cell in cells.items():
        assert "guard" not in cell, (hash_seed, cell["guard"])
    digests = {hash_seed: cell["sim_digest"] for hash_seed, cell in cells.items()}
    assert len(set(digests.values())) == 1, digests
