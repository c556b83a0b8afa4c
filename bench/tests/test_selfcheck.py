"""Self-check of the benchmark harness (not part of tier-1).

Run explicitly: ``python -m pytest bench/tests -q`` (about 20 s).  One
``--smoke --trace 1`` pass over all six workloads exercises every guard,
both cell kinds and the traced≡untraced ``sim_digest`` check; the
assertions pin the emitted names to ``BENCHMARK.json`` and every trace
boundary to ``src/``.
"""

from __future__ import annotations

import importlib.util
import json
import os
import re
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _load(name: str):
    """A bench module by path (``bench/trace.py`` shadows a stdlib name)."""
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", os.path.join(BENCH, f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("results")
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(BENCH, "run.py"),
            "--smoke",
            "--trace",
            "1",
            "--out",
            str(out),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=170,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return out, proc.stdout.strip().splitlines()


def test_declared_names_are_well_formed(spec):
    names = [
        m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]
    ]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    assert "setup_s" in {m["name"] for m in spec["end_to_end"]}


def test_smoke_emits_exactly_the_declared_metrics(spec, smoke):
    out, lines = smoke
    workloads = [w["name"] for w in spec["workloads"]]
    finals = [json.loads(line) for line in lines[-len(workloads) :]]
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    for workload, final in zip(workloads, finals):
        assert final["correct"] is True and final["failed"] == 0
        assert final["attempted"] == 2  # one untraced and one traced cell
        assert {k: v["unit"] for k, v in final["metrics"].items()} == per_layer
        with open(os.path.join(out, f"{workload}.json"), encoding="utf-8") as handle:
            result = json.load(handle)
        assert result["workload"] == workload
        assert set(result["end_to_end"]) == end_to_end
        assert all(m["value"] > 0 for m in result["end_to_end"].values())
        envelope = result["envelope"]
        assert set(envelope["units"]) == end_to_end | set(per_layer)
        for key in ("git_commit", "cpu_count", "python", "platform", "seed", "scale"):
            assert key in envelope
        assert os.path.exists(os.path.join(out, f"{workload}.trace.json"))


def test_each_workload_exercises_its_layer(spec, smoke):
    _, lines = smoke
    workloads = [w["name"] for w in spec["workloads"]]
    finals = {
        workload: {k: v["value"] for k, v in json.loads(line)["metrics"].items()}
        for workload, line in zip(workloads, lines[-len(workloads) :])
    }
    busy = {
        "tx-flood-n16": ("net.process.transmit_self_s", "mempool.add_batch_self_s"),
        "tx-reconcile-n16": ("net.sketch.build_self_s", "util.prf_uint64.self_s"),
        "gossip-smallworld-n1k": ("net.simulator.self_s", "blocktree.add_block_self_s"),
        "lifecycle-signed-n8": ("consistency.strong_s", "net.sync.self_s"),
        "shard-signed-k4-n8": (
            "shard.node.on_message_self_s",
            "crypto.auth.verify_self_s",
        ),
        "table1-default": ("consensus.pbft.self_s", "consensus.ba_star.self_s"),
    }
    idle = {
        "tx-flood-n16": ("net.sketch.build_calls", "crypto.auth.check_tx_calls"),
        "tx-reconcile-n16": (
            "crypto.auth.check_tx_calls",
            "net.overlay.neighbors_calls",
        ),
        "gossip-smallworld-n1k": ("mempool.add_batch_calls", "net.sketch.build_calls"),
        "lifecycle-signed-n8": ("mempool.add_batch_calls", "shard.locks"),
        "shard-signed-k4-n8": ("consensus.pbft.on_message_calls", "storage.put_calls"),
        "table1-default": ("mempool.add_batch_calls", "storage.put_calls"),
    }
    for workload, metrics in finals.items():
        assert all(metrics[name] > 0 for name in busy[workload]), workload
        assert all(metrics[name] == 0 for name in idle[workload]), workload
        assert metrics["trace.overhead_ratio"] > 0


def test_every_trace_boundary_resolves_against_src():
    sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]
    try:
        import workloads  # noqa: F401  (loads every protocol and layer module)

        trace = _load("trace")
        for layer, op, target in trace.BOUNDARIES:
            assert NAME.fullmatch(f"{layer}.{op}")
            assert trace.resolve(target), target
    finally:
        del sys.path[:2]


def test_compare_calls_a_run_the_same_as_itself(smoke):
    out, _ = smoke
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "compare.py"), str(out), str(out)],
        stdout=subprocess.PIPE,
        text=True,
        timeout=60,
        check=False,
    )
    assert proc.returncode == 0
    assert "worse" not in proc.stdout and "changed" not in proc.stdout
    assert proc.stdout.count("identical") == 6
