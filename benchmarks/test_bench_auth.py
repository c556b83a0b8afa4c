"""Authenticated-pipeline gates: signing cost, batched verify, forgery containment.

Not a paper figure — these gate the signed block/transaction pipeline
(``scenario.auth``, see :mod:`repro.crypto.auth`):

* **throughput gate** — Bitcoin under the steady client-traffic preset,
  signed vs unsigned.  Witness segregation plus size-independent
  channel delays make the two runs commit identical chains (a tier-1
  test, ``tests/test_auth.py``), so the only cost of authentication is
  verification CPU: signed committed tx per wall-second must stay within
  2× of unsigned (ratio ≥ 0.5).
* **batch-verify gate** — a replica closing a 50k-block gap
  cross-fetches the range from 4 peers (the untrusted-serve model: a
  single peer can lie by omission, so sync radius > 1) and then adopts
  every block.  Naive verification (full digest recomputation per
  delivery per block, ``amortize=False``, no cache) against the
  batched+cached pipeline (midstate-amortized ``prime_batch`` once,
  cache hits on the redundant deliveries and the adoption pass) must
  show ≥ 5× speedup.
* **forgery gate** — every signature adversary preset
  (forged-signature / equivocating-signer / stolen-identity) crossed
  with both gossip transports and a fault composition (partition or
  churn): zero adversary-attributed blocks on any honest replica's
  selected chain, honest chains keep growing, and the matching typed
  reject reason fires.

Serial ≡ parallel auth campaigns are a tier-1 test
(``tests/test_campaign.py``).
"""

import dataclasses
import gc
import json
import time

from repro.blocktree.block import GENESIS, make_block
from repro.campaign.grid import AUTH_SCENARIO_PRESETS
from repro.crypto.auth import BlockAuthenticator, build_registry
from repro.protocols.base import ProtocolRun
from repro.protocols.bitcoin import BitcoinNode, run_bitcoin
from repro.workloads.scenarios import (
    ChurnEvent,
    PartitionWindow,
    ProtocolScenario,
    adversarial_scenarios,
)
from repro.workloads.traffic import traffic_presets

_DURATION = 240.0

_GAP = 50_000  # blocks in the batch-verify sync gap
_DELIVERIES = 4  # redundant peers serving the gap
_SPEEDUP_GATE = 5.0
_THROUGHPUT_GATE = 0.5  # signed tx/s ≥ half of unsigned


def _traffic_scenario(auth: bool) -> ProtocolScenario:
    return ProtocolScenario(
        name="auth-throughput",  # same name both runs: same traffic tape
        n_nodes=5,
        duration=_DURATION,
        mean_block_interval=10.0,
        tx_per_block=6,
        auth=auth,
        traffic=traffic_presets(_DURATION)["steady"],
    )


def test_bench_signed_throughput(report):
    """Gate: signed committed tx per wall-second within 2× of unsigned."""
    rows = {}
    for label, auth in (("unsigned", False), ("signed", True)):
        t0 = time.perf_counter()
        run = run_bitcoin(_traffic_scenario(auth))
        wall = time.perf_counter() - t0
        committed = run.mempool_stats()["committed"]["txs"]
        rows[label] = {
            "wall_seconds": round(wall, 4),
            "committed_txs": committed,
            "committed_tx_per_wall_s": round(committed / wall, 1),
        }
    ratio = (
        rows["signed"]["committed_tx_per_wall_s"]
        / rows["unsigned"]["committed_tx_per_wall_s"]
    )
    report(
        "Signed vs unsigned throughput, bitcoin + steady traffic "
        f"(gate: ratio ≥ {_THROUGHPUT_GATE})",
        json.dumps({**rows, "ratio": round(ratio, 3)}, indent=2),
    )
    assert rows["signed"]["committed_txs"] > 0, "signed run committed nothing"
    assert ratio >= _THROUGHPUT_GATE, (
        f"signed throughput ratio {ratio:.3f} below the {_THROUGHPUT_GATE} gate"
    )


def _signed_gap(n: int):
    signer = BlockAuthenticator(build_registry(7, ("p0",)))
    blocks = []
    parent = GENESIS
    for i in range(n):
        parent = make_block(parent, label=f"b{i}", creator=0)
        blocks.append(signer.sign_block(parent, "p0"))
    return blocks


def _sync_cost(auth: BlockAuthenticator, blocks) -> float:
    """Wall-clock for ``_DELIVERIES`` redundant batch deliveries plus the
    final adoption pass (``check_block`` per block), i.e. every point the
    receive path verifies a signature while closing the gap.  Cycle GC is
    paused so a large heap left by earlier bench sections cannot bill
    collection pauses to either strategy, and verdicts are tallied (not
    asserted per block — pytest's assertion rewriting would dominate the
    timed loop) and checked by the caller."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(_DELIVERIES):
            auth.prime_batch(blocks)
        check = auth.check_block
        ok = sum(1 for block in blocks if check(block) == "ok")
        elapsed = time.perf_counter() - t0
    finally:
        gc.enable()
    assert ok == len(blocks), "adoption pass rejected signed blocks"
    return elapsed


def test_bench_batched_verify(report):
    """Gate: batched+cached verify ≥ 5× naive on a 50k-block gap."""
    blocks = _signed_gap(_GAP)
    # Warm both paths on a slice so allocator/midstate effects are not
    # billed to either strategy, then take the best of 3 runs each (a
    # fresh authenticator per run — the cache must not carry over):
    # wall-clock minima are robust against background load.
    _sync_cost(BlockAuthenticator(build_registry(7, ("p0",))), blocks[:2000])
    _sync_cost(
        BlockAuthenticator(build_registry(7, ("p0",)), cache_cap=0, amortize=False),
        blocks[:2000],
    )
    naive = min(
        _sync_cost(
            BlockAuthenticator(
                build_registry(7, ("p0",)), cache_cap=0, amortize=False
            ),
            blocks,
        )
        for _ in range(3)
    )
    fast = None
    for _ in range(3):
        fast_auth = BlockAuthenticator(build_registry(7, ("p0",)))
        trial = _sync_cost(fast_auth, blocks)
        fast = trial if fast is None else min(fast, trial)
    checks = _GAP * (_DELIVERIES + 1)
    row = {
        "gap_blocks": _GAP,
        "deliveries": _DELIVERIES,
        "signature_checks": checks,
        "naive_seconds": round(naive, 4),
        "batched_seconds": round(fast, 4),
        "naive_us_per_check": round(naive / checks * 1e6, 3),
        "batched_us_per_check": round(fast / checks * 1e6, 3),
        "cache_hits": fast_auth.counters["cache_hits"],
        "batch_primed": fast_auth.counters["batch_primed"],
        "speedup": round(naive / fast, 2),
    }
    report(
        "Batched+cached verification, 50k-block gap × 4 redundant peers "
        f"(gate: ≥ {_SPEEDUP_GATE}× vs naive per-delivery recomputation)",
        json.dumps(row, indent=2),
    )
    assert row["batch_primed"] == _GAP, "prime did not verify the whole gap"
    assert row["cache_hits"] >= _GAP, "adoption pass missed the cache"
    assert row["speedup"] >= _SPEEDUP_GATE, (
        f"batched verify speedup {row['speedup']}× below the "
        f"{_SPEEDUP_GATE}× gate"
    )


def _fault_variants(preset):
    """(fault label, scenario) compositions for one adversary preset."""
    names = preset.node_names()
    half = len(names) // 2
    return (
        (
            "partition",
            dataclasses.replace(
                preset,
                partitions=(
                    PartitionWindow(
                        groups=(names[:half], names[half:]),
                        start=preset.duration / 4,
                        heal_at=preset.duration / 2,
                    ),
                ),
            ),
        ),
        (
            "churn",
            dataclasses.replace(
                preset,
                churn=(
                    ChurnEvent(
                        node=names[-1],
                        leave_at=preset.duration / 4,
                        rejoin_at=preset.duration / 2,
                    ),
                ),
            ),
        ),
    )


_EXPECTED_REJECT = {
    "forged-signature": "block:bad-digest",
    "equivocating-signer": "block:equivocation",
    "stolen-identity": "block:wrong-signer",
}


def test_bench_forgery_containment(report):
    """Gate: adversary output contained in honest chains, all compositions.

    Forged-signature and stolen-identity blocks are individually invalid,
    so the gate is *zero* adversary-attributed blocks on any honest
    chain.  An equivocator's individual blocks are digest-valid — only
    the rival *pair* is provable misbehaviour, and a partition can drop
    one variant forever, leaving the survivor indistinguishable from an
    honest block.  There the gate is the paper-level safety property:
    no (parent) slot commits two different rivals across honest chains,
    and no replica keeps a block its own evidence has banned.
    """
    presets = adversarial_scenarios(n_nodes=4, duration=_DURATION)
    rows = []
    for kind in AUTH_SCENARIO_PRESETS:
        preset = presets[kind]
        byz = dict(preset.byzantine)
        bad_creators = {int(name[1:]) for name in byz}
        for gossip in ("flood", "reconcile"):
            for fault, base in _fault_variants(preset):
                scenario = dataclasses.replace(
                    base, name=f"{kind}-{gossip}-{fault}", gossip=gossip
                )
                run = ProtocolRun.execute(BitcoinNode, scenario)
                leaked = 0
                banned_on_chain = 0
                heights = []
                adversary_slots: dict = {}
                for node in run.nodes:
                    if node.name in byz:
                        continue
                    chain = node.select_chain()
                    heights.append(chain.height)
                    chain_ids = {b.block_id for b in chain.blocks}
                    banned_on_chain += len(chain_ids & node.auth.banned_ids)
                    for b in chain.blocks:
                        if b.creator in bad_creators:
                            leaked += 1
                            adversary_slots.setdefault(b.parent_id, set()).add(
                                b.block_id
                            )
                conflicting_slots = sum(
                    1 for rivals in adversary_slots.values() if len(rivals) > 1
                )
                totals = run.auth_stats()["totals"]
                rows.append(
                    {
                        "adversary": kind,
                        "transport": gossip,
                        "fault": fault,
                        "honest_heights": sorted(heights),
                        "leaked_adversary_blocks": leaked,
                        "conflicting_slots": conflicting_slots,
                        "banned_on_chain": banned_on_chain,
                        "rejects": {
                            k: v for k, v in totals.items() if ":" in k and v
                        },
                        "expected_reject": _EXPECTED_REJECT[kind],
                    }
                )
    report(
        "Forgery containment, adversary × transport × fault "
        "(gates: forged/stolen leak zero blocks; equivocators never get "
        "two rivals of one slot committed; no self-banned block kept)",
        json.dumps(rows, indent=2),
    )
    for row in rows:
        label = f"{row['adversary']}/{row['transport']}/{row['fault']}"
        if row["adversary"] != "equivocating-signer":
            assert row["leaked_adversary_blocks"] == 0, f"{label} leaked blocks"
        assert row["conflicting_slots"] == 0, f"{label} committed a rival pair"
        assert row["banned_on_chain"] == 0, f"{label} kept a banned block"
        assert min(row["honest_heights"]) > 0, f"{label} stalled honest chains"
    # The typed reason must fire for each adversary kind somewhere in its
    # compositions (not necessarily all of them: under a partition both
    # rivals of a pre-heal equivocation slot may never meet at one
    # replica, in which case there is nothing to reject — and nothing
    # unsafe, as the conflicting-slot gate above proves).
    for kind in AUTH_SCENARIO_PRESETS:
        fired = sum(
            row["rejects"].get(row["expected_reject"], 0)
            for row in rows
            if row["adversary"] == kind
        )
        assert fired > 0, f"{kind} never rejected with {_EXPECTED_REJECT[kind]}"
