"""Tests for open-loop client-traffic scenarios and their schedules."""

from __future__ import annotations

import hashlib
from collections import Counter

import pytest

from repro.workloads.traffic import (
    COINS_PER_CLIENT,
    ClientTrafficScenario,
    shard_traffic_presets,
    traffic_presets,
)

NODES = ("p0", "p1", "p2", "p3")


class TestValidation:
    def test_presets_validate(self):
        for preset in traffic_presets().values():
            preset.validate()

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ClientTrafficScenario(name="")
        with pytest.raises(ValueError):
            ClientTrafficScenario(name="x", rate=0.0)
        with pytest.raises(ValueError):
            ClientTrafficScenario(name="x", spam_rate=1.5)


class TestCoinUniverse:
    def test_clients_have_disjoint_namespaces(self):
        traffic = ClientTrafficScenario(name="x", n_clients=4)
        coins = traffic.genesis_coins()
        assert len(coins) == 4 * COINS_PER_CLIENT == len(set(coins))

    def test_universe_scales_with_fleet(self):
        small = ClientTrafficScenario(name="x", n_clients=2).genesis_coins()
        large = ClientTrafficScenario(name="x", n_clients=8).genesis_coins()
        assert set(small) < set(large)


class TestSchedule:
    def test_deterministic_per_seed(self):
        traffic = traffic_presets()["steady"]
        a = traffic.compile_submissions(NODES, seed=77, duration=200.0)
        b = traffic.compile_submissions(NODES, seed=77, duration=200.0)
        assert a == b
        c = traffic.compile_submissions(NODES, seed=78, duration=200.0)
        assert a != c

    def test_horizon_and_rate(self):
        traffic = ClientTrafficScenario(name="x", rate=2.0)
        subs = traffic.compile_submissions(NODES, seed=1, duration=300.0)
        assert all(0.0 <= s.time < 300.0 for s in subs)
        total = sum(len(s.txs) for s in subs)
        # Poisson arrivals around rate*duration = 600 transactions.
        assert 350 < total < 900

    def test_regional_skew_concentrates_ingress(self):
        skewed = ClientTrafficScenario(name="skew", rate=2.0, ingress_skew=2.5)
        subs = skewed.compile_submissions(NODES, seed=9, duration=400.0)
        counts = Counter(s.ingress for s in subs)
        assert counts["p0"] > 3 * counts.get("p3", 0)

    def test_uniform_ingress_spreads(self):
        steady = traffic_presets()["steady"]
        subs = steady.compile_submissions(NODES, seed=9, duration=400.0)
        counts = Counter(s.ingress for s in subs)
        assert set(counts) == set(NODES)

    def test_spam_flood_emits_duplicates_and_zero_fees(self):
        spam = traffic_presets()["spam-flood"]
        subs = spam.compile_submissions(NODES, seed=3, duration=300.0)
        spam_batches = [
            s for s in subs if len({tx.tx_id for tx in s.txs}) == 1 and len(s.txs) > 1
        ]
        assert spam_batches, "no duplicate flood batches generated"
        assert all(tx.fee == 0.0 for s in spam_batches for tx in s.txs)

    def test_honest_streams_carry_fees(self):
        steady = traffic_presets()["steady"]
        subs = steady.compile_submissions(NODES, seed=3, duration=120.0)
        fees = [tx.fee for s in subs for tx in s.txs]
        assert any(fee > 0 for fee in fees)



#: Two seeds per preset, and the sha256 of each compiled schedule over
#: ``(time, ingress, tx ids)`` lines, in ``SEEDS`` order.
SEEDS = (7, 2024)
SCHEDULE_DIGESTS = {
    "steady": (
        "2a0e2889c004f9d67c27c2910b3550dc32eea8c64f2511d2a9a89d8c4e309bc1",
        "99c0253b35fe3859c81a2beb29ff09c0e7a85130f0a6a3b8e93c59e17c2a8db9",
    ),
    "spam-flood": (
        "34a07b9c1ef671dea4ab6a26f4a6ad753175e4a25060b399b0ad7107c7a127e1",
        "0423a041a52dfd6ae16ada5acf147adad684fa4c314a598dbe3bdf48ef349aff",
    ),
    "shard-uniform": (
        "1bbfe8b8792119b9623d38002ac28059743301418eecd42870c4954842bfe020",
        "c73394538f01b6c0f510d8b06e1fa4e4adb677b3f5feb319fee6729e68dbf1d1",
    ),
    "shard-hot": (
        "ca2008d45626feccb1d387140424b5c64481d57e21857d88520d3ac190ac993f",
        "77b40615345a4608bbafadf0f191597990760e534098d6efc2d462fecf77df64",
    ),
}


def _schedule_digest(lines):
    digest = hashlib.sha256()
    for line in lines:
        digest.update(f"{line}\n".encode())
    return digest.hexdigest()


def _lines(subs, prefix=""):
    return (
        f"{prefix}{s.time!r} {s.ingress} {','.join(tx.tx_id for tx in s.txs)}"
        for s in subs
    )


class TestScheduleDigests:
    """The compiled schedules, pinned bit for bit: a change to the
    schedule loop must draw from the RNG in the same order."""

    @pytest.mark.parametrize("index", range(len(SEEDS)))
    @pytest.mark.parametrize("preset", ["steady", "spam-flood"])
    def test_single_chain(self, preset, index):
        traffic = traffic_presets()[preset]
        subs = traffic.compile_submissions(NODES, SEEDS[index], 240.0)
        assert _schedule_digest(_lines(subs)) == SCHEDULE_DIGESTS[preset][index]

    @pytest.mark.parametrize("index", range(len(SEEDS)))
    @pytest.mark.parametrize("preset", ["shard-uniform", "shard-hot"])
    def test_sharded(self, preset, index):
        traffic = shard_traffic_presets(240.0, n_shards=4)[preset]
        # Two replicas per shard: the schedule only reads the map.
        members = {0: ("p0", "p3"), 1: ("p0", "p1"), 2: ("p1", "p2"), 3: ("p2", "p3")}
        subs = traffic.compile_shard_submissions(members, SEEDS[index], 240.0)
        lines = (line for k in sorted(subs) for line in _lines(subs[k], f"{k} "))
        assert _schedule_digest(lines) == SCHEDULE_DIGESTS[preset][index]
