"""Tests for metrics and table rendering."""

import pytest

from repro.analysis.metrics import (
    chain_quality,
    convergence_lags,
    divergence_depth,
    fork_rate,
)
from repro.analysis.tables import render_series, render_table
from repro.protocols.bitcoin import run_bitcoin
from repro.protocols.hyperledger import run_hyperledger
from repro.workloads.scenarios import ProtocolScenario


@pytest.fixture(scope="module")
def bitcoin_run():
    return run_bitcoin(
        ProtocolScenario(
            name="bitcoin",
            duration=200.0,
            mean_block_interval=10.0,
            channel_delta=3.0,
            seed=2,
        )
    )


@pytest.fixture(scope="module")
def hyperledger_run():
    return run_hyperledger(
        ProtocolScenario(name="hyperledger", round_length=15.0, duration=150.0, seed=2)
    )


class TestMetrics:
    def test_fork_rate_positive_for_contended_bitcoin(self, bitcoin_run):
        assert fork_rate(bitcoin_run) > 0.0

    def test_fork_rate_zero_for_hyperledger(self, hyperledger_run):
        assert fork_rate(hyperledger_run) == 0.0

    def test_convergence_lags_bounded_by_network(self, bitcoin_run):
        lags = convergence_lags(bitcoin_run)
        assert lags, "no fully-converged blocks measured"
        assert all(0 <= lag <= 4 * bitcoin_run.scenario.channel_delta for lag in lags)

    def test_divergence_depth_nonzero_for_bitcoin(self, bitcoin_run):
        assert divergence_depth(bitcoin_run) >= 1

    def test_divergence_depth_zero_for_hyperledger(self, hyperledger_run):
        assert divergence_depth(hyperledger_run) == 0

    def test_chain_quality_sums_to_one(self, bitcoin_run):
        shares = chain_quality(bitcoin_run)
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_chain_quality_tracks_merit(self):
        run = run_bitcoin(
            ProtocolScenario(
                name="bitcoin",
                n_nodes=2,
                merits=(0.9, 0.1),
                duration=400.0,
                mean_block_interval=8.0,
                seed=3,
            )
        )
        shares = chain_quality(run)
        assert shares.get("p0", 0) > shares.get("p1", 0)


class TestRendering:
    def test_render_table_alignment(self):
        text = render_table(["name", "value"], [["a", 1], ["longer", 2.5]])
        lines = text.splitlines()
        assert len({len(l) for l in lines}) <= 2  # header sep may differ
        assert "longer" in text and "2.500" in text

    def test_render_table_with_title(self):
        text = render_table(["x"], [[1]], title="Table 1")
        assert text.startswith("Table 1")

    def test_render_series(self):
        text = render_series("forks", [(1, 0.1), (2, 0.2)], "k", "rate")
        assert "forks" in text and "→" in text
