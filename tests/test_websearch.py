"""Tests for repro.workloads.websearch — the cluster demand model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.stats import pearson
from repro.workloads.clients import SineClients
from repro.workloads.websearch import WebSearchCluster, WebSearchClusterConfig


@pytest.fixture
def cluster() -> WebSearchCluster:
    config = WebSearchClusterConfig(
        cluster_id="C1",
        n_isns=2,
        max_clients=300.0,
        peak_cluster_cores=7.0,
        share_skew=(0.42, 0.58),
        noise_sigma=0.02,
    )
    return WebSearchCluster(config, SineClients(0.0, 300.0, 300.0))


class TestConfigValidation:
    def test_share_skew_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            WebSearchClusterConfig("C", share_skew=(0.6, 0.6))

    def test_share_skew_length(self):
        with pytest.raises(ValueError, match="one weight per ISN"):
            WebSearchClusterConfig("C", n_isns=3, share_skew=(0.5, 0.5))

    def test_positive_parameters(self):
        with pytest.raises(ValueError):
            WebSearchClusterConfig("C", max_clients=0.0)
        with pytest.raises(ValueError):
            WebSearchClusterConfig("")
        with pytest.raises(ValueError):
            WebSearchClusterConfig("C", n_isns=0)

    def test_names(self):
        config = WebSearchClusterConfig("C1", n_isns=2)
        assert config.isn_names() == ("C1-isn1", "C1-isn2")


class TestShares:
    def test_sum_to_one_everywhere(self, cluster):
        times = np.linspace(0, 600, 601)
        shares = cluster.share_weights(times)
        assert np.allclose(shares.sum(axis=0), 1.0)

    def test_skew_respected_on_average(self, cluster):
        times = np.linspace(0, 1400, 1401)
        shares = cluster.share_weights(times)
        assert shares[0].mean() == pytest.approx(0.42, abs=0.03)
        assert shares[1].mean() == pytest.approx(0.58, abs=0.03)


class TestDemandTraces:
    def test_shape_and_names(self, cluster, rng):
        traces = cluster.isn_demand_traces(300.0, 1.0, rng)
        assert traces.num_traces == 2
        assert traces.names == ("C1-isn1", "C1-isn2")
        assert traces.num_samples == 300

    def test_fig1_correlation_claims(self, cluster, rng):
        """Both ISNs track the client count; siblings are imbalanced."""
        traces = cluster.isn_demand_traces(600.0, 1.0, rng)
        clients = cluster.client_load.sample(traces[0].times())
        assert pearson(traces[0].samples, clients) > 0.95
        assert pearson(traces[1].samples, clients) > 0.95
        assert pearson(traces[0].samples, traces[1].samples) > 0.95
        assert traces[1].mean() > traces[0].mean() * 1.2

    def test_demand_capped(self, rng):
        config = WebSearchClusterConfig(
            "C1", peak_cluster_cores=30.0, isn_core_cap=8.0, noise_sigma=0.0
        )
        cluster = WebSearchCluster(config, SineClients(0.0, 300.0, 300.0))
        traces = cluster.isn_demand_traces(300.0, 1.0, rng)
        assert traces.matrix.max() <= 8.0 + 1e-9

    def test_peak_calibration(self, cluster, rng):
        traces = cluster.isn_demand_traces(600.0, 1.0, rng)
        total = traces.aggregate()
        assert total.peak() == pytest.approx(7.0, rel=0.15)

    def test_duration_validated(self, cluster, rng):
        with pytest.raises(ValueError, match="at least one sample"):
            cluster.isn_demand_traces(0.0, 1.0, rng)
