"""Tests for repro.workloads.clients — load shapes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.workloads.clients import (
    CosineClients,
    FlashCrowdClients,
    SineClients,
    TraceClients,
)


class TestSineClients:
    def test_range(self):
        load = SineClients(0.0, 300.0, 300.0)
        times = np.linspace(0, 300, 601)
        values = load.sample(times)
        assert values.min() >= -1e-9
        assert values.max() <= 300.0 + 1e-9
        assert values.max() > 290.0

    def test_starts_mid_range(self):
        load = SineClients(0.0, 300.0, 300.0)
        assert load.clients_at(0.0) == pytest.approx(150.0)

    def test_scalar_matches_vector(self):
        load = SineClients(10.0, 200.0, 120.0)
        times = np.array([0.0, 13.0, 77.0])
        assert np.allclose(load.sample(times), [load.clients_at(t) for t in times])

    def test_validation(self):
        with pytest.raises(ValueError):
            SineClients(-1.0, 10.0, 60.0)
        with pytest.raises(ValueError):
            SineClients(10.0, 5.0, 60.0)
        with pytest.raises(ValueError):
            SineClients(0.0, 10.0, 0.0)


class TestCosineClients:
    def test_quarter_period_lead(self):
        sine = SineClients(0.0, 300.0, 300.0)
        cosine = CosineClients(0.0, 300.0, 300.0)
        assert cosine.clients_at(0.0) == pytest.approx(300.0)
        assert cosine.clients_at(75.0) == pytest.approx(sine.clients_at(0.0), abs=1e-6)

    def test_anti_phase_at_half_period(self):
        sine = SineClients(0.0, 300.0, 300.0)
        cosine = CosineClients(0.0, 300.0, 300.0)
        t = np.linspace(0, 300, 301)
        total = sine.sample(t) + cosine.sample(t)
        # sin + cos never reaches double the individual peak.
        assert total.max() < 600.0 * 0.9


class TestFlashCrowd:
    def test_surge_peaks_at_center(self):
        load = FlashCrowdClients(50.0, [(100.0, 200.0, 10.0)])
        assert load.clients_at(100.0) == pytest.approx(250.0)
        assert load.clients_at(0.0) == pytest.approx(50.0, abs=1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            FlashCrowdClients(-1.0, [])
        with pytest.raises(ValueError):
            FlashCrowdClients(1.0, [(0.0, -1.0, 1.0)])
        with pytest.raises(ValueError):
            FlashCrowdClients(1.0, [(0.0, 1.0, 0.0)])


class TestTraceClients:
    def test_step_replay(self):
        load = TraceClients([10.0, 20.0, 30.0], 5.0)
        assert load.clients_at(0.0) == 10.0
        assert load.clients_at(7.0) == 20.0
        assert load.clients_at(999.0) == 30.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TraceClients([], 5.0)
        with pytest.raises(ValueError):
            TraceClients([-1.0], 5.0)
