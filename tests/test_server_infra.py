"""Tests for repro.infrastructure.server."""

from __future__ import annotations

import pytest

from repro.infrastructure.server import OPTERON_6174, ServerSpec, XEON_E5410


class TestServerSpec:
    def test_capacity_scales_with_frequency(self):
        assert XEON_E5410.capacity_at(2.3) == pytest.approx(8.0)
        assert XEON_E5410.capacity_at(2.0) == pytest.approx(8.0 * 2.0 / 2.3)

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="not a level"):
            XEON_E5410.capacity_at(1.8)

    def test_busy_fraction_saturates(self):
        assert XEON_E5410.busy_fraction(16.0, 2.3) == 1.0
        assert XEON_E5410.busy_fraction(4.0, 2.3) == pytest.approx(0.5)

    def test_busy_fraction_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            XEON_E5410.busy_fraction(-1.0, 2.3)

    def test_levels_must_match_power_model(self):
        with pytest.raises(ValueError, match="operating points"):
            ServerSpec("bad", 8, (1.0,), XEON_E5410.power_model)

    def test_fmin_fmax(self):
        assert OPTERON_6174.fmin_ghz == 1.9
        assert OPTERON_6174.fmax_ghz == 2.1

    def test_power_uses_busy_fraction(self):
        full = XEON_E5410.power_w(8.0, 2.3)
        half = XEON_E5410.power_w(4.0, 2.3)
        idle = XEON_E5410.power_w(0.0, 2.3)
        assert idle < half < full

    def test_needs_positive_cores(self):
        with pytest.raises(ValueError, match="core"):
            ServerSpec("bad", 0, (2.3,), XEON_E5410.power_model)
