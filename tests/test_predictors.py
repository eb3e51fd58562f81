"""Tests for repro.prediction.predictors."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.prediction.predictors import (
    EwmaPredictor,
    LastValuePredictor,
    MaxOverHistoryPredictor,
    MovingAveragePredictor,
)

histories = st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=30)


class TestLastValue:
    def test_repeats_last(self):
        assert LastValuePredictor().predict([1.0, 2.0, 5.0]) == 5.0

    def test_default_on_empty(self):
        assert LastValuePredictor(default=4.0).predict([]) == 4.0

    def test_negative_default_rejected(self):
        with pytest.raises(ValueError):
            LastValuePredictor(default=-1.0)

    def test_invalid_history_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            LastValuePredictor().predict([1.0, -2.0])
        with pytest.raises(ValueError, match="one-dimensional"):
            LastValuePredictor().predict([[1.0], [2.0]])  # type: ignore[list-item]


class TestMovingAverage:
    def test_window_mean(self):
        assert MovingAveragePredictor(2).predict([1.0, 2.0, 4.0]) == 3.0

    def test_window_larger_than_history(self):
        assert MovingAveragePredictor(10).predict([2.0, 4.0]) == 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            MovingAveragePredictor(0)


class TestEwma:
    def test_alpha_one_is_last_value(self):
        assert EwmaPredictor(alpha=1.0).predict([1.0, 9.0]) == 9.0

    def test_hand_computed(self):
        # estimate = 0.5*2 + 0.5*(0.5*4 + 0.5*... start at 1): 1 -> 2.5 -> 2.25
        assert EwmaPredictor(alpha=0.5).predict([1.0, 4.0, 2.0]) == pytest.approx(2.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            EwmaPredictor(alpha=0.0)
        with pytest.raises(ValueError):
            EwmaPredictor(alpha=1.5)


class TestMaxOverHistory:
    def test_takes_window_max(self):
        assert MaxOverHistoryPredictor(2).predict([9.0, 1.0, 3.0]) == 3.0
        assert MaxOverHistoryPredictor(3).predict([9.0, 1.0, 3.0]) == 9.0


class TestRangeProperties:
    @given(histories)
    def test_predictions_within_history_range(self, history):
        lo, hi = min(history), max(history)
        for predictor in (
            LastValuePredictor(),
            MovingAveragePredictor(3),
            EwmaPredictor(0.5),
            MaxOverHistoryPredictor(3),
        ):
            value = predictor.predict(history)
            assert lo - 1e-9 <= value <= hi + 1e-9
