"""Interval weak labels around a point predictor.

Scores are absolute residuals |y_hat - y|; the best case over an interval
weak label is the distance from the prediction to the interval (zero inside
it), the worst case the distance to the far endpoint. Prediction sets are
symmetric intervals y_hat +/- t.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .conformal import ConformalThreshold, PredictionInterval
from .labels import Interval

__all__ = [
    "abs_score",
    "interval_partial_score",
    "interval_pessimistic_score",
    "interval_block_scores",
    "interval_predict",
    "IntervalScoreOracle",
]


def abs_score(y_hat: float, y: float) -> float:
    return abs(float(y_hat) - float(y))


def interval_partial_score(y_hat: float, w: Interval) -> float:
    """min over y in [lo, hi] of |y_hat - y|: clamp distance."""
    y_hat = float(y_hat)
    return abs(y_hat - min(max(y_hat, w.lo), w.hi))


def interval_pessimistic_score(y_hat: float, w: Interval) -> float:
    """max over y in [lo, hi] of |y_hat - y|: far-endpoint distance."""
    y_hat = float(y_hat)
    return max(abs(y_hat - w.lo), abs(y_hat - w.hi))


def interval_block_scores(
    y_hat, y, lo, hi
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Strong, weak and pessimistic scores of a block of interval records:
    |y_hat - y|, the clamp distance to [lo, hi] and the far-endpoint
    distance, elementwise (interval_partial_score and
    interval_pessimistic_score on arrays, to the bit)."""
    y_hat = np.asarray(y_hat, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    return (
        np.abs(y_hat - np.asarray(y, dtype=float)),
        np.abs(y_hat - np.minimum(np.maximum(y_hat, lo), hi)),
        np.maximum(np.abs(y_hat - lo), np.abs(y_hat - hi)),
    )


def interval_predict(y_hat: float, threshold: ConformalThreshold | float) -> PredictionInterval:
    """Sublevel set of the absolute residual: y_hat +/- t (whole line if
    the threshold is infinite, represented with infinite endpoints)."""
    t = threshold.value if isinstance(threshold, ConformalThreshold) else float(threshold)
    if t < 0:
        raise ValueError("threshold must be nonnegative")
    if math.isinf(t):
        return PredictionInterval(-math.inf, math.inf)
    y_hat = float(y_hat)
    return PredictionInterval(y_hat - t, y_hat + t)


class IntervalScoreOracle:
    """ScoreOracle over a numeric response given a point predictor."""

    def __init__(self, predict_fn: Callable[[np.ndarray], float]):
        self._fn = predict_fn

    def predict(self, x: np.ndarray) -> float:
        return float(self._fn(x))

    def score(self, x: np.ndarray, y: float) -> float:
        return abs_score(self.predict(x), y)

    def min_score(self, x: np.ndarray, w: Interval) -> float:
        if not isinstance(w, Interval):
            raise TypeError("interval oracle needs Interval weak labels")
        return interval_partial_score(self.predict(x), w)

    def max_score(self, x: np.ndarray, w: Interval) -> float:
        if not isinstance(w, Interval):
            raise TypeError("interval oracle needs Interval weak labels")
        return interval_pessimistic_score(self.predict(x), w)
