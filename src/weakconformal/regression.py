"""Interval weak labels around a point predictor.

Scores are absolute residuals |y_hat - y|; the best case over an interval
weak label is the distance from the prediction to the interval (zero inside
it), the worst case the distance to the far endpoint. Prediction sets are
symmetric intervals y_hat +/- t.
"""
from __future__ import annotations

import math

import numpy as np

from .conformal import ConformalThreshold, PredictionInterval

__all__ = [
    "interval_block_scores",
    "interval_predict",
]


def interval_block_scores(
    y_hat, y, lo, hi
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Strong, weak and pessimistic scores of a block of interval records,
    elementwise: |y_hat - y|; the minimum of |y_hat - y| over y in [lo, hi],
    the distance from y_hat to its clamp into [lo, hi] (0 inside); and the
    maximum, the distance to the far endpoint."""
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
