import math

import numpy as np
import pytest

from weakconformal import (
    ConformalThreshold,
    conformal_threshold,
    interval_block_scores,
    interval_predict,
)


def test_abs_score():
    strong = interval_block_scores([2.0, 2.0], [3.5, 2.0], [0.0, 0.0], [9.0, 9.0])[0]
    assert strong.tolist() == [1.5, 0.0]


def test_interval_partial_score_geometry():
    # below, inside and above [1, 3]
    weak = interval_block_scores([0.0, 2.0, 5.0], [1.0, 2.0, 3.0], 1.0, 3.0)[1]
    assert weak.tolist() == [1.0, 0.0, 2.0]


def test_interval_pessimistic_score_is_far_endpoint():
    pessimistic = interval_block_scores([0.0, 2.5, 10.0], [1.0, 2.0, 3.0], 1.0, 3.0)[2]
    assert pessimistic.tolist() == [3.0, 1.5, 9.0]


def test_partial_never_exceeds_pessimistic():
    rng = np.random.default_rng(51)
    lo = rng.normal(size=100)
    hi = lo + rng.uniform(0.0, 3.0, size=100)
    pred = rng.normal(scale=2.0, size=100)
    _, weak, pessimistic = interval_block_scores(pred, lo, lo, hi)
    assert np.all(weak <= pessimistic)


def test_interval_predict_from_threshold():
    t = conformal_threshold([0.5, 1.0, 0.2, 0.8], 0.25)
    band = interval_predict(3.0, t)
    assert band.lo == pytest.approx(2.0)
    assert band.hi == pytest.approx(4.0)
    assert 3.9 in band


def test_interval_predict_accepts_plain_float():
    band = interval_predict(0.0, 1.5)
    assert band.size() == pytest.approx(3.0)
    with pytest.raises(ValueError):
        interval_predict(0.0, -0.1)


def test_interval_predict_infinite_threshold_covers_line():
    band = interval_predict(0.0, ConformalThreshold(math.inf, 0.1, 2, 3))
    assert 1e300 in band
    assert -1e300 in band


def test_interval_scores_take_the_prediction_per_record():
    # a point predictor x -> sum(x) over two records' features
    x = np.array([[1.0, 2.0], [1.0, 2.0]])
    strong, weak, pessimistic = interval_block_scores(x.sum(axis=1), [5.0, 3.0], [4.0, 2.0], [10.0, 4.0])
    assert strong.tolist() == [2.0, 0.0]
    assert weak.tolist() == [1.0, 0.0]
    assert pessimistic.tolist() == [7.0, 1.0]


def _clamp_distance(y_hat, lo, hi):
    # min over y in [lo, hi] of |y_hat - y|, per record
    return abs(y_hat - min(max(y_hat, lo), hi))


def _far_endpoint_distance(y_hat, lo, hi):
    # max over y in [lo, hi] of |y_hat - y|, per record
    return max(abs(y_hat - lo), abs(y_hat - hi))


def test_interval_block_scores_are_the_per_record_scores_to_the_bit():
    rng = np.random.default_rng(42)
    n = 400
    y = rng.normal(scale=5.0, size=n)
    lo = y - rng.exponential(0.3, size=n)
    hi = y + rng.exponential(0.3, size=n)
    lo[:20] = hi[:20] = y[:20]  # zero-width intervals
    pred = y + rng.normal(scale=0.5, size=n)
    pred[20:40], pred[40:60] = lo[20:40], hi[40:60]  # on an endpoint
    pred[60:80] = (lo[60:80] + hi[60:80]) / 2  # inside
    strong, weak, pessimistic = interval_block_scores(pred, y, lo, hi)
    records = list(zip(pred.tolist(), lo.tolist(), hi.tolist()))
    assert strong.tobytes() == np.abs(pred - y).tobytes()
    assert weak.tobytes() == np.array([_clamp_distance(*r) for r in records]).tobytes()
    assert pessimistic.tobytes() == np.array([_far_endpoint_distance(*r) for r in records]).tobytes()
