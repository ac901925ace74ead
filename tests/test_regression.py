import math

import numpy as np
import pytest

from weakconformal import (
    ConformalThreshold,
    Interval,
    IntervalScoreOracle,
    abs_score,
    conformal_threshold,
    interval_block_scores,
    interval_partial_score,
    interval_pessimistic_score,
    interval_predict,
)


def test_abs_score():
    assert abs_score(2.0, 3.5) == pytest.approx(1.5)
    assert abs_score(2.0, 2.0) == 0.0


def test_interval_partial_score_geometry():
    w = Interval(1.0, 3.0)
    assert interval_partial_score(0.0, w) == pytest.approx(1.0)  # below
    assert interval_partial_score(2.0, w) == 0.0  # inside
    assert interval_partial_score(5.0, w) == pytest.approx(2.0)  # above


def test_interval_pessimistic_score_is_far_endpoint():
    w = Interval(1.0, 3.0)
    assert interval_pessimistic_score(0.0, w) == pytest.approx(3.0)
    assert interval_pessimistic_score(2.5, w) == pytest.approx(1.5)
    assert interval_pessimistic_score(10.0, w) == pytest.approx(9.0)


def test_partial_never_exceeds_pessimistic():
    rng = np.random.default_rng(51)
    for _ in range(100):
        lo = float(rng.normal())
        hi = lo + float(rng.uniform(0.0, 3.0))
        pred = float(rng.normal(scale=2.0))
        w = Interval(lo, hi)
        assert interval_partial_score(pred, w) <= interval_pessimistic_score(pred, w)


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


def test_interval_oracle():
    oracle = IntervalScoreOracle(lambda x: float(np.sum(x)))
    x = np.array([1.0, 2.0])
    assert oracle.score(x, 5.0) == pytest.approx(2.0)
    w = Interval(4.0, 10.0)
    assert oracle.min_score(x, w) == pytest.approx(1.0)
    assert oracle.max_score(x, w) == pytest.approx(7.0)
    inside = Interval(2.0, 4.0)
    assert oracle.min_score(x, inside) == 0.0


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
    w = [Interval(a, b) for a, b in zip(lo, hi)]
    assert strong.tobytes() == np.abs(pred - y).tobytes()
    assert weak.tobytes() == np.array(
        [interval_partial_score(p, wi) for p, wi in zip(pred, w)]).tobytes()
    assert pessimistic.tobytes() == np.array(
        [interval_pessimistic_score(p, wi) for p, wi in zip(pred, w)]).tobytes()
