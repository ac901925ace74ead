import math

import numpy as np
import pytest

from weakconformal import (
    ClasswiseScoreOracle,
    CoverageReport,
    ExplicitSet,
    Interval,
    LabelSet,
    PredictionInterval,
    ScoreLevelSet,
    UnsupportedWeakLabel,
    WeakRecord,
    conformal_threshold,
    evaluate,
    partial_score,
    pessimistic_score,
    pessimistic_threshold,
)


def test_threshold_small_example():
    t = conformal_threshold([0.1, 0.4, 0.2, 0.3], 0.25)
    assert t.value == 0.4
    assert t.k == 4
    assert t.n == 4


def test_threshold_infinite_when_order_exceeds_n():
    # n = 4, alpha = 0.1: ceil(5 * 0.9) = 5 > 4
    t = conformal_threshold([1.0, 2.0, 3.0, 4.0], 0.1)
    assert t.value == math.inf


def test_threshold_order_index_exact_integer():
    # (n+1)(1-alpha) = 8 exactly; the guard must not round up to 9
    t = conformal_threshold(list(range(9)), 0.2)
    assert t.k == 8
    assert t.value == 7


def test_threshold_monotone_in_alpha():
    rng = np.random.default_rng(4)
    scores = rng.normal(size=60)
    alphas = np.linspace(0.02, 0.6, 12)
    values = [conformal_threshold(scores, a).value for a in alphas]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_threshold_rejects_bad_inputs():
    with pytest.raises(ValueError):
        conformal_threshold([1.0, float("nan")], 0.1)
    with pytest.raises(ValueError):
        conformal_threshold([1.0], 0.0)
    with pytest.raises(ValueError):
        conformal_threshold([1.0], 1.0)


def test_threshold_no_calibration_data_is_infinite():
    assert conformal_threshold([], 0.1).value == math.inf


def test_threshold_admits():
    t = conformal_threshold([3.0, 1.0, 2.0], 0.25)
    assert t.admits(t.value)
    assert not t.admits(t.value + 1e-9)


def _score_table(table):
    # oracle over a fixed table: x is the row index (possibly as a 1-vector)
    arr = np.asarray(table, dtype=float)

    def fn(x):
        xi = int(np.ravel(x)[0]) if isinstance(x, np.ndarray) else int(x)
        return arr[xi]

    return ClasswiseScoreOracle(fn, arr.shape[1])


def test_partial_score_is_min_over_weak_label():
    oracle = _score_table([[3.0, 1.0, 2.0]])
    assert partial_score(oracle, 0, ExplicitSet((0, 2))) == 2.0
    assert partial_score(oracle, 0, ExplicitSet((1,))) == 1.0


def test_pessimistic_score_is_max_over_weak_label():
    oracle = _score_table([[3.0, 1.0, 2.0]])
    assert pessimistic_score(oracle, 0, ExplicitSet((0, 2))) == 3.0


def test_weak_calibration_dominates_strong():
    # partial scores are pointwise <= strong scores, so quantiles order too
    rng = np.random.default_rng(11)
    table = rng.normal(size=(40, 5))
    oracle = _score_table(table)
    records = []
    for i in range(40):
        members = tuple(
            sorted(set([int(v) for v in rng.choice(5, size=2)]) | {int(rng.integers(5))})
        )
        y = int(rng.choice(members))
        records.append(WeakRecord(np.array([float(i)]), ExplicitSet(members), y))
    for alpha in (0.1, 0.25, 0.5):
        weak_t = conformal_threshold(
            [partial_score(oracle, i, r.weak) for i, r in enumerate(records)], alpha
        )
        strong_t = conformal_threshold(
            [oracle.score(i, r.y) for i, r in enumerate(records)], alpha
        )
        pess_t = pessimistic_threshold(oracle, records, alpha)
        assert weak_t.value <= strong_t.value <= pess_t.value


def test_pessimistic_threshold_uses_x_from_records():
    table = [[0.0, 5.0], [1.0, 2.0]]
    oracle = _score_table(table)
    records = [
        WeakRecord(np.array([0.0]), ExplicitSet((0, 1)), 0),
        WeakRecord(np.array([1.0]), ExplicitSet((0,)), 0),
    ]
    # max scores: 5.0 and 1.0; alpha=0.5: k = ceil(3*0.5) = 2 -> 5.0
    t = pessimistic_threshold(oracle, records, 0.5)
    assert t.value == 5.0


def test_label_set_membership_and_intersection():
    s = LabelSet([0, 2], k=4)
    assert 2 in s
    assert 1 not in s
    assert s.intersects(ExplicitSet((1, 2)))
    assert not s.intersects(ExplicitSet((1, 3)))
    assert s.size() == 2.0
    with pytest.raises(UnsupportedWeakLabel):
        s.intersects(Interval(0.0, 1.0))


def test_prediction_interval_membership_and_intersection():
    s = PredictionInterval(-1.0, 1.0)
    assert 0.5 in s
    assert 1.5 not in s
    assert s.intersects(Interval(0.9, 2.0))
    assert not s.intersects(Interval(1.1, 2.0))
    assert s.size() == 2.0


def test_score_level_set_delegates():
    s = ScoreLevelSet(
        threshold=1.5,
        score_fn=lambda y: float(y),
        partial_score_fn=lambda w: w.lo,
        size_fn=lambda: 7.0,
    )
    assert 1.5 in s
    assert 2.0 not in s
    assert s.intersects(Interval(1.0, 9.0))
    assert s.size() == 7.0


def test_evaluate_hand_counts():
    records = [
        WeakRecord(np.zeros(1), ExplicitSet((0, 1)), 0),
        WeakRecord(np.zeros(1), ExplicitSet((1, 2)), 2),
        WeakRecord(np.zeros(1), ExplicitSet((2,)), 2),
    ]
    sets = [LabelSet([0], 3), LabelSet([0], 3), LabelSet([1, 2], 3)]
    report = evaluate(sets, records)
    assert report.n == 3
    assert report.strong_coverage == pytest.approx(2 / 3)
    assert report.weak_coverage == pytest.approx(2 / 3)
    assert report.avg_size == pytest.approx(4 / 3)
    assert report.size_histogram == {1: 2, 2: 1}


def test_evaluate_weak_coverage_never_below_strong():
    rng = np.random.default_rng(3)
    records, sets = [], []
    for _ in range(50):
        members = tuple(sorted({int(v) for v in rng.choice(6, size=3)}))
        y = int(rng.choice(members))
        records.append(WeakRecord(np.zeros(1), ExplicitSet(members), y))
        sets.append(LabelSet(rng.choice(6, size=2), 6))
    report = evaluate(sets, records)
    assert report.weak_coverage >= report.strong_coverage


def test_evaluate_requires_matching_lengths():
    records = [WeakRecord(np.zeros(1), ExplicitSet((0,)), 0)]
    with pytest.raises(ValueError):
        evaluate([], records)


def test_coverage_report_validates_ordering():
    with pytest.raises(ValueError):
        CoverageReport(
            n=10, strong_coverage=0.9, weak_coverage=0.5, avg_size=1.0, size_histogram=None
        )
