import math

import numpy as np
import pytest

from weakconformal import (
    CoverageReport,
    ExplicitSet,
    Interval,
    LabelSet,
    PredictionInterval,
    UnsupportedWeakLabel,
    WeakRecord,
    conformal_threshold,
    evaluate,
    set_block_scores,
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


def test_partial_score_is_min_over_weak_label():
    scores = [[3.0, 1.0, 2.0], [3.0, 1.0, 2.0]]
    member = [[True, False, True], [False, True, False]]
    assert set_block_scores(scores, [2, 1], member)[1].tolist() == [2.0, 1.0]


def test_pessimistic_score_is_max_over_weak_label():
    strong, _, pessimistic = set_block_scores([[3.0, 1.0, 2.0]], [2], [[True, False, True]])
    assert strong.tolist() == [2.0]
    assert pessimistic.tolist() == [3.0]


def test_weak_calibration_dominates_strong():
    # partial scores are pointwise <= strong scores, so quantiles order too
    rng = np.random.default_rng(11)
    scores = rng.normal(size=(40, 5))
    member = np.zeros((40, 5), dtype=bool)
    y = np.empty(40, dtype=int)
    for i in range(40):
        members = sorted(set([int(v) for v in rng.choice(5, size=2)]) | {int(rng.integers(5))})
        member[i, members] = True
        y[i] = int(rng.choice(members))
    strong, weak, pessimistic = set_block_scores(scores, y, member)
    for alpha in (0.1, 0.25, 0.5):
        weak_t, strong_t, pess_t = (conformal_threshold(s, alpha) for s in (weak, strong, pessimistic))
        assert weak_t.value <= strong_t.value <= pess_t.value


def test_pessimistic_threshold_takes_each_records_own_scores():
    scores = [[0.0, 5.0], [1.0, 2.0]]
    member = [[True, True], [True, False]]
    # max scores: 5.0 and 1.0; alpha=0.5: k = ceil(3*0.5) = 2 -> 5.0
    pessimistic = set_block_scores(scores, [0, 0], member)[2]
    assert conformal_threshold(pessimistic, 0.5).value == 5.0


def test_label_set_membership_and_intersection():
    s = LabelSet([0, 2], k=4)
    assert 2 in s
    assert 1 not in s
    assert s.intersects(ExplicitSet((1, 2)))
    assert not s.intersects(ExplicitSet((1, 3)))
    assert s.size() == 2.0
    with pytest.raises(UnsupportedWeakLabel):
        s.intersects(Interval(0.0, 1.0))


@pytest.mark.parametrize("labels", [[-1, 2], [0, 3], [9], [1, 1], [-1, 9, 9]])
def test_label_set_rejects_labels_out_of_range_or_repeated(labels):
    with pytest.raises(ValueError, match="distinct and in \\[0, 3\\)"):
        LabelSet(labels, 3)


def test_prediction_interval_membership_and_intersection():
    s = PredictionInterval(-1.0, 1.0)
    assert 0.5 in s
    assert 1.5 not in s
    assert s.intersects(Interval(0.9, 2.0))
    assert not s.intersects(Interval(1.1, 2.0))
    assert s.size() == 2.0


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
        sets.append(LabelSet(rng.choice(6, size=2, replace=False), 6))
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
