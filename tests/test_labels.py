import json
import math

import numpy as np
import pytest

from weakconformal import (
    ExplicitSet,
    FormatError,
    Interval,
    PartialMatching,
    RankingPrefix,
    WeakRecord,
    read_jsonl,
    weak_contains,
    weak_from_payload,
    weak_to_payload,
    write_jsonl,
)


def test_explicit_set_sorts_labels():
    w = ExplicitSet((3, 1, 2))
    assert w.labels == (1, 2, 3)


def test_explicit_set_rejects_empty_and_duplicates():
    with pytest.raises(ValueError):
        ExplicitSet(())
    with pytest.raises(ValueError):
        ExplicitSet((1, 1, 2))


def test_explicit_set_contains():
    w = ExplicitSet((0, 4))
    assert weak_contains(w, 4)
    assert not weak_contains(w, 2)


def test_interval_validation_and_contains():
    w = Interval(-1.0, 2.5)
    assert w.length == 3.5
    assert weak_contains(w, 0.0)
    assert weak_contains(w, 2.5)
    assert not weak_contains(w, 2.5000001)
    with pytest.raises(ValueError):
        Interval(1.0, 0.0)
    with pytest.raises(ValueError):
        Interval(0.0, float("inf"))


def test_ranking_prefix_contains():
    w = RankingPrefix((2, 0), 4)
    assert weak_contains(w, (2, 0, 1, 3))
    assert weak_contains(w, (2, 0, 3, 1))
    assert not weak_contains(w, (0, 2, 1, 3))
    with pytest.raises(ValueError):
        weak_contains(w, (2, 0, 1))  # not a permutation of 4 items
    with pytest.raises(ValueError):
        weak_contains(w, (2, 0, 1, 1))


def test_ranking_prefix_validation():
    with pytest.raises(ValueError):
        RankingPrefix((0, 0), 3)
    with pytest.raises(ValueError):
        RankingPrefix((5,), 3)
    # the empty prefix is a legal vacuous weak label
    assert weak_contains(RankingPrefix((), 3), (2, 1, 0))


def test_partial_matching_contains():
    w = PartialMatching(((0, 2), (3, 1)), 4)
    assert weak_contains(w, (2, 0, 3, 1))
    assert not weak_contains(w, (2, 1, 3, 0))
    with pytest.raises(ValueError):
        weak_contains(w, (0, 0, 3, 1))


def test_partial_matching_validation():
    with pytest.raises(ValueError):
        PartialMatching(((0, 1), (0, 2)), 3)  # duplicate row
    with pytest.raises(ValueError):
        PartialMatching(((0, 1), (2, 1)), 3)  # duplicate column
    # the empty partial matching is a legal vacuous weak label
    assert weak_contains(PartialMatching((), 3), (1, 2, 0))


def test_weak_record_checks_label_membership():
    with pytest.raises(ValueError):
        WeakRecord(np.zeros(2), ExplicitSet((0, 1)), 2)
    rec = WeakRecord(np.zeros(2), ExplicitSet((0, 1)), 1)
    assert rec.y == 1


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_weak_record_rejects_features_that_are_not_finite(bad):
    # a NaN feature was written to JSON lines as a bare NaN token
    with pytest.raises(ValueError, match="x must hold finite features only"):
        WeakRecord(np.array([0.0, bad]), ExplicitSet((0, 1)), 1)


@pytest.mark.parametrize(
    "weak",
    [
        ExplicitSet((0, 3)),
        Interval(-0.5, 0.5),
        RankingPrefix((1, 0), 3),
        PartialMatching(((2, 0),), 3),
    ],
)
def test_payload_round_trip(weak):
    assert weak_from_payload(weak_to_payload(weak)) == weak


def test_payload_rejects_unknown_kind():
    with pytest.raises(ValueError):
        weak_from_payload({"kind": "mystery"})


def test_jsonl_round_trip(tmp_path):
    records = [
        WeakRecord(np.array([0.5, -1.0]), ExplicitSet((0, 2)), 2),
        WeakRecord(np.array([1.5]), Interval(-1.0, 1.0), 0.25),
        WeakRecord(np.zeros(3), RankingPrefix((1,), 3), (1, 0, 2)),
        WeakRecord(np.ones(4), PartialMatching(((0, 1),), 2), (1, 0)),
    ]
    path = tmp_path / "records.jsonl"
    write_jsonl(str(path), records)
    loaded = list(read_jsonl(str(path)))
    assert len(loaded) == len(records)
    for orig, back in zip(records, loaded):
        np.testing.assert_allclose(back.x, orig.x)
        assert back.weak == orig.weak
        assert back.y == orig.y


def test_read_jsonl_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = json.dumps({"x": [0.0], "weak": {"kind": "set", "labels": [0]}, "y": 0})
    path.write_text(good + "\n" + "{not json\n")
    with pytest.raises(FormatError) as err:
        list(read_jsonl(str(path)))
    assert err.value.line == 2


def test_read_jsonl_rejects_label_outside_weak(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        json.dumps({"x": [0.0], "weak": {"kind": "set", "labels": [1, 2]}, "y": 0}) + "\n"
    )
    with pytest.raises(FormatError) as err:
        list(read_jsonl(str(path)))
    assert err.value.line == 1


@pytest.mark.parametrize(
    "weak",
    [
        {"kind": "set", "labels": [7], "k": 5},  # was accepted: k was dropped
        {"kind": "set", "labels": [0, 5], "k": 5},
        {"kind": "set", "labels": [0], "k": "five"},
    ],
)
def test_read_jsonl_checks_set_labels_against_k(tmp_path, weak):
    path = tmp_path / "bad.jsonl"
    good = json.dumps({"x": [0.0], "weak": {"kind": "set", "labels": [0, 4], "k": 5}, "y": 4})
    path.write_text(good + "\n" + json.dumps({"x": [0.0], "weak": weak}) + "\n")
    with pytest.raises(FormatError) as err:
        list(read_jsonl(str(path)))
    assert err.value.line == 2


def test_read_jsonl_skips_blank_lines(tmp_path):
    path = tmp_path / "records.jsonl"
    line = json.dumps({"x": [1.0], "weak": {"kind": "interval", "lo": 0, "hi": 2}})
    path.write_text("\n" + line + "\n\n")
    loaded = list(read_jsonl(str(path)))
    assert len(loaded) == 1
    assert loaded[0].y is None
