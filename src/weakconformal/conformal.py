"""Split-conformal calibration from weak labels.

The central construction: score every calibration record by the *best case*
over its weak label, ``S_i = min(s(X_i, y) for y in W_i)``, take the
``(1 + 1/n)(1 - alpha)`` empirical quantile as the threshold, and predict the
score sublevel set ``{y : s(x, y) <= t}``. Because the true label sits inside
every weak label, the resulting sets hit the weak set with probability at
least ``1 - alpha`` (weak coverage); they do not, and in general cannot,
guarantee coverage of the true label itself.

Each task defines its scores once, on a block of records: label sets here
(``set_block_scores``), rankings, matchings and intervals in their modules.
Two reference points share the quantile rule:

* the fully supervised threshold, calibrated on the true-label scores
  ``s(X_i, Y_i)`` (an oracle upper envelope: it always dominates the weak
  threshold).
* the pessimistic threshold, calibrated on the *worst case*
  ``max(s(X_i, y) for y in W_i)``, forcing the prediction set to swallow
  whole weak sets; useful as the strong-coverage baseline whose sets blow
  up with the weak labels' size.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .labels import ExplicitSet, Interval, WeakLabel, WeakRecord, _as_int, _as_real, weak_contains

__all__ = [
    "TOL",
    "ConformalThreshold",
    "conformal_threshold",
    "set_block_scores",
    "CoverageReport",
    "evaluate",
    "LabelSet",
    "PredictionInterval",
    "UnsupportedWeakLabel",
]

#: Comparison tolerance used for floating-point guards across the package.
TOL = 1e-9


class UnsupportedWeakLabel(TypeError):
    """A prediction set cannot be intersected with this weak-label kind.

    When evaluate raises it, ``index`` is the position of the offending
    (set, record) pair.
    """

    index: int | None = None


@dataclass(frozen=True)
class ConformalThreshold:
    """A calibrated score threshold.

    value is the k-th smallest calibration score with
    k = ceil((n + 1) (1 - alpha)), or +inf when k > n (the calibration set is
    too small for the requested level and the prediction set is everything).
    """

    value: float
    alpha: float
    n: int
    k: int

    def admits(self, score: float | np.ndarray):
        """Membership rule: closed comparison score <= value."""
        return score <= self.value


def _order_index(n: int, alpha: float) -> int:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if n < 0:
        raise ValueError("need a nonnegative number of scores")
    # 1e-9 guard: (n+1)*(1-alpha) may land a hair above an exact integer.
    return math.ceil((n + 1) * (1.0 - alpha) - TOL)


def conformal_threshold(scores: Sequence[float] | np.ndarray, alpha: float) -> ConformalThreshold:
    """Calibrate a threshold from partial (best-case) scores.

    Parameters
    ----------
    scores : array-like of shape (n,)
        Finite calibration scores, order irrelevant.
    alpha : float
        Miscoverage level in (0, 1).

    Returns
    -------
    ConformalThreshold
        Threshold value is +inf when ceil((n+1)(1-alpha)) > n.
    """
    arr = np.asarray(scores, dtype=float).ravel()
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError("calibration scores must be finite")
    n = arr.size
    k = _order_index(n, alpha)
    if k > n:
        value = math.inf
    else:
        value = float(np.partition(arr, k - 1)[k - 1])
    return ConformalThreshold(value=value, alpha=float(alpha), n=n, k=k)


def set_block_scores(
    scores, y, member
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Strong, weak and pessimistic scores of a block of label-set records.

    scores is (n, k), record i's score of each label; y holds the true
    labels and member is the (n, k) boolean weak-set mask. The strong score
    is the true label's, the weak score the minimum over the weak set and
    the pessimistic score its maximum.
    """
    scores = np.asarray(scores, dtype=float)
    member = np.asarray(member, dtype=bool)
    if scores.ndim != 2 or member.shape != scores.shape:
        raise ValueError("scores and member must both be (n, k)")
    return (
        scores[np.arange(scores.shape[0]), y],
        np.where(member, scores, np.inf).min(axis=1),
        np.where(member, scores, -np.inf).max(axis=1),
    )


# --- evaluation -----------------------------------------------------------


@dataclass(frozen=True)
class CoverageReport:
    """Empirical summary of prediction sets on labeled test data."""

    n: int
    strong_coverage: float
    weak_coverage: float
    avg_size: float
    size_histogram: dict[int, int] | None

    def __post_init__(self):
        if not (-TOL <= self.strong_coverage <= 1 + TOL) or not (
            -TOL <= self.weak_coverage <= 1 + TOL
        ):
            raise ValueError("coverage rates must lie in [0, 1]")
        if self.weak_coverage + TOL < self.strong_coverage:
            raise ValueError("weak coverage cannot be below strong coverage")


class LabelSet:
    """Explicit prediction set over the label space [0, k); its labels must
    be distinct and in range."""

    def __init__(self, labels: Iterable[int], k: int):
        labs = [_as_int(v, "a label") for v in labels]
        self.labels = frozenset(labs)
        self.k = _as_int(k, "k")
        if len(self.labels) != len(labs) or any(not 0 <= v < self.k for v in labs):
            raise ValueError(f"labels must be distinct and in [0, {self.k})")

    def __contains__(self, y) -> bool:
        return _as_int(y, "a label") in self.labels

    def intersects(self, w: WeakLabel) -> bool:
        if not isinstance(w, ExplicitSet):
            raise UnsupportedWeakLabel("label set vs non-set weak label")
        return any(v in self.labels for v in w.labels)

    def size(self) -> float:
        return float(len(self.labels))


class PredictionInterval:
    """Interval prediction set for a numeric response."""

    def __init__(self, lo: float, hi: float):
        lo, hi = _as_real(lo, "lo"), _as_real(hi, "hi")
        if not lo <= hi:  # a NaN end point fails too
            raise ValueError("empty prediction interval")
        self.lo = lo
        self.hi = hi

    def __contains__(self, y) -> bool:
        return self.lo <= float(y) <= self.hi

    def intersects(self, w: WeakLabel) -> bool:
        if not isinstance(w, Interval):
            raise UnsupportedWeakLabel("interval set vs non-interval weak label")
        return self.lo <= w.hi and w.lo <= self.hi

    def size(self) -> float:
        return self.hi - self.lo


def evaluate(sets: Sequence, records: Sequence[WeakRecord]) -> CoverageReport:
    """Score prediction sets against test records.

    Every record must carry both labels; a record whose strong label falls
    outside its weak label is rejected (inconsistent data). Weak coverage
    counts W-intersection hits, strong coverage counts true-label hits. A
    set that cannot be intersected with its record's weak-label kind raises
    UnsupportedWeakLabel; it, and any ValueError a set raises against its
    record, carries the pair's position as ``index``.
    """
    if len(sets) != len(records):
        raise ValueError("one prediction set per record required")
    if not records:
        raise ValueError("empty test set")
    strong_hits = 0
    weak_hits = 0
    sizes = []
    for i, (pred, rec) in enumerate(zip(sets, records)):
        if rec.y is None:
            raise ValueError("evaluation records need strong labels")
        if not weak_contains(rec.weak, rec.y):
            raise ValueError("inconsistent record: y is not in its weak label")
        try:  # intersects first, so a set of the wrong kind is never asked for y
            w_hit = pred.intersects(rec.weak)
            s_hit = rec.y in pred
            if s_hit and not w_hit:
                raise ValueError("set contains y but misses its weak label")
        except (UnsupportedWeakLabel, ValueError) as exc:
            exc.index = i
            raise
        strong_hits += s_hit
        weak_hits += w_hit
        sizes.append(pred.size())
    n = len(records)
    sizes_arr = np.asarray(sizes, dtype=float)
    finite = np.isfinite(sizes_arr)
    hist: dict[int, int] | None = None
    if finite.all():
        rounded = np.round(sizes_arr)
        if np.abs(sizes_arr - rounded).max(initial=0.0) <= TOL:
            vals, counts = np.unique(rounded.astype(int), return_counts=True)
            hist = {int(v): int(c) for v, c in zip(vals, counts)}
    return CoverageReport(
        n=n,
        strong_coverage=strong_hits / n,
        weak_coverage=weak_hits / n,
        avg_size=float(sizes_arr.mean()),
        size_histogram=hist,
    )
