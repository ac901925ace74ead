"""Split-conformal calibration from weak labels.

The central construction: score every calibration record by the *best case*
over its weak label, ``S_i = min(s(X_i, y) for y in W_i)``, take the
``(1 + 1/n)(1 - alpha)`` empirical quantile as the threshold, and predict the
score sublevel set ``{y : s(x, y) <= t}``. Because the true label sits inside
every weak label, the resulting sets hit the weak set with probability at
least ``1 - alpha`` (weak coverage); they do not, and in general cannot,
guarantee coverage of the true label itself.

Two reference points share the quantile rule:

* the fully supervised threshold, ``conformal_threshold`` applied to the
  true-label scores ``s(X_i, Y_i)`` (an oracle upper envelope: it always
  dominates the weak threshold).
* ``pessimistic_threshold`` calibrates on the *worst case*
  ``max(s(X_i, y) for y in W_i)``, forcing the prediction set to swallow
  whole weak sets; useful as the strong-coverage baseline whose sets blow
  up with the weak labels' size.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Protocol, Sequence

import numpy as np

from .labels import ExplicitSet, Interval, WeakLabel, WeakRecord, weak_contains

__all__ = [
    "TOL",
    "ConformalThreshold",
    "conformal_threshold",
    "pessimistic_threshold",
    "partial_score",
    "pessimistic_score",
    "ScoreOracle",
    "ClasswiseScoreOracle",
    "CoverageReport",
    "evaluate",
    "LabelSet",
    "PredictionInterval",
    "ScoreLevelSet",
    "UnsupportedWeakLabel",
]

#: Comparison tolerance used for floating-point guards across the package.
TOL = 1e-9


class UnsupportedWeakLabel(TypeError):
    """The score oracle cannot minimize/maximize over this weak-label kind."""


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


class ScoreOracle(Protocol):
    """Module-specific score access used by the calibration helpers.

    ``score(x, y)`` evaluates one candidate; ``min_score(x, w)`` returns
    ``min_{y in w} score(x, y)`` exactly (each task module implements the
    constrained minimization natively); ``max_score`` is only available for
    weak-label kinds where the maximum is tractable (explicit sets,
    intervals) and powers the pessimistic baseline.
    """

    def score(self, x: np.ndarray, y: Any) -> float: ...

    def min_score(self, x: np.ndarray, w: WeakLabel) -> float: ...


class ClasswiseScoreOracle:
    """Oracle over a finite label space given per-class scores.

    score_fn maps a feature vector to the length-k vector of class scores.
    """

    def __init__(self, score_fn: Callable[[np.ndarray], np.ndarray], k: int):
        self._fn = score_fn
        self.k = int(k)

    def scores(self, x: np.ndarray) -> np.ndarray:
        vec = np.asarray(self._fn(x), dtype=float).ravel()
        if vec.size != self.k:
            raise ValueError(f"score_fn returned {vec.size} scores, expected {self.k}")
        return vec

    def score(self, x: np.ndarray, y: int) -> float:
        return float(self.scores(x)[int(y)])

    def _members(self, w: WeakLabel) -> list[int]:
        if not isinstance(w, ExplicitSet):
            raise UnsupportedWeakLabel(
                f"classwise oracle needs an explicit label set, got {type(w).__name__}"
            )
        w.validate_k(self.k)
        return list(w.labels)

    def min_score(self, x: np.ndarray, w: WeakLabel) -> float:
        return float(self.scores(x)[self._members(w)].min())

    def max_score(self, x: np.ndarray, w: WeakLabel) -> float:
        return float(self.scores(x)[self._members(w)].max())


def partial_score(oracle: ScoreOracle, x: np.ndarray, w: WeakLabel) -> float:
    """Best-case score of a weak label: min over its members."""
    return float(oracle.min_score(x, w))


def pessimistic_score(oracle, x: np.ndarray, w: WeakLabel) -> float:
    """Worst-case score of a weak label: max over its members."""
    fn = getattr(oracle, "max_score", None)
    if fn is None:
        raise UnsupportedWeakLabel(
            f"{type(oracle).__name__} does not support worst-case scoring"
        )
    return float(fn(x, w))


def pessimistic_threshold(
    oracle, records: Iterable[WeakRecord], alpha: float
) -> ConformalThreshold:
    """Calibrate on worst-case scores so sets must engulf whole weak labels.

    Only meaningful for weak-label kinds with a tractable in-set maximum
    (explicit sets, intervals); raises UnsupportedWeakLabel otherwise.
    """
    scores = [pessimistic_score(oracle, rec.x, rec.weak) for rec in records]
    return conformal_threshold(scores, alpha)


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
    """Explicit prediction set over a finite label space."""

    def __init__(self, labels: Iterable[int], k: int):
        self.labels = frozenset(int(v) for v in labels)
        self.k = int(k)

    def __contains__(self, y) -> bool:
        return int(y) in self.labels

    def intersects(self, w: WeakLabel) -> bool:
        if not isinstance(w, ExplicitSet):
            raise UnsupportedWeakLabel("label set vs non-set weak label")
        return any(v in self.labels for v in w.labels)

    def size(self) -> float:
        return float(len(self.labels))


class PredictionInterval:
    """Interval prediction set for a numeric response."""

    def __init__(self, lo: float, hi: float):
        if hi < lo:
            raise ValueError("empty prediction interval")
        self.lo = float(lo)
        self.hi = float(hi)

    def __contains__(self, y) -> bool:
        return self.lo <= float(y) <= self.hi

    def intersects(self, w: WeakLabel) -> bool:
        if not isinstance(w, Interval):
            raise UnsupportedWeakLabel("interval set vs non-interval weak label")
        return self.lo <= w.hi and w.lo <= self.hi

    def size(self) -> float:
        return self.hi - self.lo


class ScoreLevelSet:
    """Implicit prediction set {y : score(y) <= threshold} over a large space.

    Membership and weak-label intersection are exact (intersection via the
    partial score); the reported size may be a truncated count, supplied
    lazily by size_fn.
    """

    def __init__(
        self,
        threshold: float,
        score_fn: Callable[[Any], float],
        partial_score_fn: Callable[[WeakLabel], float],
        size_fn: Callable[[], float],
    ):
        self.threshold = float(threshold)
        self._score = score_fn
        self._partial = partial_score_fn
        self._size = size_fn

    def __contains__(self, y) -> bool:
        return self._score(y) <= self.threshold

    def intersects(self, w: WeakLabel) -> bool:
        return self._partial(w) <= self.threshold

    def size(self) -> float:
        return float(self._size())


def evaluate(sets: Sequence, records: Sequence[WeakRecord]) -> CoverageReport:
    """Score prediction sets against test records.

    Every record must carry both labels; a record whose strong label falls
    outside its weak label is rejected (inconsistent data). Weak coverage
    counts W-intersection hits, strong coverage counts true-label hits.
    """
    if len(sets) != len(records):
        raise ValueError("one prediction set per record required")
    if not records:
        raise ValueError("empty test set")
    strong_hits = 0
    weak_hits = 0
    sizes = []
    for pred, rec in zip(sets, records):
        if rec.y is None:
            raise ValueError("evaluation records need strong labels")
        if not weak_contains(rec.weak, rec.y):
            raise ValueError("inconsistent record: y is not in its weak label")
        s_hit = rec.y in pred
        w_hit = pred.intersects(rec.weak)
        if s_hit and not w_hit:
            raise ValueError("set contains y but misses its weak label")
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
