"""Best-first enumeration of combinatorial label spaces by partitioning.

The engine enumerates configurations of a huge discrete space (rankings,
assignments) in nondecreasing score order without touching more than it
emits. A backend exposes the space as cells: each cell knows its best and
second-best member, and can split along the first coordinate where the two
differ into two sub-cells whose bests are exactly those two configurations.
Popping the globally smallest second-best from a frontier and splitting its
cell yields the classic M-best recursion at O(M) cell refinements.

Backends implement the ``PartitionProblem`` protocol below; ``matching``
and ``ranking`` ship one each. The engine validates what it can observe:
emitted scores must be nondecreasing and every split must hand back cells
whose bests are the parent's (best, second) pair, otherwise the backend
violated the partition contract and a ``PartitionError`` is raised.

``Enumerator.extend_until`` emits one configuration at a time and stops at
the first that meets a stopping rule, so it enumerates exactly up to the
answer, capped. ``enumerate_until`` stops at the first
score above a threshold, listing the sublevel set {y : score(y) <= threshold};
``compatible_rank`` stops at the first configuration passing a test.
``rank_conformalize`` and ``compatible_rank`` conformalize on enumeration
*ranks* instead of raw scores.
"""
from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Callable, Protocol, Sequence

import numpy as np

from .conformal import TOL, conformal_threshold
from .labels import _as_int

__all__ = [
    "PartitionProblem",
    "PartitionError",
    "EnumerationCapExceeded",
    "MBestResult",
    "Enumerator",
    "m_best",
    "enumerate_until",
    "rank_conformalize",
    "compatible_rank",
    "DEFAULT_CAP",
]

DEFAULT_CAP = 100_000


class PartitionError(RuntimeError):
    """A backend returned cells inconsistent with the partition contract."""


class EnumerationCapExceeded(RuntimeError):
    """Enumeration hit its configuration cap before finishing."""


class PartitionProblem(Protocol):
    """Backend contract for a partitionable configuration space.

    Cells are backend-defined objects carrying at least the attributes
    ``best``, ``best_score``, ``second``, ``second_score`` (the latter two
    None when the cell is a singleton). ``split(cell)`` must return two
    cells that partition the parent minus nothing: the first keeps the
    parent's best, the second has the parent's second-best as its best.

    A backend may also carry ``margin``: how far below the last emitted
    score its rounding may put the next pop. The engine reads it once per
    enumeration and checks the order against the larger of it and TOL.
    """

    def root(self) -> Any: ...

    def split(self, cell: Any) -> tuple[Any, Any]: ...

    def score(self, config: Any) -> float: ...


@dataclass
class MBestResult:
    """Configurations in nondecreasing score order."""

    configs: list
    scores: list[float]
    truncated: bool = False

    def __len__(self) -> int:
        return len(self.configs)


class Enumerator:
    """Incremental best-first enumeration state over a PartitionProblem."""

    def __init__(self, problem: PartitionProblem):
        self.problem = problem
        self._tol = max(TOL, float(getattr(problem, "margin", 0.0)))
        root = problem.root()
        self.configs: list = [root.best]
        self.scores: list[float] = [float(root.best_score)]
        self._heap: list[tuple[float, int, Any]] = []
        self._counter = 1
        if root.second is not None:
            heapq.heappush(self._heap, (float(root.second_score), 0, root))

    @property
    def exhausted(self) -> bool:
        return not self._heap

    def extend_to(self, m: int) -> None:
        """Grow the enumeration to at least m configurations (or exhaust)."""
        while len(self.configs) < m and self._heap:
            second_score, order, cell = heapq.heappop(self._heap)
            if second_score < self.scores[-1] - self._tol:
                raise PartitionError(
                    "second-best score below last emitted score: backend cells "
                    "do not partition the space"
                )
            self.configs.append(cell.second)
            self.scores.append(second_score)
            keep, moved = self.problem.split(cell)
            if keep.best != cell.best or moved.best != cell.second:
                raise PartitionError(
                    "split cells must carry the parent's best and second-best"
                )
            # the cell keeping the parent's best inherits its creation order;
            # the cell built around the emitted config is newly created
            if keep.second is not None:
                heapq.heappush(self._heap, (float(keep.second_score), order, keep))
            if moved.second is not None:
                heapq.heappush(self._heap, (float(moved.second_score), self._counter, moved))
            self._counter += 1

    def extend_until(
        self, stop: Callable[[Any, float], bool], cap: int
    ) -> int | None:
        """Grow until stop(config, score) holds, cap is reached, or exhaustion.

        Configurations are emitted one at a time, so the enumeration ends at
        the first one that meets stop. Returns its index, or None when none of
        the enumerated ones does.
        """
        idx = 0
        while not stop(self.configs[idx], self.scores[idx]):
            idx += 1
            if idx == len(self.configs):
                if idx >= cap or self.exhausted:
                    return None
                self.extend_to(idx + 1)
        return idx


def m_best(problem: PartitionProblem, m: int) -> MBestResult:
    """The m smallest-score configurations (all of them if fewer exist)."""
    if _as_int(m, "m") < 1:
        raise ValueError("m must be >= 1")
    state = Enumerator(problem)
    state.extend_to(m)
    return MBestResult(configs=list(state.configs), scores=list(state.scores))


def enumerate_until(
    problem: PartitionProblem, threshold: float, cap: int = DEFAULT_CAP
) -> MBestResult:
    """All configurations with score <= threshold, in score order.

    Work is proportional to the answer size. If the sublevel set fills the
    cap before the space is exhausted, the first cap configurations are
    returned with ``truncated=True``: enumeration stops at the cap, so more
    members may follow.
    """
    if _as_int(cap, "cap") < 1:
        raise ValueError("cap must be >= 1")
    state = Enumerator(problem)
    # stop where membership ends; a NaN threshold admits nothing
    kept = state.extend_until(lambda config, score: not score <= threshold, cap)
    if kept is None:
        kept = len(state.configs)
    truncated = kept >= cap and not state.exhausted
    return MBestResult(
        configs=state.configs[:kept], scores=state.scores[:kept], truncated=truncated
    )


def compatible_rank(
    problem: PartitionProblem,
    is_compatible: Callable[[Any], bool],
    cap: int = DEFAULT_CAP,
) -> int:
    """1-based score-order rank of the first configuration passing the test.

    Raises ValueError if the space holds no compatible configuration, and
    EnumerationCapExceeded if none shows up within cap enumerated
    configurations. A cap that is not an integer >= 1 is a ValueError.
    """
    if _as_int(cap, "cap") < 1:
        raise ValueError("cap must be >= 1")
    state = Enumerator(problem)
    found = state.extend_until(lambda config, score: is_compatible(config), cap)
    if found is not None:
        return found + 1
    if state.exhausted:
        raise ValueError("no compatible configuration exists in the space")
    raise EnumerationCapExceeded(f"no compatible configuration within the first {cap}")


def _levelset_counts(problem, thresholds: Sequence[float],
                     cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Sizes of {y : score <= t} for several t on one problem: min(size, cap)
    and a flag for sizes above cap, from one enumeration of at most cap + 1
    configurations. The per-record engine of the harness, of
    ranking.levelset_counts_batch and of matching.matching_levelset_counts."""
    result = enumerate_until(problem, max(thresholds), cap + 1)
    exact = np.array([bisect_right(result.scores, t) for t in thresholds])
    return np.minimum(exact, cap), exact > cap


def rank_conformalize(
    ranks: Sequence[int], offsets: Sequence[int], alpha: float
) -> float:
    """Conformalize on enumeration ranks: quantile of rank - offset.

    ranks[i] is the score-order rank of the weak label's best compatible
    configuration at calibration point i; offsets[i] is the predictor's
    per-point baseline count (how many configurations it would emit anyway,
    typically 1 or a model-based estimate). Returns the calibrated rank
    margin Q: predicting the best offset(x) + Q configurations at a fresh
    point covers the weak label with probability >= 1 - alpha. The margin is
    conformal_threshold's order statistic of rank - offset, so it is
    math.inf when the calibration set is too small for the level, and a
    rank or offset that is not finite is a ValueError.
    """
    r = np.asarray(ranks, dtype=float)
    o = np.asarray(offsets, dtype=float)
    if r.shape != o.shape or r.ndim != 1 or r.size == 0:
        raise ValueError("ranks and offsets must be equal-length nonempty vectors")
    return conformal_threshold(r - o, alpha).value
