"""The lazy best-first frontier against the eager one it replaced.

A ranking cell is keyed by a lower bound on its runner-up's score and sums
the runner-up only when it reaches the top of the frontier. The reference
below is the eager backend and frontier: every cell sums its runner-up when
it is made, and the frontier is keyed by that score. Both must emit the same
configurations with the same scores, bit for bit.
"""
import math
import sys
from dataclasses import dataclass
from itertools import permutations

import heapq
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weakconformal import (
    Enumerator,
    MatchingProblem,
    PartitionError,
    PsiSpec,
    RankingProblem,
    compatible_rank,
    enumerate_until,
    m_best,
    mbest,
)
from weakconformal.ranking import _pair_terms, _worst_scores

FLOAT_MAX = sys.float_info.max


@dataclass(frozen=True)
class _EagerCell:
    constraints: frozenset
    best: tuple
    best_score: float
    second: tuple | None
    second_score: float | None
    second_pos: int | None


class _EagerRanking:
    """The ranking backend with each runner-up re-summed when its cell is
    made, from the constraints, over the lazy backend's table and sum."""

    def __init__(self, relevances, psi):
        self.lazy = RankingProblem(relevances, psi)
        self.margin = self.lazy.margin

    def score(self, y):
        return self.lazy.score(y)

    def _second_best(self, constraints, best):
        swap = self.lazy._swap
        deltas = [math.inf if (a, b) in constraints else swap[a][b] for a, b in zip(best, best[1:])]
        low = min(deltas)
        if low == math.inf:
            return None, None, None
        limit = low + self.margin
        found = None
        for i, d in enumerate(deltas):
            if d <= limit:
                y = best[:i] + (best[i + 1], best[i]) + best[i + 2 :]
                s = self.lazy._sum(y)
                if found is None or s < found[1]:
                    found = (y, s, i)
        return found

    def _cell(self, constraints, best, best_score):
        return _EagerCell(constraints, best, best_score, *self._second_best(constraints, best))

    def root(self):
        lazy_root = self.lazy.root()
        return self._cell(frozenset(), lazy_root.best, lazy_root.best_score)

    def split(self, cell):
        i = cell.second_pos
        a, b = cell.best[i], cell.best[i + 1]
        keep = self._cell(cell.constraints | {(a, b)}, cell.best, cell.best_score)
        moved = self._cell(cell.constraints | {(b, a)}, cell.second, cell.second_score)
        return keep, moved


class _EagerEnumerator(Enumerator):
    """The frontier keyed by each cell's exact second-best score."""

    def __init__(self, problem):
        self.problem = problem
        self._tol = max(mbest.TOL, float(getattr(problem, "margin", 0.0)))
        root = problem.root()
        self.configs = [root.best]
        self.scores = [float(root.best_score)]
        self._heap = []
        self._counter = 1
        if root.second is not None:
            heapq.heappush(self._heap, (float(root.second_score), 0, root))

    def extend_to(self, m):
        while len(self.configs) < m and self._heap:
            second_score, order, cell = heapq.heappop(self._heap)
            assert second_score >= self.scores[-1] - self._tol
            self.configs.append(cell.second)
            self.scores.append(second_score)
            keep, moved = self.problem.split(cell)
            assert keep.best == cell.best and moved.best == cell.second
            if keep.second is not None:
                heapq.heappush(self._heap, (float(keep.second_score), order, keep))
            if moved.second is not None:
                heapq.heappush(self._heap, (float(moved.second_score), self._counter, moved))
            self._counter += 1


def _runs(problem, m, threshold, cap, weak_prefix):
    best = m_best(problem, m)
    until = enumerate_until(problem, threshold, cap)
    try:
        rank = compatible_rank(problem, lambda y: y[: len(weak_prefix)] == weak_prefix, cap)
    except mbest.EnumerationCapExceeded:  # must be raised by both
        rank = None
    return best.configs, best.scores, until.configs, until.scores, until.truncated, rank


def _eager_runs(relevances, psi, *args):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mbest, "Enumerator", _EagerEnumerator)
        return _runs(_EagerRanking(relevances, psi), *args)


def _worst(relevances, psi):
    return float(_worst_scores(_pair_terms(relevances[None], psi), relevances[None])[0])


def _relevances(kind, k, psi_kind, rng):
    """Relevances and psi: Gaussian, ties in {0, 1, 2} with -0.0, scaled to
    subnormal gaps, or scaled by a power of two so that the worst score or
    twice the largest relevance lies within a factor 4 of the largest float."""
    if kind == "ties":
        r = rng.integers(0, 3, size=k).astype(float)
        r[r == 0] *= rng.choice([1.0, -1.0], size=int(np.sum(r == 0)))  # 0.0 and -0.0
    else:
        r = rng.normal(size=k)
    psi = PsiSpec.exp_weighted(0.7) if psi_kind == "exp" else PsiSpec.hinge()
    if kind == "subnormal":  # the exp weights are then all about 1
        return r * 2.0**-1060, psi
    if kind == "huge":
        top = max(_worst(r, psi), 2 * float(np.max(np.abs(r))))  # the gaps stay finite too
        e = math.floor(math.log2(FLOAT_MAX) - math.log2(top)) - 1
        # the exp weights take c / 2^e, so they stay what they were
        return np.ldexp(r, e), PsiSpec(psi.kind, math.ldexp(psi.c, -e))
    return r, psi


@settings(max_examples=120, deadline=None)
@given(
    k=st.integers(2, 9),
    kind=st.sampled_from(["gaussian", "ties", "subnormal", "huge"]),
    psi_kind=st.sampled_from(["hinge", "exp"]),
    picks=st.tuples(*[st.integers(0, 10**6)] * 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_lazy_frontier_equals_the_eager_one(k, kind, psi_kind, picks, seed):
    rng = np.random.default_rng(seed)
    r, psi = _relevances(kind, k, psi_kind, rng)
    m = min(math.factorial(k), 2000)
    scores = m_best(RankingProblem(r, psi), m).scores
    threshold = scores[picks[0] % m]
    cap = 1 + picks[1] % (m + 1)
    y = m_best(RankingProblem(r, psi), m).configs[picks[2] % m]
    weak_prefix = y[: 1 + picks[3] % k]
    lazy = _runs(RankingProblem(r, psi), m, threshold, cap, weak_prefix)
    assert lazy == _eager_runs(r, psi, m, threshold, cap, weak_prefix)


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(2, 6),
    kind=st.sampled_from(["gaussian", "ties", "subnormal", "huge"]),
    psi_kind=st.sampled_from(["hinge", "exp"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_best_first_order_equals_an_exhaustive_sort(k, kind, psi_kind, seed):
    r, psi = _relevances(kind, k, psi_kind, np.random.default_rng(seed))
    problem = RankingProblem(r, psi)
    res = m_best(problem, math.factorial(k))
    every = sorted((problem.score(y), y) for y in permutations(range(k)))
    assert res.scores == [s for s, _ in every]
    # the configurations at each score are the ones that score it
    by_score = {}
    for s, y in zip(res.scores, res.configs):
        by_score.setdefault(s, set()).add(y)
    assert by_score == {s: {y for t, y in every if t == s} for s in by_score}


def test_cells_at_the_largest_floats_keep_finite_bounds():
    r = np.array([0.0, 8.9e307, 8.9e307])
    problem = RankingProblem(r, PsiSpec.hinge())
    res = m_best(problem, 6)
    assert sorted(res.configs) == sorted(permutations(range(3)))
    assert res.scores == [problem.score(y) for y in res.configs] == sorted(res.scores)
    assert math.isfinite(problem.root().bound)

    # k = 4 with three tied items: the worst score, 3x, within a few ulps of
    # the largest float
    x = FLOAT_MAX / 3
    while not math.isfinite(x + x + x):  # the worst ranking's sum, less its zero terms
        x = math.nextafter(x, 0.0)
    r = np.array([x, 0.0, x, x])
    assert _worst(r, PsiSpec.hinge()) >= FLOAT_MAX * (1 - 2.0**-50)
    problem = RankingProblem(r, PsiSpec.hinge())
    state = Enumerator(problem)
    while not state.exhausted:
        assert all(math.isfinite(key) for key, _, _ in state._heap)
        state.extend_to(len(state.configs) + 1)
    assert sorted(state.configs) == sorted(permutations(range(4)))
    assert state.scores == [problem.score(y) for y in state.configs] == sorted(state.scores)


class _OverBound(RankingProblem):
    """A ranking backend whose split cells claim bounds a unit above their
    runner-ups, far past the order check's tolerance."""

    def split(self, cell):
        children = super().split(cell)
        for child in children:
            if child.bound is not None:
                child.bound = child.second_score + 1.0
        return children


def test_a_bound_above_its_runner_up_is_detected():
    rel = np.random.default_rng(5).normal(size=5)
    with pytest.raises(PartitionError, match="below its cell's bound"):
        m_best(_OverBound(rel, PsiSpec.hinge()), 120)


def test_cells_reject_a_configuration_that_is_not_a_permutation():
    ranking_cell = RankingProblem(np.array([3.0, 1.0, 2.0]), PsiSpec.hinge()).root()
    matching_cell = MatchingProblem(np.eye(3)).root()
    for cell in (ranking_cell, matching_cell):
        assert cell.contains((0, 2, 1)) is True
        for y, message in (((0, 1), r"\(0, 1\) is not a permutation"),
                           ((0, 0, 1), r"\(0, 0, 1\) is not a permutation"),
                           ((1.5, 0, 2), "an item must be an integer, not 1.5")):
            with pytest.raises(ValueError, match=message):
                cell.contains(y)


def test_a_lazy_frontier_pops_once_per_emitted_configuration(monkeypatch):
    # on distinct scores a resolved cell is still the minimum, so it is
    # emitted at once rather than pushed back under its exact score
    pops = []
    heappop = heapq.heappop

    def counted(heap):
        pops.append(None)
        return heappop(heap)

    monkeypatch.setattr(mbest.heapq, "heappop", counted)
    r = np.random.default_rng(0).normal(size=10)
    res = m_best(RankingProblem(r, PsiSpec.hinge()), 2000)
    assert len(res) == 2000
    assert len(pops) == 1999


def _assert_split_partitions(parent, keep, moved, k):
    for y in permutations(range(k)):
        assert keep.contains(y) + moved.contains(y) == parent.contains(y)


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(2, 6),
    kind=st.sampled_from(["gaussian", "ties"]),
    psi_kind=st.sampled_from(["hinge", "exp"]),
    seed=st.integers(0, 2**32 - 1),
    walk=st.lists(st.booleans(), max_size=12),
)
def test_a_ranking_split_partitions_its_parent(k, kind, psi_kind, seed, walk):
    r, psi = _relevances(kind, k, psi_kind, np.random.default_rng(seed))
    problem, eager_problem = RankingProblem(r, psi), _EagerRanking(r, psi)
    cell, eager = problem.root(), eager_problem.root()
    for pick in walk:
        assert cell.constraints == eager.constraints
        assert cell.best == eager.best
        if cell.second is None:
            break
        children, eager_children = problem.split(cell), eager_problem.split(eager)
        _assert_split_partitions(cell, *children, k)
        cell, eager = children[pick], eager_children[pick]
    assert cell.constraints == eager.constraints


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
    walk=st.lists(st.booleans(), max_size=12),
)
def test_a_matching_split_partitions_its_parent(k, seed, walk):
    problem = MatchingProblem(np.random.default_rng(seed).integers(0, 4, size=(k, k)))
    cell = problem.root()
    for pick in walk:
        if cell.second is None:
            break
        children = problem.split(cell)
        _assert_split_partitions(cell, *children, k)
        cell = children[pick]
