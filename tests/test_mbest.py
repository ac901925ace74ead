import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weakconformal import (
    EnumerationCapExceeded,
    Enumerator,
    MatchingProblem,
    PartitionError,
    PsiSpec,
    RankingPrefix,
    RankingProblem,
    compatible_rank,
    enumerate_until,
    m_best,
    rank_conformalize,
    rank_score,
    weak_contains,
)


def _exhaustive_rank(rel, psi):
    return sorted(
        (rank_score(rel, p, psi), p) for p in permutations(range(len(rel)))
    )


def test_m_best_single_minimizer():
    problem = RankingProblem(np.array([3.0, 2.0, 1.0]), PsiSpec.hinge())
    res = m_best(problem, 1)
    assert res.configs == [(0, 1, 2)]
    assert res.scores == [0.0]


def test_m_best_full_space_matches_brute_force():
    rel = np.array([3.0, 2.0, 1.0])
    psi = PsiSpec.hinge()
    res = m_best(RankingProblem(rel, psi), 6)
    exact = _exhaustive_rank(rel, psi)
    assert len(res.configs) == 6
    np.testing.assert_allclose(res.scores, [s for s, _ in exact], atol=1e-12)
    assert sorted(res.configs) == sorted(p for _, p in exact)


def test_m_best_stops_at_space_size():
    res = m_best(RankingProblem(np.array([2.0, 1.0]), PsiSpec.hinge()), 10)
    assert len(res.configs) == 2
    assert not res.truncated


def test_m_best_scores_nondecreasing_random():
    rng = np.random.default_rng(21)
    for _ in range(30):
        rel = rng.normal(size=4)
        res = m_best(RankingProblem(rel, PsiSpec.exp_weighted(0.7)), 24)
        assert all(a <= b + 1e-12 for a, b in zip(res.scores, res.scores[1:]))
        assert len(set(res.configs)) == 24


def test_enumerate_until_threshold_below_minimum():
    problem = RankingProblem(np.array([3.0, 2.0, 1.0]), PsiSpec.hinge())
    res = enumerate_until(problem, -0.5)
    assert res.configs == []
    assert not res.truncated


def test_enumerate_until_exact_level_set():
    rel = np.array([3.0, 1.0, 2.0])
    psi = PsiSpec.hinge()
    exact = _exhaustive_rank(rel, psi)
    threshold = (exact[2][0] + exact[3][0]) / 2  # between 3rd and 4th best
    res = enumerate_until(RankingProblem(rel, psi), threshold)
    assert len(res.configs) == 3
    assert sorted(res.configs) == sorted(p for _, p in exact[:3])


def test_enumerate_until_infinite_threshold_caps():
    problem = RankingProblem(np.arange(5.0), PsiSpec.hinge())
    res = enumerate_until(problem, math.inf, cap=100)
    assert len(res.configs) == 100
    assert res.truncated


def test_enumerate_until_not_truncated_when_exhausted():
    problem = RankingProblem(np.array([2.0, 1.0, 0.0]), PsiSpec.hinge())
    res = enumerate_until(problem, math.inf, cap=50)
    assert len(res.configs) == 6
    assert not res.truncated


def test_compatible_rank_best_config_compatible():
    rel = np.array([3.0, 2.0, 1.0])
    problem = RankingProblem(rel, PsiSpec.hinge())
    prefix = RankingPrefix((0,), 3)
    assert compatible_rank(problem, lambda y: weak_contains(prefix, y)) == 1


def test_compatible_rank_matches_brute_force():
    rng = np.random.default_rng(22)
    psi = PsiSpec.hinge()
    for _ in range(40):
        rel = rng.normal(size=3)
        first = int(rng.integers(3))
        prefix = RankingPrefix((first,), 3)
        problem = RankingProblem(rel, psi)
        got = compatible_rank(problem, lambda y: weak_contains(prefix, y))
        order = [p for _, p in _exhaustive_rank(rel, psi)]
        want = 1 + next(i for i, p in enumerate(order) if p[0] == first)
        # ties among equal scores make either order legal; compare scores
        got_score = rank_score(rel, m_best(problem, got).configs[-1], psi)
        want_score = _exhaustive_rank(rel, psi)[want - 1][0]
        assert got_score == pytest.approx(want_score, abs=1e-9)


def test_compatible_rank_cap_exceeded():
    problem = RankingProblem(np.arange(4.0), PsiSpec.hinge())
    with pytest.raises(EnumerationCapExceeded):
        compatible_rank(problem, lambda y: False, cap=10)


def test_cap_below_one_is_rejected():
    problem = RankingProblem(np.arange(4.0), PsiSpec.hinge())
    for cap in (0, -5):  # compatible_rank once answered rank 1 at cap 0
        with pytest.raises(ValueError, match="cap must be >= 1"):
            compatible_rank(problem, lambda y: True, cap=cap)
        with pytest.raises(ValueError, match="cap must be >= 1"):
            enumerate_until(problem, math.inf, cap=cap)


def test_counts_and_caps_must_be_integers():
    # a cap of 2.5 ran to 3 configurations, and compatible_rank reported
    # "within the first 1.5"; True was read as 1
    problem = RankingProblem(np.arange(4.0), PsiSpec.hinge())
    for bad in (2.5, True):
        with pytest.raises(ValueError, match="integer"):
            m_best(problem, bad)
        with pytest.raises(ValueError, match="integer"):
            enumerate_until(problem, math.inf, cap=bad)
        with pytest.raises(ValueError, match="integer"):
            compatible_rank(problem, lambda y: False, cap=bad)
    assert len(m_best(problem, np.int64(3))) == 3


def test_rank_conformalize_spec_example():
    assert rank_conformalize([1, 1, 2, 3], [0, 0, 0, 0], alpha=0.25) == 3


def test_rank_conformalize_all_best():
    assert rank_conformalize([1, 1, 1], [1, 1, 1], alpha=0.5) == 0


def test_rank_conformalize_infinite_when_too_few():
    assert rank_conformalize([1, 2], [0, 0], alpha=0.05) == math.inf


def test_rank_conformalize_rejects_empty():
    with pytest.raises(ValueError):
        rank_conformalize([], [], alpha=0.1)


@pytest.mark.parametrize(
    "ranks, offsets", [([1, math.nan, 3], [0, 0, 0]), ([1, 2, 3], [0, math.inf, 0])]
)
def test_rank_conformalize_rejects_what_is_not_finite(ranks, offsets):
    # a NaN rank gave 3.0 and an infinite offset 1.0: a margin from a partial order
    with pytest.raises(ValueError, match="must be finite"):
        rank_conformalize(ranks, offsets, alpha=0.5)


def test_rank_conformalize_weak_coverage():
    # exchangeable ranks: sets built with offset+quantile cover the truth
    rng = np.random.default_rng(23)
    hits = trials = 0
    for _ in range(200):
        ranks = rng.integers(1, 30, size=51)
        cal, test = list(map(int, ranks[:50])), int(ranks[50])
        q = rank_conformalize(cal, [0] * 50, alpha=0.2)
        trials += 1
        hits += test <= q
    assert hits / trials >= 0.8 - 0.05


class _BadCells:
    """Backend whose split discards the parent's best: must be rejected."""

    class Cell:
        def __init__(self, lo, hi):
            self.lo, self.hi = lo, hi
            self.best = lo
            self.best_score = float(lo)
            self.second = lo + 1 if lo + 1 < hi else None
            self.second_score = float(lo + 1) if lo + 1 < hi else math.inf

    def root(self):
        return self.Cell(0, 4)

    def split(self, cell):
        # wrong on purpose: both children skip the parent's best config
        return self.Cell(cell.lo + 1, cell.hi), self.Cell(cell.lo + 2, cell.hi)

    def score(self, config):
        return float(config)


def test_invalid_partition_detected():
    with pytest.raises(PartitionError):
        m_best(_BadCells(), 4)


def test_matching_backend_through_engine():
    rng = np.random.default_rng(24)
    for _ in range(20):
        costs = rng.normal(size=(3, 3))
        res = m_best(MatchingProblem(costs), 6)
        exact = sorted(
            sum(costs[i, p[i]] for i in range(3)) for p in permutations(range(3))
        )
        np.testing.assert_allclose(res.scores, exact, atol=1e-9)


def _tied_problems(rng, n):
    # {0, 1, 2} entries: many exactly tied scores in 4! = 24 configurations
    for _ in range(n):
        yield MatchingProblem(rng.integers(0, 3, size=(4, 4)).astype(float))
        yield RankingProblem(rng.integers(0, 3, size=4).astype(float), PsiSpec.hinge())


def _held_length(count: int, cap: int, space: int) -> int:
    # configurations held after emitting one at a time up to index count
    return min(count + 1, cap, space)


def test_extend_until_follows_m_best_one_configuration_at_a_time():
    rng = np.random.default_rng(31)
    for problem in _tied_problems(rng, 15):
        full = m_best(problem, 24)
        for t in sorted(set(full.scores)):
            n_le = sum(s <= t for s in full.scores)
            for cap in (1, 3, n_le, 8, 23, 24, 30):
                state = Enumerator(problem)
                found = state.extend_until(lambda config, score: score > t, cap)
                assert found == (n_le if n_le < min(cap, 24) else None)
                held = _held_length(n_le, cap, 24)
                assert state.configs == full.configs[:held]
                assert state.scores == full.scores[:held]
                assert state.exhausted == (held == 24)

                res = enumerate_until(problem, t, cap)
                assert res.configs == full.configs[: min(n_le, cap)]
                assert res.scores == full.scores[: min(n_le, cap)]
                # cap members at or under t fill the cap; more may follow
                assert res.truncated == (n_le >= cap and cap < 24)


def test_extend_until_stops_on_the_configuration():
    problem = RankingProblem(np.array([3.0, 1.0, 2.0, 0.0]), PsiSpec.hinge())
    full = m_best(problem, 24)
    for target in range(24):
        state = Enumerator(problem)
        found = state.extend_until(lambda config, score: config == full.configs[target], 24)
        assert found == target
        assert len(state.configs) == _held_length(target, 24, 24)


def test_enumeration_exhausted_exactly_at_the_cap():
    problem = MatchingProblem(np.arange(16.0).reshape(4, 4) % 3)
    state = Enumerator(problem)
    assert state.extend_until(lambda config, score: False, 24) is None
    assert state.exhausted and len(state.configs) == 24
    res = enumerate_until(problem, math.inf, cap=24)
    assert len(res) == 24 and not res.truncated
    assert enumerate_until(problem, math.inf, cap=23).truncated


def test_compatible_rank_without_compatible_configuration():
    problem = RankingProblem(np.arange(4.0), PsiSpec.hinge())
    # an exhausted space is reported before the cap, also when both coincide
    for cap in (24, 25, 1000):
        with pytest.raises(ValueError, match="no compatible"):
            compatible_rank(problem, lambda y: False, cap=cap)
    with pytest.raises(EnumerationCapExceeded):
        compatible_rank(problem, lambda y: False, cap=23)


@settings(max_examples=80, deadline=None)
@given(
    backend=st.sampled_from(["rank", "match"]),
    k=st.integers(2, 6),
    tied=st.booleans(),
    magnitude=st.sampled_from([1.0, 1e6, 1e12]),
    c=st.sampled_from([0.0, 0.5, 2.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_configuration_lies_in_its_own_level_set(backend, k, tied, magnitude, c, seed):
    # tied inputs ({0, 1, 2}) and large magnitudes; ranking's exp weights take
    # c / magnitude so they stay in range (matching ignores c)
    rng = np.random.default_rng(seed)
    shape = k if backend == "rank" else (k, k)
    values = (rng.integers(0, 3, size=shape) if tied else rng.normal(size=shape)) * magnitude
    if backend == "rank":
        problem = RankingProblem(values, PsiSpec.exp_weighted(c / magnitude) if c else PsiSpec.hinge())
    else:
        problem = MatchingProblem(values)
    res = m_best(problem, math.factorial(k))
    # each emitted score is the configuration's own score, to the bit, and no
    # earlier one exceeds it: so y is in enumerate_until(problem, score(y))
    assert res.scores == [problem.score(y) for y in res.configs]
    assert res.scores == sorted(res.scores)
    y = res.configs[int(rng.integers(len(res)))]
    assert y in enumerate_until(problem, problem.score(y), math.factorial(k)).configs
