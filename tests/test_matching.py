import math
import sys
from itertools import permutations

import numpy as np
import pytest

from weakconformal import matching
from weakconformal.matching import _permutation_index
from weakconformal import (
    FormatError,
    MatchingProblem,
    PartialMatching,
    enumerate_until,
    hungarian,
    m_best,
    matching_score,
    min_matching_cost,
    partial_matching_score,
    read_cost_csv,
)


def _brute_min(costs, forced=(), forbidden=()):
    k = costs.shape[0]
    best = None
    forced = dict(forced)
    forbidden = set(forbidden)
    for p in permutations(range(k)):
        if any(p[u] != v for u, v in forced.items()):
            continue
        if any((u, p[u]) in forbidden for u in range(k)):
            continue
        total = sum(costs[u, p[u]] for u in range(k))
        if best is None or total < best:
            best = total
    return best


def test_hungarian_hand_example():
    costs = np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]])
    perm, total = hungarian(costs)
    assert perm == (1, 0, 2)
    assert total == pytest.approx(5.0)


def test_hungarian_identity_on_diagonal_advantage():
    costs = np.full((4, 4), 1.0) - np.eye(4)
    perm, total = hungarian(costs)
    assert perm == (0, 1, 2, 3)
    assert total == pytest.approx(0.0)


def test_hungarian_random_vs_brute_force():
    rng = np.random.default_rng(31)
    for _ in range(150):
        k = int(rng.integers(2, 7))
        costs = rng.normal(size=(k, k))
        _, total = hungarian(costs)
        assert total == pytest.approx(_brute_min(costs), abs=1e-9)


def test_hungarian_forced_pairs():
    rng = np.random.default_rng(32)
    for _ in range(50):
        k = int(rng.integers(3, 6))
        costs = rng.normal(size=(k, k))
        u = int(rng.integers(k))
        v = int(rng.integers(k))
        result = hungarian(costs, forced=((u, v),))
        assert result is not None
        perm, total = result
        assert perm[u] == v
        assert total == pytest.approx(_brute_min(costs, forced=((u, v),)), abs=1e-9)


def test_hungarian_forbidden_pairs():
    rng = np.random.default_rng(33)
    for _ in range(50):
        k = int(rng.integers(3, 6))
        costs = rng.normal(size=(k, k))
        best, _ = hungarian(costs)
        banned = ((0, best[0]),)
        result = hungarian(costs, forbidden=banned)
        assert result is not None
        perm, total = result
        assert perm[0] != best[0]
        assert total == pytest.approx(_brute_min(costs, forbidden=banned), abs=1e-9)


def test_hungarian_infeasible_returns_none():
    costs = np.zeros((2, 2))
    # row 0 loses both columns
    assert hungarian(costs, forbidden=((0, 0), (0, 1))) is None


@pytest.mark.parametrize("value", [2.0**53, 1e17])
def test_hungarian_large_constant_matrices(value):
    # forbidden pairs must dominate however large the entries are
    costs = np.full((3, 3), value)
    for banned in ((), ((0, 0),)):
        result = hungarian(costs, forbidden=banned)
        assert result is not None
        perm, total = result
        assert all((u, perm[u]) not in banned for u in range(3))
        assert total == _brute_min(costs, forbidden=banned)
    assert hungarian(costs, forbidden=((0, 0), (0, 1), (0, 2))) is None


def test_m_best_on_large_constant_matrix():
    costs = np.full((3, 3), 1e17)
    res = m_best(MatchingProblem(costs), 6)
    assert sorted(res.configs) == sorted(permutations(range(3)))
    assert res.scores == [_brute_min(costs)] * 6


@pytest.mark.filterwarnings("error")
def test_costs_that_could_overflow_are_rejected():
    # the largest magnitude for k = 4 is float max / (4k(k + 2)): at it every
    # total and potential stays finite, one ulp past it is a ValueError
    limit = sys.float_info.max / 96
    rng = np.random.default_rng(1)
    raw = rng.uniform(-1, 1, size=(4, 4))
    costs = raw / np.abs(raw).max() * limit
    res = m_best(MatchingProblem(costs), 24)
    assert res.scores == sorted(matching_score(costs, p) for p in permutations(range(4)))
    assert all(math.isfinite(s) for s in res.scores)
    # 5e307 entries warned of overflow nine times in the reoptimisation
    past = costs.copy()
    past[0, 0] = math.nextafter(limit, math.inf)
    for big in (raw * 5e307, past, -past):
        for call in (MatchingProblem, hungarian, min_matching_cost):
            with pytest.raises(ValueError, match="overflow"):
                call(big)
        with pytest.raises(ValueError, match="overflow"):
            matching_score(big, (0, 1, 2, 3))


def test_hungarian_conflicting_constraints():
    costs = np.zeros((2, 2))
    with pytest.raises(ValueError):
        hungarian(costs, forced=((0, 0),), forbidden=((0, 0),))
    with pytest.raises(ValueError):
        hungarian(costs, forced=((0, 0), (1, 0)))


def test_matching_score_and_translation():
    costs = np.array([[1.0, 2.0], [3.0, 0.5]])
    assert matching_score(costs, (0, 1)) == pytest.approx(1.5)
    assert matching_score(costs, (1, 0)) == pytest.approx(5.0)
    assert min_matching_cost(costs) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        matching_score(costs, (0, 0))


def test_partial_matching_score_vs_exhaustive_completions():
    rng = np.random.default_rng(34)
    for _ in range(40):
        k = int(rng.integers(3, 6))
        costs = rng.normal(size=(k, k))
        m = int(rng.integers(1, k))
        rows = rng.choice(k, size=m, replace=False)
        cols = rng.permutation(k)[:m]
        w = PartialMatching(tuple(zip(map(int, rows), map(int, cols))), k)
        got = partial_matching_score(costs, w)
        want = min(
            matching_score(costs, p)
            for p in permutations(range(k))
            if all(p[u] == v for u, v in w.pairs)
        )
        assert got == pytest.approx(want, abs=1e-9)


def test_second_best_is_true_runner_up():
    rng = np.random.default_rng(35)
    for _ in range(40):
        k = int(rng.integers(2, 6))
        costs = rng.normal(size=(k, k))
        res = m_best(MatchingProblem(costs), 2)
        totals = sorted(
            sum(costs[i, p[i]] for i in range(k)) for p in permutations(range(k))
        )
        np.testing.assert_allclose(res.scores, totals[:2], atol=1e-9)


def test_problem_offset_shifts_scores():
    costs = np.array([[1.0, 2.0], [3.0, 0.5]])
    problem = MatchingProblem(costs, offset=1.5)
    res = m_best(problem, 2)
    np.testing.assert_allclose(res.scores, [0.0, 3.5], atol=1e-12)


def test_partition_cells_cover_space_without_overlap():
    rng = np.random.default_rng(36)
    costs = rng.normal(size=(4, 4))
    problem = MatchingProblem(costs)
    res = m_best(problem, 24)
    assert len(res.configs) == 24
    assert len(set(res.configs)) == 24


def test_read_cost_csv(tmp_path):
    path = tmp_path / "costs.csv"
    path.write_text("2\n1.0,2.0\n3.0,4.0\n")
    costs = read_cost_csv(str(path))
    np.testing.assert_allclose(costs, [[1.0, 2.0], [3.0, 4.0]])


def test_read_cost_csv_bad_row_length(tmp_path):
    path = tmp_path / "costs.csv"
    path.write_text("2\n1.0,2.0\n3.0\n")
    with pytest.raises(FormatError) as err:
        read_cost_csv(str(path))
    assert err.value.line == 3


# --- second-best by reoptimisation -----------------------------------------

_COST_KINDS = {
    "normal": lambda rng, k: rng.normal(size=(k, k)),
    "ties": lambda rng, k: rng.integers(0, 5, size=(k, k)).astype(float),
    "offset": lambda rng, k: rng.normal(size=(k, k)) + 1e12,
}


def _space(costs):
    """Every assignment and its total, summed in row order like the solver."""
    k = costs.shape[0]
    perms = np.array(list(permutations(range(k))))
    totals = np.array([sum(costs[u, p[u]] for u in range(k)) for p in perms])
    return perms, totals


def _tolerance(costs):
    # a few roundings of a k-term sum at the largest total's magnitude
    k = costs.shape[0]
    return 4 * k * np.spacing(k * np.abs(costs).max())


def _in_cell(perms, cell):
    inside = np.ones(len(perms), dtype=bool)
    for u, v in cell.forced:
        inside &= perms[:, u] == v
    for u, v in cell.forbidden:
        inside &= perms[:, u] != v
    return inside


@pytest.mark.parametrize("kind", sorted(_COST_KINDS))
def test_cell_second_best_is_brute_force_runner_up(kind):
    rng = np.random.default_rng(37)
    for _ in range(25):
        k = int(rng.integers(2, 8))
        costs = _COST_KINDS[kind](rng, k)
        perms, totals = _space(costs)
        tol = _tolerance(costs)
        problem = MatchingProblem(costs)
        cell = problem.root()
        # a random walk of splits gives cells with random forced and
        # forbidden sets, each carrying the potentials handed down to it
        for _ in range(12):
            members = np.sort(totals[_in_cell(perms, cell)])
            assert cell.contains(cell.best)
            assert cell.best_score == pytest.approx(members[0], abs=tol)
            if members.size == 1:
                assert cell.second is None and cell.second_score is None
                break
            assert cell.second is not None
            assert cell.second != cell.best and cell.contains(cell.second)
            assert cell.second_score == sum(costs[u, cell.second[u]] for u in range(k))
            assert cell.second_score == pytest.approx(members[1], abs=tol)
            cell = problem.split(cell)[int(rng.integers(2))]


@pytest.mark.parametrize("kind", sorted(_COST_KINDS))
@pytest.mark.parametrize("k", [5, 6])
def test_m_best_to_exhaustion_equals_sorted_space(kind, k):
    rng = np.random.default_rng(38 + k)
    costs = _COST_KINDS[kind](rng, k)
    perms, totals = _space(costs)
    res = m_best(MatchingProblem(costs), math.factorial(k) + 1)
    assert len(res) == math.factorial(k)
    assert len(set(res.configs)) == len(res)
    np.testing.assert_array_equal(res.scores, np.sort(totals))

    def groups(configs, scores):
        out = {}
        for y, s in zip(configs, scores):
            out.setdefault(s, set()).add(tuple(int(v) for v in y))
        return out

    assert groups(res.configs, res.scores) == groups(perms, totals)


def test_only_the_root_pays_a_cold_solve(monkeypatch):
    calls = []
    solve = matching._solve_square

    def counted(cost):
        calls.append(len(cost))
        return solve(cost)

    monkeypatch.setattr(matching, "_solve_square", counted)
    costs = np.random.default_rng(39).normal(size=(6, 6))
    res = m_best(MatchingProblem(costs), 200)
    assert len(res) == 200
    assert calls == [6]


def test_score_sums_in_row_order_like_the_enumeration():
    # at k >= 8 a pairwise sum differs in the last bit from the row-order sum
    # the enumeration emits, which pushed y out of its own sublevel set
    costs = np.random.default_rng(0).normal(size=(12, 12))
    problem = MatchingProblem(costs)
    best = m_best(problem, 30)
    y, emitted = best.configs[4], best.scores[4]
    assert problem.score(y) == emitted == -14.770310954170828
    assert y in enumerate_until(problem, problem.score(y)).configs
    for config, score in zip(best.configs, best.scores):
        assert matching_score(costs, config) == score


def test_permutation_index_is_the_itertools_position():
    # the match table finds each record's true assignment by this column
    rng = np.random.default_rng(40)
    for k in range(1, 8):
        perms = list(permutations(range(k)))
        column = {perm: j for j, perm in enumerate(perms)}
        rows = np.array([perms[j] for j in rng.integers(0, len(perms), size=50)])
        assert _permutation_index(rows).tolist() == [column[tuple(r)] for r in rows.tolist()]
        assert _permutation_index(np.array(perms)).tolist() == list(range(len(perms)))
