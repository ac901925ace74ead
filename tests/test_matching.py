import hashlib
import math
import sys
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weakconformal import matching
from weakconformal import (
    FormatError,
    MatchingProblem,
    PartialMatching,
    compatible_rank,
    enumerate_until,
    hungarian,
    m_best,
    matching_score,
    min_matching_cost,
    partial_matching_score,
    read_cost_csv,
    weak_contains,
)
from weakconformal.conformal import TOL


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


# --- emission order ---------------------------------------------------------

_ORDER_KINDS = {
    "normal": lambda rng, k: rng.normal(size=(k, k)),
    "ties": lambda rng, k: rng.integers(0, 3, size=(k, k)).astype(float),
    "separable": lambda rng, k: rng.normal(size=(k, 1)) + rng.normal(size=k),
    "subnormal": lambda rng, k: rng.integers(-2, 3, size=(k, k)) * 1e-310,
    "near_limit": lambda rng, k: rng.uniform(-1, 1, size=(k, k)) * matching._cost_limit(k),
}


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(sorted(_ORDER_KINDS)),
    k=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_matching_enumeration_is_the_space_in_margin_order(kind, k, seed):
    # rounding of the reduced costs may swap near-tied assignments, but never
    # by more than the problem's margin, and never loses or repeats one
    costs = _ORDER_KINDS[kind](np.random.default_rng(seed), k)
    problem = MatchingProblem(costs)
    perms, totals = _space(costs)
    res = m_best(problem, math.factorial(k))
    assert sorted(res.configs) == [tuple(p) for p in perms.tolist()]
    for y, s in zip(res.configs, res.scores):
        assert s == problem.score(y)
    assert sorted(res.scores) == sorted(totals.tolist())
    slack = max(TOL, problem.margin)
    assert all(b >= a - slack for a, b in zip(res.scores, res.scores[1:]))


def _planted(seed, kind_id, j, k):
    """A benchmark-style matching input: Gaussian costs less 1 on a planted
    assignment, the agents revealed to the weak label, and the m_best index
    it is revealed from."""
    rng = np.random.default_rng([seed, 2, kind_id, j])
    planted = rng.permutation(k)
    costs = rng.standard_normal((k, k))
    costs[np.arange(k), planted] -= 1.0
    reveal = sorted(int(u) for u in rng.choice(k, size=max(1, k // 4), replace=False))
    return costs, reveal, int(rng.integers(12, 25))


def _mbest_digest(costs, reveal, weak_index):
    problem = MatchingProblem(costs)
    best = m_best(problem, 50)
    until = enumerate_until(problem, best.scores[25], cap=50)
    y = best.configs[weak_index]
    weak = PartialMatching(tuple((u, y[u]) for u in reveal), len(y))
    rank = compatible_rank(problem, lambda c: weak_contains(weak, c), cap=50)
    out = [(res.configs, [repr(s) for s in res.scores]) for res in (best, until)]
    return hashlib.sha256(repr((out, rank)).encode()).hexdigest()


# sha256 of the configurations and score reprs from m_best(50), enumerate_until
# at the 26th score and compatible_rank, on 6 planted inputs per k
_MBEST_DIGESTS = {
    8: [
        "afedbb00c7a354e29c36877df5c76a15b6c89f910aceb48a69b6b449ea38742e",
        "23b5f63c2bfba197782cb2255690c3446619c1632e388e5e3115ebeeeb09afc6",
        "d6bfceaaaa4fb3c4362e5c512129064b9e3709bdbb799a547528ad5569a47e25",
        "c2048580785dfc205e888904f5628775a923b14842f054a99d9c393ad474bf6e",
        "888f014b014a6c2e7ea44fbab8c0c86f4afe37469dc31da0d0b4254ca717ca4e",
        "7a7bb970f1f4338fe062b26a7ccac7cc48df05b384d29dc6c9d7f3cefafc0b17",
    ],
    12: [
        "92ac4afea80b9638376e5085dcdc7d95b806830a8d061c122bb6786272a305a4",
        "5cf6504f7bd1241c2280ac31163adad9e83bedc7ccbfcdcecf8a9ef2290e34ee",
        "99a6f3d207fcea4e9f7aa7d703d1b709e43f74c2bad8b562ca75a2be95721253",
        "ec40e3cc10d7a834a01a32e75234e9ad2c07c9e6df14a9c64f057cf767624987",
        "42a04c9c9302301f0b48f93dc4b2d566b0459f083411484966e86f2a549440f4",
        "a9f35c4a650a4f9f0a5851675687b4e6ebb19cec2d1c4b9d742249e7c8fa98e8",
    ],
    20: [
        "d18bb3a59b1e4e0aed98f52c7ba2016f4cac2ba75983c82160e0a2ba4f577d63",
        "09e4eedcea7788b4a4c1168258374c0d18247f4b0b4ec7aa57539c8d22b0a837",
        "a38c8afe2fa54e2aeb2bff91c5b99b2fe91046c4a0f52123840abfc1150ac586",
        "2a897434b823ef82f80375acd60442b1ab0ddff0119599b998b1e94c765be562",
        "60400317c1c084e9759a4ad42f960ff72b153d189ad5b11733d4aed465056dcd",
        "933fd7be6ca3a27ae22271db530b6552e07d01c640c4992dc8f82a4326b7501f",
    ],
}


@pytest.mark.parametrize("k", sorted(_MBEST_DIGESTS))
def test_emission_off_ties_is_pinned(k):
    kind_id = sorted(_MBEST_DIGESTS).index(k)
    got = [_mbest_digest(*_planted(7, kind_id, j, k)) for j in range(6)]
    assert got == _MBEST_DIGESTS[k]


# --- split children from the parent's state -----------------------------------


def _reference_second_best(problem, forced, forbidden, best, duals):
    """A cell's runner-up from scratch: its free state rebuilt from its pair
    sets and one closure of its own, as a cell was resolved before children
    started from their parent's state. Returns (second, its total, its
    duals, split row), or None for a singleton cell."""
    k = problem.k
    forced_rows = {uu for uu, _ in forced}
    forced_cols = {vv for _, vv in forced}
    rows = np.array([uu for uu in range(k) if uu not in forced_rows], dtype=np.intp)
    cols = np.array([vv for vv in range(k) if vv not in forced_cols], dtype=np.intp)
    m = rows.size
    if m < 2:
        return None
    u, v = duals
    best_arr = np.array(best, dtype=np.intp)
    ar = np.arange(m)
    row_pos = np.full(k, -1, dtype=np.intp)
    row_pos[rows] = ar
    col_pos = np.full(k, -1, dtype=np.intp)
    col_pos[cols] = ar
    match = col_pos[best_arr[rows]]
    row_of = np.empty(m, dtype=np.intp)
    row_of[match] = ar
    reduced = problem.costs[np.ix_(rows, cols)] - u[rows, None] - v[cols]
    if forbidden:
        fr, fc = np.array(list(forbidden), dtype=np.intp).T
        a, b = row_pos[fr], col_pos[fc]
        inside = (a >= 0) & (b >= 0)
        reduced[a[inside], b[inside]] = np.inf
    dist = np.maximum(reduced[row_of], 0.0)
    dist[ar, ar] = np.inf
    pred = np.repeat(ar[:, None], m, axis=1)
    for w in range(m):
        cand = dist[:, w, None] + dist[w]
        better = cand < dist
        np.copyto(dist, cand, where=better)
        np.copyto(pred, pred[w], where=better)
    length = dist[match, match]
    sources = np.flatnonzero(length < np.inf).tolist()
    if not sources:
        return None
    configs = []
    for src in sources:
        y = list(best)
        a = j = int(match[src])
        for _ in range(m):
            p = int(pred[a, j])
            y[rows[row_of[p]]] = int(cols[j])
            if p == a:
                break
            j = p
        else:
            raise AssertionError("a re-route does not close")
        configs.append(y)
    totals = np.cumsum(problem.costs[np.arange(k), configs], axis=1)[:, -1]
    i = int(np.argmin(totals))
    s = sources[i]
    d = np.minimum(dist[match[s]], length[s])
    row_shift = d[match]
    row_shift[s] = 0.0
    su = u.copy()
    su[rows] -= row_shift
    sv = v.copy()
    sv[cols] += d
    return tuple(configs[i]), float(totals[i]), (su, sv), int(rows[s])


def _check_against_reference(problem, cell):
    k = problem.k
    rows, cols, sub = cell.free
    forced = dict(cell.forced)
    assert rows.tolist() == [uu for uu in range(k) if uu not in forced]
    assert cols.tolist() == [vv for vv in range(k) if vv not in forced.values()]
    want_sub = problem.costs[np.ix_(rows, cols)].copy()
    for uu, vv in cell.forbidden:
        if uu in rows and vv in cols:
            want_sub[rows.tolist().index(uu), cols.tolist().index(vv)] = np.inf
    assert sub.tobytes() == want_sub.tobytes()
    want = _reference_second_best(problem, cell.forced, cell.forbidden, cell.best, cell.duals)
    if want is None:
        assert cell.second is None and cell.second_score is None
        return
    second, total, (su, sv), split_row = want
    assert cell.second == second
    assert repr(cell.second_score) == repr(total - problem.offset)
    assert cell.split_row == split_row
    assert cell.second_duals[0].tobytes() == su.tobytes()
    assert cell.second_duals[1].tobytes() == sv.tobytes()


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(sorted(_ORDER_KINDS)),
    k=st.integers(2, 7),
    seed=st.integers(0, 2**32 - 1),
)
def test_split_children_equal_a_closure_of_their_own(kind, k, seed):
    # each child starts from its parent's free state, and both come from one
    # stacked closure: every field must be bit-equal to a cell resolved alone
    rng = np.random.default_rng(seed)
    problem = MatchingProblem(_ORDER_KINDS[kind](rng, k), offset=float(rng.normal()))
    cell = problem.root()
    _check_against_reference(problem, cell)
    for _ in range(10):
        if cell.second is None:
            break
        children = problem.split(cell)
        for child in children:
            _check_against_reference(problem, child)
        cell = children[int(rng.integers(2))]


def test_one_closure_at_the_root_and_one_per_split(monkeypatch):
    layers = []
    closure = matching._closure

    def counted(dist):
        layers.append(dist.shape)
        return closure(dist)

    monkeypatch.setattr(matching, "_closure", counted)
    costs = np.random.default_rng(40).normal(size=(6, 6))
    res = m_best(MatchingProblem(costs), 200)
    assert len(res) == 200
    # the root, then one split per emitted configuration after the first
    assert len(layers) == len(res)
    assert layers[0] == (1, 6, 6)
    assert all(shape[0] in (1, 2) for shape in layers[1:])
    assert sum(shape[0] == 2 for shape in layers) > 100
