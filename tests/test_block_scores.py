"""Properties of the four tasks' block-score functions over random blocks.

The weak (best-case) score never exceeds the true label's score, which never
exceeds the worst case over the weak label; so the threshold calibrated on
weak scores never exceeds the supervised one. Both thresholds shrink as
alpha grows, so the prediction sets nest.
"""
import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weakconformal import (
    MatchingProblem,
    PsiSpec,
    conformal_threshold,
    interval_block_scores,
    matching_block_scores,
    matching_score,
    prefix_block_scores,
    set_block_scores,
)
from weakconformal import matching
from weakconformal.matching import matching_levelset_counts
from weakconformal.mbest import _levelset_counts

ALPHAS = st.lists(st.floats(0.01, 0.99), min_size=2, max_size=2)
SEEDS = st.integers(0, 2**32 - 1)


def _assert_ordered(alphas, weak, strong, pessimistic=None):
    assert np.all(weak <= strong)
    if pessimistic is not None:
        assert np.all(strong <= pessimistic)
    smaller, larger = (
        [conformal_threshold(s, alpha).value for s in (weak, strong)] for alpha in sorted(alphas)
    )
    assert all(w <= s for w, s in (smaller, larger))
    assert all(b <= a for a, b in zip(smaller, larger))  # nested in alpha


def _permutations(rng, n, k):
    return rng.permuted(np.tile(np.arange(k), (n, 1)), axis=1)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 40), k=st.integers(2, 9), tied=st.booleans(), alphas=ALPHAS, seed=SEEDS)
def test_set_block_scores_are_ordered(n, k, tied, alphas, seed):
    rng = np.random.default_rng(seed)
    scores = rng.integers(0, 3, size=(n, k)) * 1.0 if tied else rng.normal(size=(n, k))
    y = rng.integers(0, k, size=n)
    member = rng.random((n, k)) < rng.random()
    member[np.arange(n), y] = True
    strong, weak, pessimistic = set_block_scores(scores, y, member)
    _assert_ordered(alphas, weak, strong, pessimistic)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 40), k=st.integers(2, 8), tied=st.booleans(), scale=st.sampled_from([1.0, 10.0]),
       c=st.sampled_from([0.0, 0.5, 2.0]), alphas=ALPHAS, seed=SEEDS)
def test_prefix_block_scores_are_ordered(n, k, tied, scale, c, alphas, seed):
    rng = np.random.default_rng(seed)
    rel = rng.integers(0, 3, size=(n, k)) * scale if tied else rng.normal(size=(n, k)) * scale
    order = _permutations(rng, n, k)
    lengths = rng.integers(0, k + 1, size=n)
    psi = PsiSpec.hinge() if c == 0 else PsiSpec.exp_weighted(c)
    strong, weak = prefix_block_scores(rel, order, lengths, psi)
    _assert_ordered(alphas, weak, strong)
    # a fully revealed ranking is its own completion
    full = prefix_block_scores(rel, order, np.full(n, k), psi)
    assert full[0].tobytes() == full[1].tobytes()


def test_prefix_weak_score_does_not_round_above_strong():
    # The completion and the truth share the prefix-to-rest pair terms but sum
    # them in other positions; under exp weights this record's completion sums
    # to 1.1000808926222502e+21, one ulp above the truth's 1.10008089262225e+21.
    rel = np.array([[6.333526228249152, -22.035098806466507, 0.5202897425988651, 6.8368619077653445]])
    strong, weak = prefix_block_scores(rel, np.array([[1, 0, 2, 3]]), [1], PsiSpec.exp_weighted(2.0))
    assert weak[0] <= strong[0] == 1.10008089262225e21


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 40), k=st.integers(2, 6), integer_costs=st.booleans(), alphas=ALPHAS,
       seed=SEEDS)
def test_matching_block_scores_are_ordered(n, k, integer_costs, alphas, seed):
    rng = np.random.default_rng(seed)
    costs = rng.integers(0, 5, size=(n, k, k)) * 1.0 if integer_costs else rng.normal(size=(n, k, k))
    planted = _permutations(rng, n, k)
    revealed = np.where(rng.random((n, k)) < rng.random(), planted, -1)
    strong, weak, base = matching_block_scores(costs, planted, revealed)
    _assert_ordered(alphas, weak, strong)
    # the smallest translated total is 0: no assignment below it, one at it
    counts, _ = matching_levelset_counts(costs, base, [np.nextafter(0.0, -1.0), 0.0], 3)
    assert np.all(weak >= 0) and np.all(counts[:, 0] == 0) and np.all(counts[:, 1] >= 1)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 40), alphas=ALPHAS, seed=SEEDS)
def test_interval_block_scores_are_ordered(n, alphas, seed):
    rng = np.random.default_rng(seed)
    y = rng.normal(scale=10.0, size=n)
    lo = y - rng.exponential(rng.random(), size=n)
    hi = y + rng.exponential(rng.random(), size=n)
    y_hat = y + rng.normal(scale=rng.random() * 3, size=n)
    strong, weak, pessimistic = interval_block_scores(y_hat, y, lo, hi)
    _assert_ordered(alphas, weak, strong, pessimistic)


# --- matching_block_scores and matching_levelset_counts against the full table ------


def _permutation_index(perms) -> np.ndarray:
    """Each row's place among the permutations of [0, k) in lexicographic
    order, the order of itertools.permutations(range(k)): its Lehmer code."""
    p = np.asarray(perms)
    k = p.shape[1]
    later = np.triu(np.ones((k, k), dtype=bool), 1)  # later[u, v]: v comes after u
    smaller = ((p[:, None, :] < p[:, :, None]) & later).sum(axis=2)
    return smaller @ np.array([math.factorial(k - 1 - u) for u in range(k)])


def _table_block_scores(costs, planted, revealed):
    """The reference: strong, weak, base and every translated total, read off
    the table of all k! row-order assignment totals, the base being its
    minimum and the weak score its minimum over the pinned columns."""
    costs = np.asarray(costs, dtype=float)
    revealed = np.asarray(revealed)
    n, k = costs.shape[:2]
    perms = np.array(list(itertools.permutations(range(k))))
    truth = _permutation_index(planted)
    totals = costs[:, 0, perms[:, 0]]
    for u in range(1, k):
        totals += costs[:, u, perms[:, u]]
    base = totals.min(axis=1)
    strong = totals[np.arange(n), truth] - base
    fits = np.ones(totals.shape, dtype=bool)
    for u in range(k):
        pin = revealed[:, u, None]
        fits &= (perms[:, u] == pin) | (pin < 0)
    weak = np.where(fits, totals, np.inf).min(axis=1) - base
    return strong, weak, base, totals - base[:, None]


def test_permutation_index_is_the_itertools_position():
    # the reference table finds each record's true assignment by this column
    rng = np.random.default_rng(40)
    for k in range(1, 8):
        perms = list(itertools.permutations(range(k)))
        column = {perm: j for j, perm in enumerate(perms)}
        rows = np.array([perms[j] for j in rng.integers(0, len(perms), size=50)])
        assert _permutation_index(rows).tolist() == [column[tuple(r)] for r in rows.tolist()]
        assert _permutation_index(np.array(perms)).tolist() == list(range(len(perms)))


def _cost_block(rng, n, k, kind):
    limit = sys.float_info.max / (4 * k * (k + 2))  # matching._as_cost_matrix's bound
    if kind == "ties":
        return rng.integers(-3, 4, size=(n, k, k)) * 1.0
    if kind == "signed zeros":
        return rng.choice([0.0, -0.0, 1.0, -1.0], size=(n, k, k))
    if kind == "limit":
        costs = rng.uniform(-1, 1, size=(n, k, k)) * limit
        costs[rng.random((n, k, k)) < 0.2] = limit  # entries at the bound, and ties
        return costs * np.where(rng.random((n, k, k)) < 0.5, -1.0, 1.0)
    if kind == "1e100":
        return rng.choice([-1e100, 1e100], size=(n, k, k))
    if kind == "scaled":
        return rng.normal(size=(n, k, k)) * 10.0 ** rng.integers(-3, 7)
    return rng.normal(size=(n, k, k))


COST_KINDS = st.sampled_from(["normal", "ties", "signed zeros", "limit", "1e100", "scaled"])


@settings(max_examples=120, deadline=None)
@given(k=st.integers(1, 7), n=st.sampled_from([1, 15, 16, 17, 40]),
       pins=st.sampled_from(["none", "all", "random"]), kind=COST_KINDS, seed=SEEDS)
def test_matching_block_scores_equal_the_full_table(k, n, pins, kind, seed):
    # n crosses the DP's chunk edges, lowered to 16 records
    rng = np.random.default_rng(seed)
    costs = _cost_block(rng, n, k, kind)
    planted = _permutations(rng, n, k)
    revealed = {
        "none": np.full((n, k), -1),
        "all": planted,
        "random": np.where(rng.random((n, k)) < rng.random(), planted, -1),
    }[pins]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matching, "_TABLE_ENTRIES", 16)
        strong, weak, base = matching_block_scores(costs, planted, revealed)
    strong_ref, weak_ref, base_ref, _ = _table_block_scores(costs, planted, revealed)
    assert np.array_equal(strong, strong_ref)
    assert np.array_equal(weak, weak_ref)
    assert np.array_equal(base, base_ref)


def _probe_thresholds(rng, costs, translated):
    """Thresholds at one translated total of a random record, one ulp and one
    MatchingProblem margin either side of it, and at 0, -0.5 and +inf."""
    i = int(rng.integers(len(costs)))
    at = float(rng.choice(translated[i]))
    margin = MatchingProblem(costs[i]).margin
    return [at, np.nextafter(at, -np.inf), np.nextafter(at, np.inf), at - margin, at + margin,
            0.0, -0.5, np.inf]


@settings(max_examples=150, deadline=None)
@given(k=st.integers(1, 7), n=st.sampled_from([1, 15, 16, 17, 40]), kind=COST_KINDS,
       cap=st.integers(1, 29), seed=SEEDS)
def test_matching_levelset_counts_equal_the_full_table(k, n, kind, cap, seed):
    # every count and flag is that of the k! translated totals; n crosses the
    # counter's chunk edges, lowered to 16 records
    rng = np.random.default_rng(seed)
    costs = _cost_block(rng, n, k, kind)
    _, _, base, translated = _table_block_scores(costs, _permutations(rng, n, k), np.full((n, k), -1))
    thresholds = _probe_thresholds(rng, costs, translated)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matching, "_TABLE_ENTRIES", 16)
        counts, flags = matching_levelset_counts(costs, base, thresholds, cap)
    exact = (translated[:, :, None] <= np.array(thresholds)).sum(axis=1)
    assert counts.tolist() == np.minimum(exact, cap).tolist()
    assert flags.tolist() == (exact > cap).tolist()


@settings(max_examples=30, deadline=None)
@given(k=st.integers(8, 10), kind=COST_KINDS, cap=st.integers(1, 29), seed=SEEDS)
def test_matching_levelset_counts_equal_the_engine(k, kind, cap, seed):
    # past the table's reach, best-first enumeration of each record is the reference
    rng = np.random.default_rng(seed)
    n = 3
    costs = _cost_block(rng, n, k, kind)
    _, _, base = matching_block_scores(costs, _permutations(rng, n, k), np.full((n, k), -1))
    some = np.array([matching_score(c, rng.permutation(k)) for c in costs]) - base
    thresholds = _probe_thresholds(rng, costs, some[:, None])
    counts, flags = matching_levelset_counts(costs, base, thresholds, cap)
    for i in range(n):
        engine = _levelset_counts(MatchingProblem(costs[i], offset=base[i]), thresholds, cap)
        assert counts[i].tolist() == engine[0].tolist()
        assert flags[i].tolist() == engine[1].tolist()


def test_crowded_records_are_counted_by_the_engine(monkeypatch):
    # every assignment of a constant matrix ties with every other; at k = 9 a
    # record keeps more than cap + _CROWDED prefixes on a row and goes to
    # best-first enumeration, while at k = 7 (7! prefixes at most) it never does
    engine, calls = matching._levelset_counts, []
    monkeypatch.setattr(matching, "_levelset_counts", lambda *a: calls.append(a) or engine(*a))
    for k, enumerated in ((7, 0), (9, 2)):
        calls.clear()
        costs = np.ones((2, k, k))
        counts, flags = matching_levelset_counts(costs, np.full(2, float(k)), [-0.5, 0.0], 20)
        assert counts.tolist() == [[0, 20], [0, 20]]
        assert flags.tolist() == [[False, True], [False, True]]
        assert len(calls) == enumerated


def test_matching_block_scores_keep_memory_flat():
    # 2000 records at k = 6: the DP and the counter both run in chunks
    rng = np.random.default_rng(7)
    costs = rng.normal(size=(2000, 6, 6))
    planted = _permutations(rng, 2000, 6)
    revealed = np.where(rng.random((2000, 6)) < 0.3, planted, -1)
    _, _, base = matching_block_scores(costs[:5], planted[:5], revealed[:5])  # caches outside the trace
    matching_levelset_counts(costs[:5], base, [2.0, 4.0], 20)
    tracemalloc.start()
    try:
        _, _, base = matching_block_scores(costs, planted, revealed)
        scored = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        matching_levelset_counts(costs, base, [2.0, 4.0], 20)
        counted = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scored < 2 * 2**20
    assert counted < 4 * 2**20


def test_matching_block_scores_reject_bad_records():
    costs = np.zeros((3, 3, 3))
    planted = np.tile(np.arange(3), (3, 1))
    revealed = np.full((3, 3), -1)
    limit = sys.float_info.max / (4 * 3 * 5)

    def rejected(match, costs=costs, planted=planted, revealed=revealed):
        with pytest.raises(ValueError, match=match):
            matching_block_scores(costs, planted, revealed)

    for value in (np.nan, np.inf, -np.inf, np.nextafter(limit, np.inf)):
        bad = costs.copy()
        bad[2, 1, 1] = value
        rejected("record 2: cost entries must be finite", costs=bad)
        with pytest.raises(ValueError, match="record 2: cost entries must be finite"):
            matching_levelset_counts(bad, np.zeros(3), [1.0], 2)
    bad = planted.copy()
    bad[1] = [0, 0, 1]
    rejected("record 1: the true assignment is not a permutation", planted=bad)
    for pins, what in (([0, 3, -1], "outside"), ([-2, -1, -1], "outside"), ([1, 1, -1], "two agents")):
        bad = revealed.copy()
        bad[2] = pins
        rejected(f"record 2: .*{what}", revealed=bad)
    rejected("costs must be", costs=np.zeros((3, 3, 2)))
    rejected("planted must be", planted=planted[:, :2])
    rejected("planted must be", planted=planted * 1.0)
    rejected("revealed must be", revealed=revealed[:2])
    for cap, what in ((2.5, "cap must be an integer"), (0, "cap must be >= 1")):
        with pytest.raises(ValueError, match=what):
            matching_levelset_counts(costs, np.zeros(3), [1.0], cap)
    with pytest.raises(ValueError, match="base must hold one value per record"):
        matching_levelset_counts(costs, np.zeros(2), [1.0], 2)
    # a limit entry and an empty block are fine
    edge = costs.copy()
    edge[0, 0, 0] = limit
    assert matching_block_scores(edge, planted, revealed)[0][0] == limit
    empty = matching_block_scores(np.zeros((0, 3, 3)), np.zeros((0, 3), int), np.zeros((0, 3), int))
    assert [a.shape for a in empty] == [(0,), (0,), (0,)]
    assert [a.shape for a in matching_levelset_counts(np.zeros((0, 3, 3)), empty[2], [1.0], 2)] \
        == [(0, 1), (0, 1)]
