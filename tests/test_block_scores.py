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
    PsiSpec,
    conformal_threshold,
    interval_block_scores,
    matching_block_scores,
    prefix_block_scores,
    set_block_scores,
)

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
    strong, weak, smallest = matching_block_scores(costs, planted, revealed, keep=3)
    _assert_ordered(alphas, weak, strong)
    assert np.all(weak >= 0) and np.all(smallest.min(axis=1) == 0)


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


# --- matching_block_scores against the full table --------------------------------


def _permutation_index(perms) -> np.ndarray:
    """Each row's place among the permutations of [0, k) in lexicographic
    order, the order of itertools.permutations(range(k)): its Lehmer code."""
    p = np.asarray(perms)
    k = p.shape[1]
    later = np.triu(np.ones((k, k), dtype=bool), 1)  # later[u, v]: v comes after u
    smaller = ((p[:, None, :] < p[:, :, None]) & later).sum(axis=2)
    return smaller @ np.array([math.factorial(k - 1 - u) for u in range(k)])


def _table_block_scores(costs, planted, revealed, keep):
    """The reference: strong, weak and the keep smallest translated totals
    read off the table of all k! row-order assignment totals, the base being
    its minimum and the weak score its minimum over the pinned columns."""
    costs = np.asarray(costs, dtype=float)
    revealed = np.asarray(revealed)
    n, k = costs.shape[:2]
    perms = np.array(list(itertools.permutations(range(k))))
    truth = _permutation_index(planted)
    keep = min(keep, perms.shape[0])
    strong, weak, smallest = np.empty(n), np.empty(n), np.empty((n, keep))
    step = max(1, 64 * 720 // perms.shape[0])
    for start in range(0, n, step):
        rows = slice(start, start + step)
        chunk = costs[rows]
        totals = chunk[:, 0, perms[:, 0]]
        for u in range(1, k):
            totals += chunk[:, u, perms[:, u]]
        base = totals.min(axis=1)
        strong[rows] = totals[np.arange(totals.shape[0]), truth[rows]] - base
        fits = np.ones(totals.shape, dtype=bool)
        for u in range(k):
            pin = revealed[rows, u, None]
            fits &= (perms[:, u] == pin) | (pin < 0)
        weak[rows] = np.where(fits, totals, np.inf).min(axis=1) - base
        totals -= base[:, None]
        if keep < perms.shape[0]:
            totals = np.partition(totals, keep - 1, axis=1)[:, :keep]
        smallest[rows] = totals
    return strong, weak, smallest


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
        return rng.integers(-2, 3, size=(n, k, k)) * 1.0
    if kind == "signed zeros":
        return rng.choice([0.0, -0.0, 1.0, -1.0], size=(n, k, k))
    if kind == "limit":
        costs = rng.uniform(-1, 1, size=(n, k, k)) * limit
        costs[rng.random((n, k, k)) < 0.2] = limit  # entries at the bound, and ties
        return costs * np.where(rng.random((n, k, k)) < 0.5, -1.0, 1.0)
    return rng.normal(size=(n, k, k))


@settings(max_examples=120, deadline=None)
@given(k=st.integers(1, 7), n=st.sampled_from([1, 63, 64, 65, 130]),
       pins=st.sampled_from(["none", "all", "random"]),
       kind=st.sampled_from(["normal", "ties", "signed zeros", "limit"]),
       keep=st.sampled_from(["zero", "one", "cap + 1", "above k!"]), seed=SEEDS)
def test_matching_block_scores_equal_the_full_table(k, n, pins, kind, keep, seed):
    # n crosses the chunk edges of the table (64 records at k = 6) and of the DP
    rng = np.random.default_rng(seed)
    costs = _cost_block(rng, n, k, kind)
    planted = _permutations(rng, n, k)
    revealed = {
        "none": np.full((n, k), -1),
        "all": planted,
        "random": np.where(rng.random((n, k)) < rng.random(), planted, -1),
    }[pins]
    keep = {"zero": 0, "one": 1, "cap + 1": 21, "above k!": math.factorial(k) + 3}[keep]
    strong, weak, smallest = matching_block_scores(costs, planted, revealed, keep)
    strong_ref, weak_ref, smallest_ref = _table_block_scores(costs, planted, revealed, keep)
    assert np.array_equal(strong, strong_ref)
    assert np.array_equal(weak, weak_ref)
    # the keep smallest come in no particular order
    assert smallest.shape == smallest_ref.shape
    assert np.array_equal(np.sort(smallest, axis=1), np.sort(smallest_ref, axis=1))


def test_matching_block_scores_keep_memory_flat():
    # 2000 records at k = 6: the table and the DP both run in chunks
    rng = np.random.default_rng(7)
    costs = rng.normal(size=(2000, 6, 6))
    planted = _permutations(rng, 2000, 6)
    revealed = np.where(rng.random((2000, 6)) < 0.3, planted, -1)
    matching_block_scores(costs[:5], planted[:5], revealed[:5], 21)  # caches outside the trace
    tracemalloc.start()
    try:
        matching_block_scores(costs, planted, revealed, 21)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_matching_block_scores_reject_bad_records():
    costs = np.zeros((3, 3, 3))
    planted = np.tile(np.arange(3), (3, 1))
    revealed = np.full((3, 3), -1)
    limit = sys.float_info.max / (4 * 3 * 5)

    def rejected(match, costs=costs, planted=planted, revealed=revealed, keep=2):
        with pytest.raises(ValueError, match=match):
            matching_block_scores(costs, planted, revealed, keep)

    for value in (np.nan, np.inf, -np.inf, np.nextafter(limit, np.inf)):
        bad = costs.copy()
        bad[2, 1, 1] = value
        rejected("record 2: cost entries must be finite", costs=bad)
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
    rejected("keep must be an integer", keep=2.5)
    rejected("keep must be >= 0", keep=-1)
    # a limit entry and an empty block are fine
    edge = costs.copy()
    edge[0, 0, 0] = limit
    assert matching_block_scores(edge, planted, revealed, 2)[0][0] == limit
    empty = matching_block_scores(np.zeros((0, 3, 3)), np.zeros((0, 3), int), np.zeros((0, 3), int), 2)
    assert [a.shape for a in empty] == [(0,), (0,), (0, 2)]
