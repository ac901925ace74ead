"""Properties of the four tasks' block-score functions over random blocks.

The weak (best-case) score never exceeds the true label's score, which never
exceeds the worst case over the weak label; so the threshold calibrated on
weak scores never exceeds the supervised one. Both thresholds shrink as
alpha grows, so the prediction sets nest.
"""
import numpy as np
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
