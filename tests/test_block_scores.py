"""Properties of the four tasks' block-score functions over random blocks.

The weak (best-case) score never exceeds the true label's score, which never
exceeds the worst case over the weak label; so the threshold calibrated on
weak scores never exceeds the supervised one.
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

ALPHAS = st.floats(0.01, 0.99)
SEEDS = st.integers(0, 2**32 - 1)


def _at_most(a, b, rel_tol=0.0):
    a, b = np.asarray(a), np.asarray(b)
    with np.errstate(invalid="ignore"):  # inf - inf where both thresholds are infinite
        return bool(np.all((a <= b) | (a - b <= rel_tol * np.abs(b))))


def _assert_ordered(alpha, weak, strong, pessimistic=None, rel_tol=0.0):
    assert _at_most(weak, strong, rel_tol)
    if pessimistic is not None:
        assert _at_most(strong, pessimistic)
    thresholds = [conformal_threshold(s, alpha).value for s in (weak, strong)]
    assert _at_most(*thresholds, rel_tol)


def _permutations(rng, n, k):
    return rng.permuted(np.tile(np.arange(k), (n, 1)), axis=1)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 40), k=st.integers(2, 9), tied=st.booleans(), alpha=ALPHAS, seed=SEEDS)
def test_set_block_scores_are_ordered(n, k, tied, alpha, seed):
    rng = np.random.default_rng(seed)
    scores = rng.integers(0, 3, size=(n, k)) * 1.0 if tied else rng.normal(size=(n, k))
    y = rng.integers(0, k, size=n)
    member = rng.random((n, k)) < rng.random()
    member[np.arange(n), y] = True
    strong, weak, pessimistic = set_block_scores(scores, y, member)
    _assert_ordered(alpha, weak, strong, pessimistic)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 40), k=st.integers(2, 8), tied=st.booleans(), scale=st.sampled_from([1.0, 10.0]),
       c=st.sampled_from([0.0, 0.5, 2.0]), alpha=ALPHAS, seed=SEEDS)
def test_prefix_block_scores_are_ordered(n, k, tied, scale, c, alpha, seed):
    rng = np.random.default_rng(seed)
    rel = rng.integers(0, 3, size=(n, k)) * scale if tied else rng.normal(size=(n, k)) * scale
    order = _permutations(rng, n, k)
    lengths = rng.integers(0, k + 1, size=n)
    psi = PsiSpec.hinge() if c == 0 else PsiSpec.exp_weighted(c)
    strong, weak = prefix_block_scores(rel, order, lengths, psi)
    # The completion and the truth share the prefix-to-rest pair terms but sum
    # them in other positions, so under exp weights at large magnitudes the
    # weak score can round a few ulps above the strong one.
    _assert_ordered(alpha, weak, strong, rel_tol=1e-12)
    # a fully revealed ranking is its own completion
    full = prefix_block_scores(rel, order, np.full(n, k), psi)
    assert full[0].tobytes() == full[1].tobytes()


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 40), k=st.integers(2, 6), integer_costs=st.booleans(), alpha=ALPHAS,
       seed=SEEDS)
def test_matching_block_scores_are_ordered(n, k, integer_costs, alpha, seed):
    rng = np.random.default_rng(seed)
    costs = rng.integers(0, 5, size=(n, k, k)) * 1.0 if integer_costs else rng.normal(size=(n, k, k))
    planted = _permutations(rng, n, k)
    revealed = np.where(rng.random((n, k)) < rng.random(), planted, -1)
    strong, weak, smallest = matching_block_scores(costs, planted, revealed, keep=3)
    _assert_ordered(alpha, weak, strong)
    assert np.all(weak >= 0) and np.all(smallest.min(axis=1) == 0)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 40), alpha=ALPHAS, seed=SEEDS)
def test_interval_block_scores_are_ordered(n, alpha, seed):
    rng = np.random.default_rng(seed)
    y = rng.normal(scale=10.0, size=n)
    lo = y - rng.exponential(rng.random(), size=n)
    hi = y + rng.exponential(rng.random(), size=n)
    y_hat = y + rng.normal(scale=rng.random() * 3, size=n)
    strong, weak, pessimistic = interval_block_scores(y_hat, y, lo, hi)
    _assert_ordered(alpha, weak, strong, pessimistic)
