import math
from itertools import permutations

import numpy as np
import pytest

from weakconformal import (
    PsiSpec,
    RankingPrefix,
    RankingProblem,
    best_ranking,
    complete_prefix,
    listnet_train,
    m_best,
    partial_rank_score,
    predict_relevances,
    rank_score,
    rank_scores_batch,
    rescale_relevances,
)
from weakconformal.ranking import listnet_loss_grad, relevance_targets, _softmax


def test_psi_hinge_values():
    psi = PsiSpec.hinge()
    assert psi(3.0, 1.0) == 0.0  # correctly ordered pair costs nothing
    assert psi(1.0, 3.0) == 2.0
    assert psi(2.0, 2.0) == 0.0


def test_psi_exp_weighted_values():
    psi = PsiSpec.exp_weighted(1.0)
    assert psi(1.0, 3.0) == pytest.approx(2.0 * math.exp(-1.0))
    assert psi(3.0, 1.0) == 0.0


def test_psi_rejects_unknown_kind():
    with pytest.raises(ValueError):
        PsiSpec("quadratic", 0.0)
    with pytest.raises(ValueError):
        PsiSpec("exp_weighted", -1.0)


def test_rank_score_hand_example():
    # r = (3,2,1), worst ordering (2,1,0): pairs contribute 1+2+1
    r = np.array([3.0, 2.0, 1.0])
    psi = PsiSpec.hinge()
    assert rank_score(r, (0, 1, 2), psi) == 0.0
    assert rank_score(r, (2, 1, 0), psi) == pytest.approx(4.0)
    assert rank_score(r, (1, 0, 2), psi) == pytest.approx(1.0)


def test_rank_score_validates_permutation():
    r = np.array([1.0, 2.0])
    with pytest.raises(ValueError):
        rank_score(r, (0, 0), PsiSpec.hinge())
    with pytest.raises(ValueError):
        rank_score(r, (0,), PsiSpec.hinge())


def test_relevances_must_be_a_vector():
    # a matrix is rejected, not flattened into a longer ranking
    with pytest.raises(ValueError):
        RankingProblem(np.array([[1.0, 2.0], [3.0, 4.0]]), PsiSpec.hinge())


def test_rank_scores_batch_matches_loop():
    rng = np.random.default_rng(41)
    rel = rng.normal(size=(30, 5))
    perms = np.array([rng.permutation(5) for _ in range(30)])
    for psi in (PsiSpec.hinge(), PsiSpec.exp_weighted(0.8)):
        batch = rank_scores_batch(rel, perms, psi)
        direct = [rank_score(rel[i], tuple(perms[i]), psi) for i in range(30)]
        np.testing.assert_allclose(batch, direct, atol=1e-12)


def test_best_ranking_descending_with_id_ties():
    assert best_ranking(np.array([1.0, 3.0, 3.0, 0.5])) == (1, 2, 0, 3)
    assert rank_score(
        np.array([1.0, 3.0, 3.0, 0.5]), (1, 2, 0, 3), PsiSpec.hinge()
    ) == 0.0


def test_complete_prefix_fills_descending():
    r = np.array([0.5, 2.0, 1.0, 3.0])
    assert complete_prefix(r, RankingPrefix((0,), 4)) == (0, 3, 1, 2)
    assert complete_prefix(r, RankingPrefix((), 4)) == (3, 1, 2, 0)


def test_partial_rank_score_vs_exhaustive():
    rng = np.random.default_rng(42)
    psi = PsiSpec.hinge()
    for _ in range(40):
        r = rng.normal(size=4)
        m = int(rng.integers(1, 4))
        head = tuple(int(v) for v in rng.choice(4, size=m, replace=False))
        prefix = RankingPrefix(head, 4)
        got = partial_rank_score(r, prefix, psi)
        want = min(
            rank_score(r, p, psi)
            for p in permutations(range(4))
            if p[:m] == head
        )
        assert got == pytest.approx(want, abs=1e-9)


def test_second_best_is_adjacent_transposition_optimum():
    rng = np.random.default_rng(43)
    for psi in (PsiSpec.hinge(), PsiSpec.exp_weighted(0.5)):
        for _ in range(30):
            r = rng.normal(size=4)
            res = m_best(RankingProblem(r, psi), 2)
            totals = sorted(rank_score(r, p, psi) for p in permutations(range(4)))
            np.testing.assert_allclose(res.scores, totals[:2], atol=1e-9)


def test_engine_full_space_both_psis():
    rng = np.random.default_rng(44)
    for psi in (PsiSpec.hinge(), PsiSpec.exp_weighted(1.2)):
        r = rng.normal(size=4)
        res = m_best(RankingProblem(r, psi), 24)
        exact = sorted(rank_score(r, p, psi) for p in permutations(range(4)))
        np.testing.assert_allclose(res.scores, exact, atol=1e-9)
        assert len(set(res.configs)) == 24


def test_rescale_relevances():
    out = rescale_relevances([2.0, 4.0, 8.0])
    assert out.min() == 0.0
    assert out.max() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        rescale_relevances([3.0, 3.0])


def test_relevance_targets_penalize_position():
    targets = relevance_targets([(2, 0, 1)], 3)
    # item 2 ranked first gets the largest target
    assert targets[0, 2] > targets[0, 0] > targets[0, 1]


def test_listnet_initial_loss_is_log_k():
    rng = np.random.default_rng(45)
    for k in (3, 5, 8):
        x = rng.normal(size=(40, 2))
        perms = [tuple(rng.permutation(k)) for _ in range(40)]
        _, losses = listnet_train(x, perms, epochs=1)
        assert losses[0] == pytest.approx(math.log(k), abs=1e-12)


def test_listnet_loss_decreases():
    rng = np.random.default_rng(46)
    x = rng.normal(size=(60, 3))
    theta = rng.normal(size=(4, 3))
    scores = x @ theta.T
    perms = [tuple(np.argsort(-scores[i], kind="stable")) for i in range(60)]
    weights, losses = listnet_train(x, perms)
    assert len(losses) == 201
    assert losses[-1] < losses[0]
    assert weights.shape == (4, 3)


def test_listnet_gradient_matches_finite_differences():
    rng = np.random.default_rng(47)
    x = rng.normal(size=(12, 2))
    perms = [tuple(rng.permutation(3)) for _ in range(12)]
    target = _softmax(relevance_targets(perms, 3))
    weights = rng.normal(size=(3, 2)) * 0.3
    _, grad = listnet_loss_grad(weights, x, target)
    eps = 1e-6
    for i in range(3):
        for j in range(2):
            up, down = weights.copy(), weights.copy()
            up[i, j] += eps
            down[i, j] -= eps
            num = (
                listnet_loss_grad(up, x, target)[0]
                - listnet_loss_grad(down, x, target)[0]
            ) / (2 * eps)
            assert grad[i, j] == pytest.approx(num, rel=1e-5, abs=1e-8)


def test_predict_relevances_shape():
    weights = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    x = np.array([[2.0, 3.0]])
    np.testing.assert_allclose(predict_relevances(weights, x), [[2.0, 3.0, 5.0]])
