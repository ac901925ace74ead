import math
import sys
import tracemalloc
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weakconformal import (
    PsiSpec,
    RankingPrefix,
    RankingProblem,
    best_ranking,
    enumerate_until,
    listnet_train,
    m_best,
    partial_rank_score,
    predict_relevances,
    rank_score,
    rank_scores_batch,
)
from weakconformal.labels import _as_permutation
from weakconformal.mbest import _levelset_counts
from weakconformal import ranking
from weakconformal.ranking import (
    _softmax,
    _complete_prefixes,
    _ball_radius,
    _kendall_ball,
    _outside_bound,
    _pair_terms,
    _prune_margin,
    _sum_pairs,
    _worst_scores,
    levelset_counts_batch,
    listnet_loss_grad,
    prefix_block_scores,
    relevance_targets,
)

PSIS = [PsiSpec.hinge(), PsiSpec.exp_weighted(0.5), PsiSpec.exp_weighted(2.0)]


def _psi(psi, a, b):
    # psi(a, b): the pair table's term for relevance a placed above b
    return _pair_terms(np.array([[a, b]]), psi)[0, 0, 1]


def test_psi_hinge_values():
    psi = PsiSpec.hinge()
    assert _psi(psi, 3.0, 1.0) == 0.0  # correctly ordered pair costs nothing
    assert _psi(psi, 1.0, 3.0) == 2.0
    assert _psi(psi, 2.0, 2.0) == 0.0


def test_psi_exp_weighted_values():
    psi = PsiSpec.exp_weighted(1.0)
    assert _psi(psi, 1.0, 3.0) == 2.0 * np.exp(-1.0)
    assert _psi(psi, 3.0, 1.0) == 0.0


def test_psi_rejects_unknown_kind():
    with pytest.raises(ValueError):
        PsiSpec("quadratic", 0.0)
    for c in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="'c'"):
            PsiSpec.exp_weighted(c)


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


def _rank_score_loop(r, y, psi):
    # the module's one summation order: pair terms at positions i < j, added
    # left to right in row-major order
    table = _pair_terms(np.asarray(r, dtype=float)[None], psi)[0].tolist()
    total = 0.0
    for i in range(len(y)):
        for j in range(i + 1, len(y)):
            total += table[y[i]][y[j]]
    return total


def test_rank_scores_batch_matches_loop():
    # rank_score, RankingProblem.score and the rows of rank_scores_batch are
    # one arithmetic: equal to the bit, and to the sequential loop
    rng = np.random.default_rng(41)
    for psi in PSIS:
        for k, scale in ((5, 1.0), (7, 3.0), (9, 1e6)):
            rel = rng.normal(size=(30, k)) * scale
            scaled = PsiSpec(psi.kind, psi.c / scale)
            perms = np.array([rng.permutation(k) for _ in range(30)])
            batch = rank_scores_batch(rel, perms, scaled)
            for i in range(30):
                y = tuple(int(v) for v in perms[i])
                want = _rank_score_loop(rel[i], y, scaled)
                assert rank_score(rel[i], y, scaled) == want
                assert RankingProblem(rel[i], scaled).score(y) == want
                assert batch[i] == want


def test_best_ranking_descending_with_id_ties():
    assert best_ranking(np.array([1.0, 3.0, 3.0, 0.5])) == (1, 2, 0, 3)
    assert rank_score(
        np.array([1.0, 3.0, 3.0, 0.5]), (1, 2, 0, 3), PsiSpec.hinge()
    ) == 0.0


def test_complete_prefix_fills_descending():
    r = np.array([[0.5, 2.0, 1.0, 3.0]] * 2)
    order = np.array([[0, 1, 2, 3]] * 2)
    assert _complete_prefixes(r, order, [1, 0]).tolist() == [[0, 3, 1, 2], [3, 1, 2, 0]]


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
    with pytest.raises(ValueError, match="disagree on k"):
        partial_rank_score(rng.normal(size=3), RankingPrefix((0,), 4), psi)


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


# --- block prefix completion -------------------------------------------------------


def _complete_prefix(r, head):
    # the prefix, then the remaining items relevance-descending, ties by item id
    rest = sorted(set(range(r.size)) - set(head), key=lambda i: (-r[i], i))
    return head + tuple(rest)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 8),
    k=st.integers(2, 7),
    tied=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_complete_prefixes_equals_complete_prefix(n, k, tied, seed):
    # tied relevances (values in {0, 1, 2}, with -0.0 for 0) must break by item
    # id, as the per-record sort does; prefix lengths run over 0..k
    rng = np.random.default_rng(seed)
    rel = rng.integers(0, 3, size=(n, k)) * 1.0 if tied else rng.normal(size=(n, k))
    rel[:, 0] *= -1.0
    order = rng.permuted(np.tile(np.arange(k), (n, 1)), axis=1)
    lengths = rng.integers(0, k + 1, size=n)
    lengths[0] = int(rng.choice([0, k]))
    expected = [_complete_prefix(rel[i], tuple(order[i, : lengths[i]])) for i in range(n)]
    assert _complete_prefixes(rel, order, lengths).tolist() == [list(e) for e in expected]
    # the per-record partial score is the completion's score, to the bit
    psi = PsiSpec.exp_weighted(0.5)
    for i in range(n):
        prefix = RankingPrefix(tuple(order[i, : lengths[i]].tolist()), k)
        assert partial_rank_score(rel[i], prefix, psi) == rank_score(rel[i], expected[i], psi)


def test_complete_prefixes_ignores_entries_past_the_prefix():
    rel = np.array([[0.5, 0.1, 0.9, 0.3]])
    padded = np.array([[1, -1, -1, -1]])  # only item 1 revealed
    assert _complete_prefixes(rel, padded, [1]).tolist() == [[1, 2, 0, 3]]


# --- trainers against their per-record and two-exponential forms ----------------------


def _relevance_targets_reference(rankings, k):
    out = np.empty((len(rankings), k))
    for i, y in enumerate(rankings):
        for pos, item in enumerate(_as_permutation(y, k)):
            out[i, item] = k - 1 - pos
    return out


def _listnet_loss_grad_reference(weights, x, target_p):
    n = x.shape[0]
    scores = x @ weights.T
    shifted = scores - scores.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = float(-(target_p * logp).sum() / n)
    return loss, (_softmax(scores) - target_p).T @ x / n


def test_relevance_targets_scatter_equals_the_loop_and_validates():
    rng = np.random.default_rng(48)
    for k in (2, 5, 9):
        perms = [tuple(int(v) for v in rng.permutation(k)) for _ in range(30)]
        expected = _relevance_targets_reference(perms, k)
        assert relevance_targets(perms, k).tobytes() == expected.tobytes()
        assert relevance_targets(np.array(perms), k).tobytes() == expected.tobytes()
    for bad in ([(0, 0, 2)], [(0, 1)], [(0, 1, 3)], [(0, 1, 2), (1, 2)], [(0, 1, 2, 3)]):
        with pytest.raises(ValueError):
            relevance_targets(bad, 3)


def test_listnet_loss_grad_is_bit_equal_to_the_two_exponential_form():
    rng = np.random.default_rng(49)
    for scale in (0.1, 1.0, 40.0, 400.0):  # scores past 40 and past exp's range
        x = rng.normal(size=(50, 3))
        weights = rng.normal(size=(6, 3)) * scale
        perms = [tuple(rng.permutation(6)) for _ in range(50)]
        target = _softmax(relevance_targets(perms, 6))
        loss, grad = listnet_loss_grad(weights, x, target)
        loss_ref, grad_ref = _listnet_loss_grad_reference(weights, x, target)
        assert loss == loss_ref and grad.tobytes() == grad_ref.tobytes()


def test_relevance_targets_penalize_position():
    targets = relevance_targets([(2, 0, 1)], 3)
    # item 2 ranked first gets the largest target
    assert targets[0, 2] > targets[0, 0] > targets[0, 1]


def test_listnet_initial_loss_is_log_k():
    rng = np.random.default_rng(45)
    for k in (3, 5, 8):
        x = rng.normal(size=(40, 2))
        perms = [tuple(rng.permutation(k)) for _ in range(40)]
        weights = listnet_train(x, perms, epochs=0)
        assert weights.shape == (k, 2) and not weights.any()
        target = _softmax(relevance_targets(perms, k))
        assert listnet_loss_grad(weights, x, target)[0] == pytest.approx(math.log(k), abs=1e-12)


def test_listnet_loss_decreases():
    rng = np.random.default_rng(46)
    x = rng.normal(size=(60, 3))
    theta = rng.normal(size=(4, 3))
    scores = x @ theta.T
    perms = [tuple(np.argsort(-scores[i], kind="stable")) for i in range(60)]
    weights = listnet_train(x, perms)
    target = _softmax(relevance_targets(perms, 4))
    assert listnet_loss_grad(weights, x, target)[0] < math.log(4)
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


# --- level-set counts ---------------------------------------------------------


def _probe_thresholds(rng, scores):
    """Thresholds at an emitted score, between two distinct ones, below 0 and
    at +inf."""
    distinct = np.unique(scores)
    at = float(rng.choice(distinct))
    between = (
        float((distinct[-2] + distinct[-1]) / 2) if distinct.size > 1 else at + 0.25
    )
    return [at, between, -0.5, math.inf]


@settings(max_examples=120, deadline=None)
@given(
    k=st.integers(2, 7),
    tied=st.booleans(),
    psi=st.sampled_from(PSIS),
    magnitude=st.sampled_from([1.0, 1e6, 1e12]),
    cap=st.integers(1, 25),
    seed=st.integers(0, 2**32 - 1),
)
def test_kendall_ball_counts_equal_the_engine(k, tied, psi, magnitude, cap, seed):
    rng = np.random.default_rng(seed)
    n = 5
    rel = (rng.integers(0, 3, size=(n, k)) if tied else rng.normal(size=(n, k))) * magnitude
    psi = PsiSpec(psi.kind, psi.c / magnitude)  # the exp weights stay in range
    emitted = m_best(RankingProblem(rel[0], psi), cap + 2).scores
    thresholds = _probe_thresholds(rng, emitted)
    counts, flags = levelset_counts_batch(rel, psi, thresholds, cap)
    for j in range(n):
        want_counts, want_flags = _levelset_counts(RankingProblem(rel[j], psi), thresholds, cap)
        assert counts[j].tolist() == want_counts.tolist()
        assert flags[j].tolist() == want_flags.tolist()


def test_kendall_ball_counts_span_blocks_and_tight_caps():
    # many records counted at once; a cap of one flags every record with two
    # or more rankings at or under the threshold
    rng = np.random.default_rng(4)
    rel = rng.normal(size=(300, 4))
    psi = PsiSpec.hinge()
    counts, flags = levelset_counts_batch(rel, psi, [0.4, math.inf], 1)
    for j in range(rel.shape[0]):
        scores = np.array([rank_score(rel[j], y, psi) for y in permutations(range(4))])
        exact = [(scores <= 0.4).sum(), scores.size]
        assert counts[j].tolist() == [min(e, 1) for e in exact]
        assert flags[j].tolist() == [e > 1 for e in exact]


def test_kendall_ball_is_bounded_by_the_k_factorial_rankings():
    # a cap past k! sized the cell arrays by cap + 1: about 100 MB here
    rel = np.random.default_rng(5).normal(size=(10, 4))
    psi, thresholds = PsiSpec.hinge(), [0.4, 2.0, math.inf]
    want_counts, want_flags = levelset_counts_batch(rel, psi, thresholds, 24)
    tracemalloc.start()
    try:
        counts, flags = levelset_counts_batch(rel, psi, thresholds, 10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.tolist() == want_counts.tolist()
    assert flags.tolist() == want_flags.tolist()
    assert peak < 2**20


def test_a_whole_space_ball_is_bounded_by_its_blocks():
    # a cap past 7! makes the ball every ranking; cell arrays sized by 128
    # records x 5040 rankings at once would take about 70 MB here
    rel = np.random.default_rng(6).normal(size=(300, 7))
    psi, thresholds = PsiSpec.hinge(), [1e3, math.inf]  # above every worst score
    _kendall_ball(7, 5040)
    tracemalloc.start()
    try:
        counts, flags = levelset_counts_batch(rel, psi, thresholds, 10**4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.tolist() == [[5040, 5040]] * 300
    assert not flags.any()
    assert peak < 4 * 2**20


# --- the Kendall ball ---------------------------------------------------------


def _inversions(p):
    return sum(a > b for i, a in enumerate(p) for b in p[i + 1 :])


def test_kendall_ball_is_the_smallest_inversion_ball_holding_m():
    for k in range(2, 8):
        by_radius = {}
        for p in permutations(range(k)):
            by_radius.setdefault(_inversions(p), []).append(p)
        for m in sorted({1, 2, 3, 7, 8, 27, 28, 76, 77, 174, 175, 200, math.factorial(k)}):
            if m > math.factorial(k):
                continue
            ball = _kendall_ball(k, m)
            r = max(_inversions(tuple(q)) for q in ball.tolist())
            want = sorted(p for d in range(r + 1) for p in by_radius[d])
            assert sorted(map(tuple, ball.tolist())) == want
            assert len(ball) >= m and (r == 0 or len(want) - len(by_radius[r]) < m)
            assert not ball.flags.writeable
    assert [len(_kendall_ball(7, m)) for m in (1, 7, 27, 76, 174)] == [1, 7, 27, 76, 174]
    assert [len(_kendall_ball(7, m)) for m in (2, 8, 28, 77)] == [7, 27, 76, 174]


def _ball_probes(rel_row, psi, m):
    """Thresholds at the m-th smallest ball score of the row and at the bound
    on the rankings outside the ball, one ulp and one rounding margin either
    side of each, at +inf and below 0."""
    k = rel_row.size
    pairs = _pair_terms(rel_row[None], psi)
    margin = float(_prune_margin(k, _worst_scores(pairs, rel_row[None]))[0])
    ball = _kendall_ball(k, m)
    root = np.argsort(-rel_row, kind="stable")
    scores = np.sort(_sum_pairs(pairs, np.zeros(len(ball), dtype=np.intp), root[ball]))
    s = float(scores[m - 1])
    probes = [
        s, math.nextafter(s, -math.inf), math.nextafter(s, math.inf),
        s - margin, s + margin, math.nextafter(s + margin, -math.inf),
        math.nextafter(s + margin, math.inf), math.inf, -0.5,
    ]
    radius = _ball_radius(k, len(ball))
    bound = float(_outside_bound(pairs, root[None], np.zeros(1, dtype=np.intp), radius)[0])
    if bound < math.inf:  # the whole space has no ranking outside the ball
        probes += [
            bound, math.nextafter(bound, -math.inf), math.nextafter(bound, math.inf),
            bound - margin, bound + margin,
        ]
    return probes


@settings(max_examples=150, deadline=None)
@given(
    k=st.integers(2, 8),
    ties=st.sampled_from(["none", "some", "all"]),
    psi=st.sampled_from(PSIS),
    magnitude=st.sampled_from([1.0, 1e6, 1e12]),
    cap_pick=st.integers(0, 10**6),
    seed=st.integers(0, 2**32 - 1),
)
def test_ball_path_equals_the_engine(k, ties, psi, magnitude, cap_pick, seed):
    rng = np.random.default_rng(seed)
    n = 6
    if ties == "none":
        rel = rng.normal(size=(n, k))
    else:
        rel = rng.integers(0, 3, size=(n, k)).astype(float)
        if ties == "all":
            rel[::2] = rel[::2, :1]  # every other row is one tied value
    rel = rel * magnitude
    rel[1:3] = rel[0] + rng.normal(size=(2, k)) * 1e-9 * magnitude  # near copies of row 0
    psi = PsiSpec(psi.kind, psi.c / magnitude)  # the exp weights stay in range
    # caps from 1 through past k!, within what the per-record engine enumerates quickly
    cap = 1 + cap_pick % (math.factorial(k) + 2 if k <= 5 else 60)
    m = min(cap + 1, math.factorial(k))
    probes = _ball_probes(rel[0], psi, m)
    for thresholds in [[t] for t in probes] + [probes]:
        counts, flags = levelset_counts_batch(rel, psi, thresholds, cap)
        for j in range(n):
            want = _levelset_counts(RankingProblem(rel[j], psi), thresholds, cap)
            assert counts[j].tolist() == want[0].tolist(), (j, thresholds)
            assert flags[j].tolist() == want[1].tolist(), (j, thresholds)


def test_records_that_need_larger_balls_equal_the_engine(monkeypatch):
    # thresholds past the first ball's bound: records move through two or
    # more larger balls before the bound decides them, with no search
    rng = np.random.default_rng(7)
    rel = rng.normal(size=(40, 8))
    psi, cap = PsiSpec.hinge(), 200
    pairs, root, rows = _pair_terms(rel, psi), np.argsort(-rel, axis=1, kind="stable"), np.arange(40)
    first = _ball_radius(8, cap + 1)
    bound = [float(np.median(_outside_bound(pairs, root, rows, first + d))) for d in (0, 2)]
    thresholds = [bound[1], bound[0] / 2]
    sizes, searched = [], []
    ball_counts, engine = ranking._ball_counts, ranking._levelset_counts

    def spy(pairs, root, ball, *args):
        sizes.append(len(ball))
        return ball_counts(pairs, root, ball, *args)

    monkeypatch.setattr(ranking, "_ball_counts", spy)
    monkeypatch.setattr(ranking, "_levelset_counts", lambda *a: searched.append(a) or engine(*a))
    counts, flags = levelset_counts_batch(rel, psi, thresholds, cap)
    assert len(sizes) >= 3 and not searched
    for j in range(rel.shape[0]):
        want = _levelset_counts(RankingProblem(rel[j], psi), thresholds, cap)
        assert counts[j].tolist() == want[0].tolist()
        assert flags[j].tolist() == want[1].tolist()


def test_the_engine_sees_few_records_of_a_gate_trial(monkeypatch):
    # the rank trial of the release gate: the Kendall balls decide nearly
    # every test record, and only the rest reach the per-record search
    from weakconformal.harness import ExperimentConfig, run

    seen = []
    engine = ranking._levelset_counts

    def spy(problem, *args):
        seen.append(problem)
        return engine(problem, *args)

    monkeypatch.setattr(ranking, "_levelset_counts", spy)
    counted = []
    batch = ranking.levelset_counts_batch

    def counting(rel, *args):
        counted.append(len(rel))
        return batch(rel, *args)

    monkeypatch.setattr("weakconformal.harness.levelset_counts_batch", counting)
    for seed in (0, 1):
        run(ExperimentConfig(task="rank", k=7, alpha=0.1, n=4000, split=(0.25, 0.25, 0.5),
                             n_trials=1, seed=seed, methods=("wsc", "fsc")))
    assert counted == [2000, 2000]
    assert len(seen) <= 0.01 * sum(counted)


def test_levelset_counts_batch_rejects_bad_input():
    with pytest.raises(ValueError):
        levelset_counts_batch(np.zeros(4), PsiSpec.hinge(), [1.0], 3)
    with pytest.raises(ValueError):
        levelset_counts_batch(np.array([[0.0, math.nan]]), PsiSpec.hinge(), [1.0], 3)
    with pytest.raises(ValueError):
        levelset_counts_batch(np.zeros((2, 3)), PsiSpec.hinge(), [1.0], 0)
    for cap in (2.5, True):  # 2.5 returned sizes of 2.5
        with pytest.raises(ValueError, match="integer"):
            levelset_counts_batch(np.zeros((2, 3)), PsiSpec.hinge(), [1.0], cap)


@pytest.mark.filterwarnings("error")
def test_block_paths_reject_a_score_that_is_not_finite():
    # exp(-2 * -400) overflows: the worst score of row 1 is not finite
    rel = np.array([[0.0, 1.0, 2.0], [-400.0, 1.0, 2.0]])
    psi = PsiSpec.exp_weighted(2.0)
    with pytest.raises(ValueError, match="row 1"):
        levelset_counts_batch(rel, psi, [1.0], 5)
    with pytest.raises(ValueError, match="row 1"):
        prefix_block_scores(rel, np.array([[0, 1, 2], [0, 1, 2]]), [0, 0], psi)
    with pytest.raises(ValueError, match="not finite"):
        RankingProblem(rel[1], psi)


def test_a_ranking_lies_in_the_level_set_at_its_own_score():
    # the engine once emitted this ranking at 17.024261327686155, the sum of
    # swap deltas, one ulp above its score 17.02426132768615
    r = [
        -1.2654214710460525, -0.6232744625373522, 0.0413259793472436,
        -2.3250307746388343, -0.21879166393254573, -1.2459109472530652,
    ]
    p = RankingProblem(r, PsiSpec.exp_weighted(1.5))
    y = (4, 5, 2, 0, 1, 3)
    assert y in enumerate_until(p, p.score(y)).configs


# --- runner-up sums over the discordant pairs ------------------------------------


def _relevances(rng, k, kind):
    if kind == "ties":
        return rng.integers(0, 4, size=k).astype(float)
    if kind == "normal":
        return rng.normal(size=k)
    if kind == "underflow":  # with c = 300, exp(-c r) is subnormal or 0 for the top items
        return rng.choice([0.0, 1.0, 2.4, 2.5, 3.0], size=k) + rng.uniform(0, 0.1, size=k)
    # near the limit: the worst score, every gap 3 * scale, reaches 0.9 of the largest float
    scale = 0.9 * sys.float_info.max / (3 * (k * (k - 1) // 2))
    return rng.integers(0, 4, size=k) * scale


@settings(max_examples=150, deadline=None)
@given(
    k=st.integers(2, 8),
    kind=st.sampled_from(["ties", "normal", "underflow", "near_limit"]),
    c=st.sampled_from([None, 0.5, 2.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_runner_up_sums_over_discordant_pairs_equal_the_full_sum(k, kind, c, seed):
    if kind == "near_limit":
        c = None  # an exp weight of a huge relevance overflows
    if kind == "underflow":
        c = 300.0
    rng = np.random.default_rng(seed)
    psi = PsiSpec.hinge() if c is None else PsiSpec.exp_weighted(c)
    problem = RankingProblem(_relevances(rng, k, kind), psi)
    table = problem._table

    def positive_pairs(y):
        return tuple((i, j) for i in range(k) for j in range(i + 1, k) if table[y[i]][y[j]] > 0.0)

    res = m_best(problem, min(math.factorial(k), 300))
    for y, s in zip(res.configs, res.scores):
        assert s == problem.score(y)
    cell = problem.root()
    for _ in range(15):
        assert cell.discordant == positive_pairs(cell.best)
        if cell.second is None:
            break
        assert cell.second_discordant == positive_pairs(cell.second)
        assert repr(cell.second_score) == repr(problem._sum(cell.second))
        cell = problem.split(cell)[int(rng.integers(2))]
    # from any ranking, whose cheapest swaps may undo a discordant pair
    y = tuple(rng.permutation(k).tolist())
    deltas = [problem._swap[a][b] for a, b in zip(y, y[1:])]
    second, score, _, pairs = problem._second_best(y, deltas, positive_pairs(y))
    assert pairs == positive_pairs(second)
    assert repr(score) == repr(problem._sum(second))
