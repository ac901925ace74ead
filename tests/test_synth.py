import contextlib
import hashlib
import io

import numpy as np
import pytest

from weakconformal.cli import main
from weakconformal.labels import (
    ExplicitSet,
    Interval,
    PartialMatching,
    RankingPrefix,
    read_jsonl,
    weak_contains,
    write_jsonl,
)
from weakconformal.matching import hungarian
from weakconformal.synth import (
    MatchingData,
    MulticlassConfig,
    RankingSimConfig,
    cumulative_probability_scores,
    fit_ols,
    gen_matching,
    gen_multiclass,
    gen_ranking,
    gen_regression,
    logistic_loss_grad,
    multinomial_loss_grad,
    predict_class_probs,
    predict_label_marginals,
    _rng,
    _sigmoid,
    three_way_split,
    to_records,
    train_multinomial_logistic,
    train_per_label_logistic,
)


# --- splits -------------------------------------------------------------------


def test_three_way_split_sizes():
    tr, cal, te = three_way_split(100, (0.3, 0.2, 0.5))
    assert (tr, cal, te) == (slice(0, 30), slice(30, 50), slice(50, 100))


def test_three_way_split_covers_everything():
    for n in (1, 7, 23, 1000):
        tr, cal, te = three_way_split(n, (0.25, 0.25, 0.5))
        idx = np.arange(n)
        joined = np.concatenate([idx[tr], idx[cal], idx[te]])
        assert np.array_equal(joined, idx)


def test_three_way_split_validates():
    with pytest.raises(ValueError):
        three_way_split(10, (0.5, 0.5))
    with pytest.raises(ValueError):
        three_way_split(10, (0.5, 0.6, -0.1))
    with pytest.raises(ValueError):
        three_way_split(10, (0.5, 0.4, 0.2))


# --- generator determinism and containment ------------------------------------


def test_multiclass_deterministic():
    cfg = MulticlassConfig(n=200, k=5, d=3, sigma=0.7, seed=11)
    a = gen_multiclass(cfg)
    b = gen_multiclass(cfg)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.oracle_scores, b.oracle_scores)
    assert a.weak == b.weak
    c = gen_multiclass(MulticlassConfig(n=200, k=5, d=3, sigma=0.7, seed=12))
    assert not np.array_equal(a.x, c.x)


def test_multiclass_truth_in_weak():
    data = gen_multiclass(MulticlassConfig(n=500, k=8, seed=3))
    for yi, w in zip(data.y, data.weak):
        assert weak_contains(w, int(yi))


def test_multiclass_min_weak_size_floor():
    data = gen_multiclass(MulticlassConfig(n=500, k=8, seed=3, min_weak_size=3))
    sizes = [len(w.labels) for w in data.weak]
    assert min(sizes) >= 3
    loose = gen_multiclass(MulticlassConfig(n=500, k=8, seed=3, min_weak_size=1))
    assert min(len(w.labels) for w in loose.weak) == 1


def test_ranking_prefix_of_truth():
    data = gen_ranking(RankingSimConfig(n=300, k=6, seed=5, prefix_rate=1.0))
    for ranking, w in zip(data.y, data.weak):
        assert sorted(ranking) == list(range(6))
        assert 1 <= len(w.items) <= 6
        assert ranking[: len(w.items)] == w.items
        assert weak_contains(w, ranking)


def test_ranking_deterministic():
    cfg = RankingSimConfig(n=100, k=5, seed=9)
    a, b = gen_ranking(cfg), gen_ranking(cfg)
    assert np.array_equal(a.x, b.x)
    assert a.y == b.y
    assert a.weak == b.weak


def test_matching_truth_in_weak_and_deterministic():
    a = gen_matching(n=150, k=5, noise=0.5, seed=21)
    b = gen_matching(n=150, k=5, noise=0.5, seed=21)
    assert np.array_equal(a.costs, b.costs)
    assert a.y == b.y and a.weak == b.weak
    for perm, w in zip(a.y, a.weak):
        assert sorted(perm) == list(range(5))
        assert weak_contains(w, perm)


def test_matching_noiseless_planted_is_minimizer():
    data = gen_matching(n=40, k=5, noise=0.0, seed=2)
    for i in range(40):
        perm, cost = hungarian(data.costs[i])
        assert tuple(perm) == data.y[i]
        assert cost == pytest.approx(-5.0)


def test_matching_validates():
    with pytest.raises(ValueError):
        gen_matching(n=0, k=4, noise=0.1)
    with pytest.raises(ValueError):
        gen_matching(n=5, k=1, noise=0.1)
    with pytest.raises(ValueError):
        gen_matching(n=5, k=4, noise=-1.0)


def test_regression_truth_in_weak_and_width_floor():
    data = gen_regression(n=400, d=3, mu=0.05, seed=7)
    for yi, w in zip(data.y, data.weak):
        assert weak_contains(w, float(yi))
        assert w.length > 0
    floored = gen_regression(n=400, d=3, mu=0.2, seed=7, min_half_width=0.15)
    assert min(w.length for w in floored.weak) >= 0.3
    a = gen_regression(n=50, d=2, mu=0.1, seed=4)
    b = gen_regression(n=50, d=2, mu=0.1, seed=4)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    assert a.weak == b.weak


def test_to_records_shapes():
    mc = gen_multiclass(MulticlassConfig(n=20, k=4, d=3, seed=1))
    recs = to_records(mc)
    assert len(recs) == 20
    assert recs[0].x.shape == (3,)
    assert recs[5].weak == mc.weak[5]  # built on demand, so equal but not the same object
    assert recs[5].y == int(mc.y[5])

    md = gen_matching(n=10, k=4, noise=0.3, seed=1)
    mrecs = to_records(md)
    assert mrecs[0].x.shape == (16,)
    assert np.array_equal(mrecs[3].x.reshape(4, 4), md.costs[3])


# --- array blocks and the per-record boundary ----------------------------------

# the weak and y views of small datasets, recorded from the generators that
# built one label object per record
GOLDEN_VIEWS = {
    "classify": (
        [ExplicitSet((1, 2)), ExplicitSet((0, 1)), ExplicitSet((0, 2, 3, 4)), ExplicitSet((1, 2))],
        [1, 1, 3, 2],
    ),
    "rank": (
        [RankingPrefix((0, 3, 4), 5), RankingPrefix((2,), 5), RankingPrefix((1, 0), 5),
         RankingPrefix((4,), 5)],
        [(0, 3, 4, 2, 1), (2, 4, 3, 0, 1), (1, 0, 4, 2, 3), (4, 3, 0, 1, 2)],
    ),
    "match": (
        [PartialMatching(((0, 3), (2, 1)), 4), PartialMatching(((0, 3),), 4),
         PartialMatching(((3, 2),), 4), PartialMatching(((3, 3),), 4)],
        [(3, 2, 1, 0), (3, 1, 0, 2), (3, 1, 0, 2), (1, 0, 2, 3)],
    ),
    "regress": (
        [Interval(1.3598583524765004, 1.5254265732674988),
         Interval(-6.412131932181973, -6.201459729756694),
         Interval(0.7611729196754772, 0.9429299936134418),
         Interval(-4.996562422554059, -4.828218805348022)],
        [1.4426424628719996, -6.3067958309693335, 0.8520514566444595, -4.9123906139510405],
    ),
}


def _small(task):
    return {
        "classify": lambda: gen_multiclass(MulticlassConfig(n=4, k=5, seed=3, min_weak_size=2)),
        "rank": lambda: gen_ranking(RankingSimConfig(n=4, k=5, seed=3, prefix_rate=1.0)),
        "match": lambda: gen_matching(4, 4, 0.5, seed=3),
        "regress": lambda: gen_regression(4, 2, 0.1, seed=3, min_half_width=0.05),
    }[task]()


@pytest.mark.parametrize("task", sorted(GOLDEN_VIEWS))
def test_views_build_the_recorded_objects(task):
    data = _small(task)
    weak, y = GOLDEN_VIEWS[task]
    assert data.weak == weak and list(data.y) == y
    assert data.weak[1:3] == weak[1:3] and data.weak[-1] == weak[-1]
    with pytest.raises(IndexError):
        data.weak[4]


# sha256 of `weakconformal gen --task T --n 50 --seed S`, recorded from the
# generators that built one label object per record
GEN_DIGESTS = {
    ("classify", 0): "32b0904f3513f9fca8994932079ef1dfa644af463cc6f3b7d2a1241370877c9c",
    ("classify", 1): "a0ac81aa29bec43507fc91027f8d90d69deb1dcebfb196c960dfc27d32ab69ab",
    ("classify", 2): "3b8fef2a35175330b7a351e25342b898a38a32a9fd8759a60051c018edb49249",
    ("rank", 0): "210ef5c6db5050675526f8e6b1ee66256b8eb0fcbed0d3dfd93066e85ab9c219",
    ("rank", 1): "20b249564fa0bb2ac226859f39e856ac9fb2ed4fe87bbe46f7b671f3087e6701",
    ("rank", 2): "df7451897ccae616869d3abd1118ceea840f53c035dbe2908bc729bd5e6966d4",
    ("match", 0): "9defebdc99a0cbb9d111d21d1c4ef94500163ef2bd0a0f3fc1de689b1a1f6996",
    ("match", 1): "c34e8bb6f67d446a9e5459237155d9575fa51dc0c8d5c78975d7abf5e1d18e02",
    ("match", 2): "7ff35c266240725ef485cce3ced095a8db16789ea26f52df23241ab4d1f75275",
    ("regress", 0): "1cc782f22089c120730fee6c62e547225e75d010a48f337cc8218119c837d5e8",
    ("regress", 1): "661389d21b32b8183b696dcc593e18a19dbd8b5e7e0fe8aa2d81151445e6cea8",
    ("regress", 2): "8620864a1129244b8b62f4bcc86157c043a85ca9245aa38f23c0ddd9a81c2301",
}


def _gen(path, *argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["gen", *argv, "--out", str(path)]) == 0
    return out.getvalue()


@pytest.mark.parametrize("task,seed", sorted(GEN_DIGESTS))
def test_gen_writes_the_recorded_bytes(tmp_path, task, seed):
    path = tmp_path / "data.jsonl"
    _gen(path, "--task", task, "--n", "50", "--seed", str(seed))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GEN_DIGESTS[task, seed]


def test_gen_defaults_to_1000_records(tmp_path):
    path = tmp_path / "data.jsonl"
    assert '"n": 1000' in _gen(path, "--task", "match")
    assert len(path.read_text().splitlines()) == 1000


@pytest.mark.parametrize("task", sorted(GOLDEN_VIEWS))
def test_jsonl_records_jsonl_round_trip_is_exact(tmp_path, task):
    data = {
        "classify": lambda: gen_multiclass(MulticlassConfig(n=60, k=6, seed=8)),
        "rank": lambda: gen_ranking(RankingSimConfig(n=60, k=5, seed=8, prefix_rate=2.0)),
        "match": lambda: gen_matching(60, 5, 0.4, seed=8),
        "regress": lambda: gen_regression(60, 3, 0.1, seed=8),
    }[task]()
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    records = to_records(data)
    write_jsonl(str(first), records)
    back = list(read_jsonl(str(first)))
    write_jsonl(str(second), back)
    assert first.read_bytes() == second.read_bytes()
    assert [r.weak for r in back] == list(data.weak)
    assert all(np.array_equal(a.x, b.x) for a, b in zip(back, records))


def _gen_matching_reference(n, k, noise, seed):
    """gen_matching as one label object per record: (costs, y, weak)."""
    rng_p = _rng(seed, 0)
    planted = np.array([rng_p.permutation(k) for _ in range(n)])
    costs = noise * _rng(seed, 2).standard_normal((n, k, k))
    for i in range(n):
        costs[i, np.arange(k), planted[i]] -= 1.0
    rng_c = _rng(seed, 4)
    lengths = np.minimum(1 + rng_c.poisson(0.5, size=n), k)
    weak = []
    for i in range(n):
        revealed = rng_c.choice(k, size=int(lengths[i]), replace=False)
        weak.append(PartialMatching(tuple((int(u), int(planted[i, u])) for u in revealed), k))
    return costs, [tuple(int(v) for v in row) for row in planted], weak


@pytest.mark.parametrize("n,k,noise,seed", [(300, 6, 1.0, 0), (200, 4, 0.0, 3), (50, 9, 0.3, 7),
                                            (1, 2, 0.5, 11)])
def test_gen_matching_blocks_equal_the_per_record_generator(n, k, noise, seed):
    costs, y, weak = _gen_matching_reference(n, k, noise, seed)
    data = gen_matching(n, k, noise, seed)
    assert np.array_equal(data.costs, costs)
    assert list(data.y) == y and list(data.weak) == weak
    pinned = data.revealed >= 0
    assert np.array_equal(data.revealed[pinned], data.planted[pinned])


# --- trainers -------------------------------------------------------------------


def _central_diff(fn, weights, eps=1e-6):
    grad = np.zeros_like(weights)
    it = np.nditer(weights, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        wp, wm = weights.copy(), weights.copy()
        wp[idx] += eps
        wm[idx] -= eps
        grad[idx] = (fn(wp) - fn(wm)) / (2 * eps)
    return grad


def _sigmoid_reference(z):
    """The masked two-branch sigmoid."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_is_bit_equal_to_the_masked_form():
    rng = np.random.default_rng(5)
    edges = [0.0, -0.0, 40.0, -40.0, 41.5, -41.5, 709.0, -709.0, 745.5, -745.5, 1e300, -1e300]
    for z in (rng.normal(scale=3.0, size=(50, 7)), rng.normal(scale=60.0, size=(50, 7)),
              np.array(edges).reshape(3, 4)):
        assert _sigmoid(z).tobytes() == _sigmoid_reference(z).tobytes()


def test_logistic_gradient_matches_finite_differences():
    rng = np.random.default_rng(31)
    xb = rng.standard_normal((12, 4))
    targets = (rng.uniform(size=(12, 3)) < 0.5).astype(float)
    weights = rng.standard_normal((3, 4))
    _, grad = logistic_loss_grad(weights, xb, targets)
    num = _central_diff(lambda w: logistic_loss_grad(w, xb, targets)[0], weights)
    assert np.allclose(grad, num, atol=1e-6)


def test_multinomial_gradient_matches_finite_differences():
    rng = np.random.default_rng(32)
    xb = rng.standard_normal((15, 4))
    y = rng.integers(0, 3, size=15)
    weights = rng.standard_normal((3, 4))
    _, grad = multinomial_loss_grad(weights, xb, y)
    num = _central_diff(lambda w: multinomial_loss_grad(w, xb, y)[0], weights)
    assert np.allclose(grad, num, atol=1e-6)


def test_per_label_trainer_descends():
    data = gen_multiclass(MulticlassConfig(n=300, k=4, d=2, seed=13))
    ind = np.zeros((300, 4))
    for i, w in enumerate(data.weak):
        ind[i, list(w.labels)] = 1.0
    weights, losses = train_per_label_logistic(data.x, ind, epochs=50)
    assert len(losses) == 51
    assert losses[-1] < losses[0]
    assert weights.shape == (4, 3)
    q = predict_label_marginals(weights, data.x)
    assert q.shape == (300, 4)
    assert np.all((q > 0) & (q < 1))


def test_multinomial_trainer_descends_and_predicts():
    data = gen_multiclass(MulticlassConfig(n=300, k=4, d=2, sigma=0.2, seed=14))
    weights, losses = train_multinomial_logistic(data.x, data.y, 4, epochs=80)
    assert len(losses) == 81
    assert losses[0] == pytest.approx(np.log(4))  # zero-init softmax is uniform
    assert losses[-1] < losses[0]
    probs = predict_class_probs(weights, data.x)
    assert np.allclose(probs.sum(axis=1), 1.0)
    acc = (probs.argmax(axis=1) == data.y).mean()
    assert acc > 0.5


def test_multinomial_trainer_rejects_bad_labels():
    x = np.zeros((4, 2))
    with pytest.raises(ValueError):
        train_multinomial_logistic(x, np.array([0, 1, 2, 3]), 3)


def test_cumulative_probability_scores_hand_values():
    probs = np.array([[0.5, 0.3, 0.2], [0.4, 0.4, 0.2]])
    s = cumulative_probability_scores(probs)
    assert np.allclose(s[0], [0.5, 0.8, 1.0])
    # ties accumulate together
    assert np.allclose(s[1], [0.8, 0.8, 1.0])
    with pytest.raises(ValueError):
        cumulative_probability_scores(np.array([0.5, 0.5]))


def test_fit_ols_recovers_noiseless_coefficients():
    rng = np.random.default_rng(41)
    x = rng.standard_normal((60, 3))
    beta = np.array([1.5, -2.0, 0.25])
    coef = fit_ols(x, x @ beta)
    assert np.allclose(coef, beta, atol=1e-10)
