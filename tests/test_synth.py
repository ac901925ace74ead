import contextlib
import hashlib
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weakconformal import ranking, synth
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
from weakconformal.ranking import (
    _column_sums,
    _softmax,
    listnet_loss_grad,
    listnet_train,
    predict_relevances,
    relevance_targets,
)
from weakconformal.synth import (
    MatchingData,
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
    _choice_picks,
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
    cfg = dict(n=200, k=5, d=3, sigma=0.7, seed=11)
    a = gen_multiclass(**cfg)
    b = gen_multiclass(**cfg)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.oracle_scores, b.oracle_scores)
    assert a.weak == b.weak
    c = gen_multiclass(n=200, k=5, d=3, sigma=0.7, seed=12)
    assert not np.array_equal(a.x, c.x)


def test_multiclass_truth_in_weak():
    data = gen_multiclass(n=500, k=8, seed=3)
    for yi, w in zip(data.y, data.weak):
        assert weak_contains(w, int(yi))


def test_multiclass_min_weak_size_floor():
    data = gen_multiclass(n=500, k=8, seed=3, min_weak_size=3)
    sizes = [len(w.labels) for w in data.weak]
    assert min(sizes) >= 3
    loose = gen_multiclass(n=500, k=8, seed=3, min_weak_size=1)
    assert min(len(w.labels) for w in loose.weak) == 1


def test_ranking_prefix_of_truth():
    data = gen_ranking(n=300, k=6, seed=5, prefix_rate=1.0)
    for ranking, w in zip(data.y, data.weak):
        assert sorted(ranking) == list(range(6))
        assert 1 <= len(w.items) <= 6
        assert ranking[: len(w.items)] == w.items
        assert weak_contains(w, ranking)


def test_ranking_deterministic():
    cfg = dict(n=100, k=5, seed=9)
    a, b = gen_ranking(**cfg), gen_ranking(**cfg)
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
    mc = gen_multiclass(n=20, k=4, d=3, seed=1)
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
        "classify": lambda: gen_multiclass(n=4, k=5, seed=3, min_weak_size=2),
        "rank": lambda: gen_ranking(n=4, k=5, seed=3, prefix_rate=1.0),
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
        "classify": lambda: gen_multiclass(n=60, k=6, seed=8),
        "rank": lambda: gen_ranking(n=60, k=5, seed=8, prefix_rate=2.0),
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


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 120), k=st.integers(2, 12), seed=st.integers(0, 2**32 - 1))
def test_gen_matching_reveals_what_the_choice_loop_reveals(n, k, seed):
    _, _, weak = _gen_matching_reference(n, k, 0.5, seed)
    assert list(gen_matching(n, k, 0.5, seed).weak) == weak


def _loop_picks(rng, lengths, k):
    picked = np.zeros((len(lengths), k), dtype=bool)
    for i, m in enumerate(lengths.tolist()):
        picked[i, rng.choice(k, size=m, replace=False)] = True
    return picked


def _buffered_counts_rng(seed, role):
    """The generator of a role, with a zero 32-bit word waiting in its buffer
    for the counts stream."""
    rng = _rng(seed, role)
    if role == 4:
        state = rng.bit_generator.state
        state["has_uint32"], state["uinteger"] = 1, 0
        rng.bit_generator.state = state
    return rng


def test_gen_matching_falls_back_to_the_loop_on_a_rejected_draw(monkeypatch):
    # the zero word is the first one drawn (the Poisson draws leave the
    # buffer alone); on [0, 5], for k = 6 and m = 1, Lemire's method rejects
    # it, as its product's low half 0 is below (2^32 - 6) mod 6 = 4
    n, k, seed = 60, 6, 1
    rng = _buffered_counts_rng(seed, 4)
    lengths = np.minimum(1 + rng.poisson(0.5, size=n), k)
    assert lengths[0] == 1
    assert _choice_picks(rng, lengths, k) is None
    picked = _loop_picks(rng, lengths, k)
    monkeypatch.setattr(synth, "_rng", _buffered_counts_rng)
    data = gen_matching(n, k, 0.5, seed)
    assert np.array_equal(data.revealed >= 0, picked)
    assert np.array_equal(data.revealed[picked], data.planted[picked])


class _CountedChoice:
    """A generator whose choice calls are counted."""

    def __init__(self, rng):
        self._rng, self.calls = rng, 0

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def choice(self, *args, **kwargs):
        self.calls += 1
        return self._rng.choice(*args, **kwargs)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gen_matching_reads_the_picks_off_the_stream(monkeypatch, seed):
    """On the installed numpy, choice draws only the guard records: a numpy
    whose choice draws differently fails here, not only runs slower."""
    counted = []

    def rng(s, role):
        made = _rng(s, role)
        if role == 4:
            counted.append(_CountedChoice(made))
            return counted[-1]
        return made

    monkeypatch.setattr(synth, "_rng", rng)
    data = gen_matching(4000, 6, 1.0, seed)
    assert counted[0].calls == synth._GUARD_ROWS
    counts = _rng(seed, 4)
    lengths = np.minimum(1 + counts.poisson(0.5, size=4000), 6)
    assert np.array_equal(data.revealed >= 0, _loop_picks(counts, lengths, 6))


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
    data = gen_multiclass(n=300, k=4, d=2, seed=13)
    ind = np.zeros((300, 4))
    for i, w in enumerate(data.weak):
        ind[i, list(w.labels)] = 1.0
    weights = train_per_label_logistic(data.x, ind, epochs=50)
    xb = np.concatenate([data.x, np.ones((300, 1))], axis=1)
    initial, _ = logistic_loss_grad(np.zeros((4, 3)), xb, ind)
    assert logistic_loss_grad(weights, xb, ind)[0] < initial
    assert weights.shape == (4, 3)
    q = predict_label_marginals(weights, data.x)
    assert q.shape == (300, 4)
    assert np.all((q > 0) & (q < 1))


def test_multinomial_trainer_descends_and_predicts():
    data = gen_multiclass(n=300, k=4, d=2, sigma=0.2, seed=14)
    weights = train_multinomial_logistic(data.x, data.y, 4, epochs=80)
    xb = np.concatenate([data.x, np.ones((300, 1))], axis=1)
    assert not train_multinomial_logistic(data.x, data.y, 4, epochs=0).any()
    initial, _ = multinomial_loss_grad(np.zeros((4, 3)), xb, data.y)
    assert initial == pytest.approx(np.log(4))  # zero-init softmax is uniform
    assert multinomial_loss_grad(weights, xb, data.y)[0] < initial
    probs = predict_class_probs(weights, data.x)
    assert np.allclose(probs.sum(axis=1), 1.0)
    acc = (probs.argmax(axis=1) == data.y).mean()
    assert acc > 0.5


def _descent_reference(loss_grad, weights, epochs, lr):
    """The loop each trainer used to write out, stepping along the gradient
    of the public loss-and-gradient function."""
    for _ in range(epochs):
        weights = weights - lr * loss_grad(weights)[1]
    return weights


def _softmax_reference(z):
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def test_trainers_are_bit_equal_to_the_written_out_loop():
    data = gen_multiclass(n=240, k=5, d=3, seed=15)
    xb = np.concatenate([data.x, np.ones((240, 1))], axis=1)
    member = data.member.astype(float)
    ranked = gen_ranking(n=240, k=6, d=3, seed=16)
    target_p = _softmax_reference(relevance_targets(ranked.order, 6))
    cases = [
        (train_per_label_logistic(data.x, member, epochs=60, lr=0.7),
         _descent_reference(lambda w: logistic_loss_grad(w, xb, member),
                            np.zeros((5, 4)), 60, 0.7)),
        (train_multinomial_logistic(data.x, data.y, 5, epochs=60, lr=0.3),
         _descent_reference(lambda w: multinomial_loss_grad(w, xb, data.y),
                            np.zeros((5, 4)), 60, 0.3)),
        (listnet_train(ranked.x, ranked.order, epochs=60, lr=0.2),
         _descent_reference(lambda w: listnet_loss_grad(w, ranked.x, target_p),
                            np.zeros((6, 3)), 60, 0.2)),
    ]
    for weights, weights_ref in cases:
        assert weights.tobytes() == weights_ref.tobytes()
    weights = cases[1][0]
    assert (predict_class_probs(weights, data.x).tobytes()
            == _softmax_reference(xb @ weights.T).tobytes())


# sha256 of each trainer output of _trainer_outputs, recorded while the softmaxes
# still took numpy's max(axis=1) reduction (numpy 2.4.6 with OpenBLAS, x86-64)
_TRAINER_DIGESTS = {
    "multinomial x1": "bac6335476c66316539fa0579fa3ca51f89d0833266ab10fce94017239d54cc0",
    "per_label x1": "bac7c456ec34f66dc2067a4b7c8eea1b95d35d8dc893118861f00161c5eebe3d",
    "listnet x1": "8851d704dc786169b3958e4e2214426519cac2b9404267b0e9252502af16a9dc",
    "listnet_loss_grad x1 w0": "e0c9c403206e0b21544017957c7557d2dcc2a836ffbd0c1fa1314f6917d5685f",
    "listnet_loss_grad x1 w1": "425739945ced31019424133c44e006f8aaad8930cae5d723bd5be2f4f9172b26",
    "multinomial x10": "bc699bc0c7e15be98a4ed5872fd47d97bf9a690391518a3404e59b66b4aaba79",
    "per_label x10": "b4442a04efd9d05b20a35e6a8bfcf5f46ab09b550a5a1913b51e4e9152506608",
    "listnet x10": "9e1715a9197a16f8373d0b7498c50fd0036a22552e37c3380a243c18e35c0ea4",
    "listnet_loss_grad x10 w0": "b059a677b74ff4632d064d70ffa68ef9cb5daef6cd24f7299369f25eb98f775b",
    "listnet_loss_grad x10 w1": "aa4b2e55269b6940efd62d74daad2c7360bbf15437d5585937e36ca65b235899",
}


def _trainer_outputs() -> dict[str, str]:
    """sha256 of the trainers' weights and of listnet_loss_grad's gradient and
    loss, on features of scale 1 and 10 whose first rows are zero, and at zero
    weights, where every logit is 0."""
    out = {}
    rng = np.random.default_rng(23)
    for scale in (1.0, 10.0):
        x = rng.normal(size=(120, 3)) * scale
        x[:10] = 0.0  # rows whose logits stay at the bias, zero at the start
        y = rng.integers(0, 7, size=120)
        member = rng.random((120, 7)) < 0.4
        rankings = rng.permuted(np.tile(np.arange(6), (120, 1)), axis=1)
        target = rng.random((120, 6))
        target /= target.sum(axis=1, keepdims=True)
        out[f"multinomial x{scale:g}"] = train_multinomial_logistic(x, y, 7, epochs=40)
        out[f"per_label x{scale:g}"] = train_per_label_logistic(x, member.astype(float), epochs=40)
        out[f"listnet x{scale:g}"] = listnet_train(x, rankings, epochs=40)
        for w_scale in (0.0, 1.0):
            weights = rng.normal(size=(6, 3)) * w_scale
            loss, grad = listnet_loss_grad(weights, x, target)
            out[f"listnet_loss_grad x{scale:g} w{w_scale:g}"] = np.append(grad.ravel(), loss)
    return {name: hashlib.sha256(np.ascontiguousarray(a, dtype=float).tobytes()).hexdigest()
            for name, a in out.items()}


def test_trainers_match_their_recorded_digests():
    assert _trainer_outputs() == _TRAINER_DIGESTS


def test_softmax_equals_the_row_reduction():
    # the softmax's row max and row sums are taken on a (k, n) copy: each
    # entry, the sign of zero included, must be the row layout's
    z = np.array([
        [0.0, -0.0, -1.0], [-0.0, 0.0, -1.0], [-0.0, -0.0, -0.0], [-np.inf, -np.inf, -np.inf],
        [np.inf, 1.0, 2.0], [np.nan, 1.0, 2.0], [1.0, np.nan, 2.0], [np.inf, 1.0, np.nan],
        [-np.inf, 0.0, -0.0],
    ])
    rng = np.random.default_rng(5)
    blocks = (z, rng.normal(size=(50, 1)), rng.integers(-2, 3, size=(50, 10)) * 1.0,
              rng.normal(size=(40, 130)) * 30.0)  # past one pairwise-sum block
    for block in blocks:
        with np.errstate(invalid="ignore"):  # inf - inf in the rows that give NaN
            got, ref = _softmax(block), _softmax_reference(block)
        assert got.shape == ref.shape and got.flags.c_contiguous
        assert np.array_equal(got, ref, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(ref))


# sha256 of each output of _wide_trainer_outputs, recorded while the trainers
# still held their logits as (n, k) rows (numpy 2.4.6 with OpenBLAS, x86-64). At
# k = 8, 10, 17 and 130 numpy sums a row of logits with eight accumulators, and
# at 130 as two halves, where _TRAINER_DIGESTS' k of 6 and 7 add in sequence.
_WIDE_TRAINER_DIGESTS = {
    "multinomial k8": "e0cd28b6af1bc468cec3c39123c0da8a733a27f3651cb0a192187061e008956a",
    "per_label k8": "0db99abd358b9ce8ae090364221e5a20b5138a7381496da90a1d52b05e0971cc",
    "listnet k8": "d6f1f497872e454b570b1ba415b94ed0100821abf91bfbd2ea7d67da98576022",
    "logistic_loss_grad k8 w0": "5e20800d65699b35a4d51cd5bb6511e894cf8616ab61b2469387939edcfa93bb",
    "multinomial_loss_grad k8 w0": "f5df4c5952e4045e92ecdf6ebecdac2cd342337e5304562941749a128b021ca9",
    "listnet_loss_grad k8 w0": "b85403274cab8d0b6c9df6c86b3dfb9bcc09956be1dfee238fdf9d05c6343a0f",
    "logistic_loss_grad k8 w1": "7fea9b29b54a1bcbcaaef690697019faed69ca4d4d8ad9512329fb3414b4fb27",
    "multinomial_loss_grad k8 w1": "3020b6f28785168c5d5067ca36b8c9bc80375f64677e1233837eef97bbab5748",
    "listnet_loss_grad k8 w1": "e5f1587bd808fbf4cf01856539ec9a38656da143c2b18bede815023a8d8a29ee",
    "multinomial k10": "1039d16e05ac40414b54f09a0552c1c354eb06ab7d84d79183c857db17909542",
    "per_label k10": "76880870cde20860379337fe2bdcac682ee325a96be00342484fb6a7c9a63199",
    "listnet k10": "cf92d985c7deadd531f82ecd93bab2661731f1ce0253c0d0d222417f629a2e47",
    "logistic_loss_grad k10 w0": "78a3b8cd2f117feb9635d56c448c59268fc81e354ae3183fef8a2220f3312480",
    "multinomial_loss_grad k10 w0": "72c09a143834464fbc987b2b0bcbd0bc94d4f6fee6e7316be56b35aa4b32980e",
    "listnet_loss_grad k10 w0": "c9d0354ac4c918b2435d8e660675893c0b3c2702fa136ad1d6c0daf3fd0bf149",
    "logistic_loss_grad k10 w1": "00490b7ed4120f43afa2b90d0e3642e6a587d14f117099a1d89595b8fdc3e1d7",
    "multinomial_loss_grad k10 w1": "2c99c04e5e55bbd86ddb23a9ffff33b4a879e3b98dde07b14b51df53fcde2996",
    "listnet_loss_grad k10 w1": "98efe62061fbd034eaa3e76f418cb9f910a60a29bd2155884da6e2430bf6b10e",
    "multinomial k17": "fcc7d9f0dab663ee96bbddc28b0d532613a647d47139002ae47320dcb31bb966",
    "per_label k17": "419893465b89f38955722b8a3e205e4ea7319b9ea821d9fcd16527a74820cea8",
    "listnet k17": "15437b1525f41893680112c83f48ad93c276638ba9fee59a6fb0bf46e0aba54e",
    "logistic_loss_grad k17 w0": "3701cc8b57f28a43c69496f7fd6616d03254d4105857b0b3650c445b744c4bbd",
    "multinomial_loss_grad k17 w0": "4d62ea17e6af719519bf8e338176a2b74551f15d8312559c2ee1fb0b89b430c0",
    "listnet_loss_grad k17 w0": "268d0ad1fd71557bf625f070b943be2da79d302d7831d9dabc9078609657e083",
    "logistic_loss_grad k17 w1": "8c95d0f6b0bae4b3226a6e159632182c3f79515feecfb088ef233695dd4b4438",
    "multinomial_loss_grad k17 w1": "e90b85f029c133a9db8cf44254aa1c809683ea3b9f180b0ca272c23557969cd0",
    "listnet_loss_grad k17 w1": "7b52c6ed904dc16e9bc66a2c3d5fa7c259a2a5f145e3423aa58f0221bf8e42c4",
    "multinomial k130": "52d1f1c34c2eaa811696226cfbf4597adfd37fbd9bf6e0232d2ae41f5e3be813",
    "per_label k130": "4fb02f3aaa0b3a0c374b681ab2bf771589ab6914b5036cc5201614d43ba692e7",
    "listnet k130": "03fa06906fc556c8e25baee49901915108fb541cffbf172b4191754700d2512c",
    "logistic_loss_grad k130 w0": "85ecb18a0497c1ba15ab523a755541653e7ecae252d647a45d011b9f62e2833d",
    "multinomial_loss_grad k130 w0": "ab5cded98f4c2a5ed8707e31feb992a24039c7931cd04e44b1a169ae77c50f43",
    "listnet_loss_grad k130 w0": "ed41f6cd767f60ebeeb59a4a4229d5870ae3b8eb8dcb5d74754d7734102df853",
    "logistic_loss_grad k130 w1": "55d1a738ca2ab774dbb1b06eda946ce66772d8ad5705eb1ecc252c24a62582e2",
    "multinomial_loss_grad k130 w1": "592dc062b48e0e4cba27b2b5dbf1232ecc0e6bde500af4d4142c922a6082d739",
    "listnet_loss_grad k130 w1": "cc798523519b5bca1fdcb55c6ea7f56198bbf1c9854bd662fe402d272d89c385",
}


def _wide_trainer_outputs() -> dict[str, str]:
    """sha256 of the trainers' weights and of the three loss-and-gradient
    functions' gradient and loss at zero and at random weights, for k = 8, 10,
    17 and 130 (few records and epochs at 130)."""
    out = {}
    rng = np.random.default_rng(29)
    for k in (8, 10, 17, 130):
        n, epochs = (40, 6) if k == 130 else (150, 30)
        x = rng.normal(size=(n, 3)) * 3.0
        x[:5] = 0.0
        xb = np.concatenate([x, np.ones((n, 1))], axis=1)
        y = rng.integers(0, k, size=n)
        member = (rng.random((n, k)) < 0.4).astype(float)
        rankings = rng.permuted(np.tile(np.arange(k), (n, 1)), axis=1)
        target = rng.random((n, k))
        target /= target.sum(axis=1, keepdims=True)
        out[f"multinomial k{k}"] = train_multinomial_logistic(x, y, k, epochs=epochs)
        out[f"per_label k{k}"] = train_per_label_logistic(x, member, epochs=epochs)
        out[f"listnet k{k}"] = listnet_train(x, rankings, epochs=epochs)
        for w_scale in (0.0, 1.0):
            weights = rng.normal(size=(k, 4)) * w_scale
            for name, (loss, grad) in (
                ("logistic", logistic_loss_grad(weights, xb, member)),
                ("multinomial", multinomial_loss_grad(weights, xb, y)),
                ("listnet", listnet_loss_grad(weights[:, :3], x, target)),
            ):
                out[f"{name}_loss_grad k{k} w{w_scale:g}"] = np.append(grad.ravel(), loss)
    return {name: hashlib.sha256(np.ascontiguousarray(a, dtype=float).tobytes()).hexdigest()
            for name, a in out.items()}


def test_trainers_match_their_recorded_digests_at_wider_k():
    assert _wide_trainer_outputs() == _WIDE_TRAINER_DIGESTS


def test_column_sums_equal_the_row_sums():
    # values and sign bits, the sign of zero included; a NaN's sign and payload
    # are not compared, since numpy's elementwise add does not pick between two
    # NaN operands the same way at every position of an array
    rng = np.random.default_rng(6)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0, 1e308, -1e308])
    for k in range(1, 301):
        blocks = (
            rng.normal(size=(k, 40)) * 10.0 ** rng.integers(-8, 8, size=(k, 40)),
            rng.choice(special, size=(k, 40)),
            rng.choice(np.array([0.0, -0.0]), size=(k, 40), p=[0.02, 0.98]),
        )
        for e in blocks:
            with np.errstate(invalid="ignore", over="ignore"):
                got, ref = _column_sums(e), np.ascontiguousarray(e.T).sum(axis=1)
            assert got.shape == ref.shape
            assert np.array_equal(got, ref, equal_nan=True), k
            number = ~np.isnan(ref)
            assert np.array_equal(np.signbit(got[number]), np.signbit(ref[number])), k


def _row_layout_train(loss: str, x, target, k: int, epochs: int, lr: float):
    """The trainers' descent written out on (n, k) logit rows, with numpy's own
    max(axis=1) and sum(axis=1) reductions; target is y, the 0/1 indicators or
    the top-1 target probabilities, by loss."""
    xb = x if loss == "listnet" else np.concatenate([x, np.ones((len(x), 1))], axis=1)
    weights = np.zeros((k, xb.shape[1]))
    for _ in range(epochs):
        z = xb @ weights.T
        if loss == "logistic":
            d = _sigmoid_where(z) - target
        elif loss == "multinomial":
            z = z - z.max(axis=1, keepdims=True)
            d = np.exp(z - np.log(np.exp(z).sum(axis=1, keepdims=True)))
            d[np.arange(len(target)), target] -= 1.0
        else:
            d = _softmax_reference(z) - target
        weights = weights - lr * (d.T @ xb / len(xb))
    return weights


def test_trainers_are_bit_equal_to_the_row_layout_loop():
    # every branch of numpy's pairwise row sum: in sequence below 8, eight
    # accumulators with and without a rest up to 128, and two halves above
    rng = np.random.default_rng(9)
    for k in (2, 3, 7, 8, 9, 15, 16, 17, 64, 127, 128, 129, 130, 257):
        n = 30
        x = rng.normal(size=(n, 2)) * 4.0
        y = rng.integers(0, k, size=n)
        member = (rng.random((n, k)) < 0.5).astype(float)
        rankings = rng.permuted(np.tile(np.arange(k), (n, 1)), axis=1)
        target_p = _softmax_reference(relevance_targets(rankings, k))
        for weights, ref in (
            (train_multinomial_logistic(x, y, k, epochs=5, lr=0.4),
             _row_layout_train("multinomial", x, y, k, 5, 0.4)),
            (train_per_label_logistic(x, member, epochs=5, lr=0.4),
             _row_layout_train("logistic", x, member, k, 5, 0.4)),
            (listnet_train(x, rankings, epochs=5, lr=0.4),
             _row_layout_train("listnet", x, target_p, k, 5, 0.4)),
        ):
            assert weights.tobytes() == ref.tobytes(), k


def _sigmoid_where(z):
    """The sigmoid as np.where once chose between its two branches."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def test_sigmoid_is_byte_equal_to_the_where_form():
    rng = np.random.default_rng(7)
    edges = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 745.5, -745.5, 1.0, -1.0,
                      5e-324, -5e-324])
    for z in (edges, edges.reshape(3, 4), rng.normal(scale=40.0, size=(9, 33))):
        assert _sigmoid(z).tobytes() == _sigmoid_where(z).tobytes()


def test_trainers_reject_bad_inputs():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(6, 2))
    y = np.array([0, 1, 2, 0, 1, 2])
    member = (rng.random((6, 3)) < 0.5).astype(float)
    rankings = rng.permuted(np.tile(np.arange(3), (6, 1)), axis=1)
    nan_x = x.copy()
    nan_x[2, 1] = np.nan
    trainers = {
        "multinomial": lambda x=x, **kw: train_multinomial_logistic(x, y, 3, **kw),
        "per_label": lambda x=x, **kw: train_per_label_logistic(x, member, **kw),
        "listnet": lambda x=x, **kw: listnet_train(x, rankings, **kw),
    }
    for name, train in trainers.items():
        for kwargs, named in [
            ({"x": nan_x}, "x"), ({"x": x[:, 0]}, "x"), ({"x": np.full((6, 2), np.inf)}, "x"),
            ({"lr": np.nan}, "lr"), ({"lr": np.inf}, "lr"), ({"lr": 0.0}, "lr"), ({"lr": "0.5"}, "lr"),
            ({"epochs": -1}, "epochs"), ({"epochs": 2.5}, "epochs"), ({"epochs": True}, "epochs"),
        ]:
            with pytest.raises(ValueError, match=named):
                train(**kwargs)
        assert train(epochs=3).shape[0] == 3, name
    for labels, named in [
        (y[:5], "y"), (y[:, None], "y"), (np.array([0, 1, 2.9, 0, 1, 2]), "label"),
        (np.array([0.0, 1, 2, 0, 1, 2]), "label"), (np.ones(6, dtype=bool), "label"),
        (np.array([0, 1, 3, 0, 1, 2]), "labels"), (np.array([0, 1, -1, 0, 1, 2]), "labels"),
    ]:
        with pytest.raises(ValueError, match=named):
            train_multinomial_logistic(x, labels, 3)
    for k, named in [(2.5, "k"), (0, "k")]:
        with pytest.raises(ValueError, match=named):
            train_multinomial_logistic(x, y, k)
    for ranks in (rankings.astype(float), np.array([[True, False], [False, True]] * 3)):
        with pytest.raises(ValueError, match="ranked item"):
            listnet_train(x, ranks)
    for indicators in (member[:1], member[:5], member[:, 0], member * 2.0, member - 0.5,
                       np.where(member > 0, np.nan, 0.0)):
        with pytest.raises(ValueError, match="indicators"):
            train_per_label_logistic(x, indicators)
    # valid inputs of other kinds still train: lists, booleans as indicators
    assert np.array_equal(train_multinomial_logistic(x.tolist(), y.tolist(), 3, epochs=3),
                          train_multinomial_logistic(x, y, 3, epochs=3))
    assert np.array_equal(train_per_label_logistic(x, member > 0, epochs=3),
                          train_per_label_logistic(x, member, epochs=3))


def test_predictions_reject_bad_features():
    # a NaN feature once gave a row of NaN, and a 1-D x a bare AxisError
    x = np.random.default_rng(9).normal(size=(5, 2))
    nan_x = x.copy()
    nan_x[3, 1] = np.nan
    predictions = {
        "class probs": lambda x: predict_class_probs(np.zeros((3, 3)), x),
        "label marginals": lambda x: predict_label_marginals(np.zeros((3, 3)), x),
        "relevances": lambda x: predict_relevances(np.zeros((3, 2)), x),
    }
    for name, predict in predictions.items():
        for bad, what in [(nan_x, "finite"), (np.full((5, 2), -np.inf), "finite"),
                          (x[:, 0], "an \\(n, d\\) array"), (x[None], "an \\(n, d\\) array")]:
            with pytest.raises(ValueError, match=f"^x must .*{what}"):
                predict(bad)
        assert predict(x).shape == (5, 3), name
        assert predict(x[:0]).shape == (0, 3), name  # an empty block is no error here


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
