"""Synthetic weak-supervision generators and the small trainers they feed.

Each generator draws iid records whose weak label provably contains the
truth; fixed seed means byte-identical output. Randomness is split into one
child stream per role (parameters, features, noise, thresholds, counts) via
SeedSequence, so adding a role never perturbs the others.

A dataset holds its weak labels as array blocks, one per kind: a boolean
(n, k) membership mask for label sets, an (n, k) order array plus prefix
lengths for rankings, an (n, k) block of revealed columns (-1 where a row
reveals nothing) for matchings, and lo/hi arrays for intervals. The
harness scores whole blocks at once. Per-record ExplicitSet, RankingPrefix,
PartialMatching and Interval objects, and tuple rankings and assignments,
are built only on demand: by the read-only ``weak`` and ``y`` views (record
i is built when it is read) and by ``to_records``, which feeds the JSONL
writer.

Every generator takes its settings as keywords and checks them against
one range rule per setting (_RANGES).

The trainers are deliberately plain full-batch gradient-descent linear
models (per-label logistic, multinomial logistic) that return their
weights. Each loss has an explicit loss-and-gradient function, so its
gradient can be checked against finite differences. The gradient steps hold
the logits as a (k, n) block, one column per record, as ListNet's do in
ranking: the softmax's column sums follow the order in which numpy's
sum(axis=1) adds a row of k logits, so the weights are bit-equal to those of
the (n, k) row layout. The trainers reject what they would otherwise
reshape: labels or indicators that do not give one row per record, labels
that are not integers in [0, k), indicators other than 0 and 1, features
that are not finite, and epochs or lr out of range.
"""
from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .labels import ExplicitSet, Interval, PartialMatching, RankingPrefix, WeakRecord
from .labels import _as_int, _as_int_array, _as_real
from .ranking import _column_gradient, _descend, _exp_columns, _softmax
from .ranking import _feature_rows, _training_rows

__all__ = [
    "MulticlassData",
    "RankingData",
    "MatchingData",
    "RegressionData",
    "gen_multiclass",
    "gen_ranking",
    "gen_matching",
    "gen_regression",
    "to_records",
    "three_way_split",
    "train_per_label_logistic",
    "train_multinomial_logistic",
    "logistic_loss_grad",
    "multinomial_loss_grad",
    "predict_label_marginals",
    "predict_class_probs",
    "cumulative_probability_scores",
    "fit_ols",
]

# RNG role ids (SeedSequence([seed, role]))
_PARAMS, _FEATURES, _NOISE, _THRESH, _COUNTS = 0, 1, 2, 3, 4


def _rng(seed: int, role: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(role)]))


def three_way_split(n: int, fractions: Sequence[float]) -> tuple[slice, slice, slice]:
    """Contiguous train/calibration/test slices with the given proportions."""
    if (len(fractions) != 3 or not all(f >= 0 for f in fractions)
            or abs(math.fsum(fractions) - 1) > 1e-9):
        raise ValueError("split must be three nonnegative fractions summing to 1")
    n1 = int(round(n * fractions[0]))
    n2 = int(round(n * fractions[1]))
    n1, n2 = min(n1, n), min(n2, n - n1)
    return slice(0, n1), slice(n1, n1 + n2), slice(n1 + n2, n)


# each generator setting's range: a test of (value, all settings), which
# raises ValueError for a value of the wrong kind, and what the test asks for
_RANGES: dict[str, tuple[Callable[[object, dict], bool], str]] = {
    "n": (lambda v, s: _as_int(v) >= 1, "an integer >= 1"),
    "k": (lambda v, s: _as_int(v) >= 2, "an integer >= 2"),
    "d": (lambda v, s: _as_int(v) >= 1, "an integer >= 1"),
    "sigma": (lambda v, s: 0 <= _as_real(v) < math.inf, "a finite number >= 0"),
    "noise": (lambda v, s: 0 <= _as_real(v) < math.inf, "a finite number >= 0"),
    "prefix_rate": (lambda v, s: 0 <= _as_real(v) < math.inf, "a finite number >= 0"),
    "mu": (lambda v, s: 0 < _as_real(v) < math.inf, "a finite number > 0"),
    "min_weak_size": (lambda v, s: 1 <= _as_int(v) <= s.get("k", v), "an integer in [1, k]"),
    "min_half_width": (lambda v, s: v is None or math.isfinite(_as_real(v)), "finite or None"),
    "seed": (lambda v, s: _as_int(v) >= 0, "an integer >= 0"),
}


def _check_settings(settings: dict, ranges: dict = _RANGES) -> None:
    """ValueError naming the first setting out of its range in ranges (the
    generator settings' by default); other names in settings are ignored."""
    for name, (ok, wants) in ranges.items():
        try:
            good = name not in settings or ok(settings[name], settings)
        except ValueError:  # not a number of the setting's kind
            good = False
        if not good:
            raise ValueError(f"{name} must be {wants}, not {settings[name]!r}")


class _Built(Sequence):
    """Read-only sequence whose item i is built from the blocks when read.

    Slices give lists, like the per-record lists these views stand in for.
    """

    def __init__(self, n: int, build: Callable[[int], object]):
        self._n = n
        self._build = build

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._build(j) for j in range(*i.indices(self._n))]
        return self._build(range(self._n)[i])

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and list(self) == list(other)


@dataclass
class MulticlassData:
    x: np.ndarray
    y: np.ndarray
    member: np.ndarray  # (n, k) bool: label j is in record i's weak set
    oracle_scores: np.ndarray
    theta: np.ndarray

    @property
    def weak(self) -> Sequence[ExplicitSet]:
        member = self.member
        return _Built(len(member), lambda i: ExplicitSet(tuple(np.flatnonzero(member[i]).tolist())))


@dataclass
class RankingData:
    x: np.ndarray
    order: np.ndarray  # (n, k): row i is the true ranking, its first lengths[i] items revealed
    lengths: np.ndarray  # (n,)
    oracle_scores: np.ndarray
    theta: np.ndarray

    @property
    def y(self) -> Sequence[tuple[int, ...]]:
        order = self.order
        return _Built(len(order), lambda i: tuple(order[i].tolist()))

    @property
    def weak(self) -> Sequence[RankingPrefix]:
        order, lengths = self.order, self.lengths
        k = order.shape[1]
        return _Built(
            len(order), lambda i: RankingPrefix(tuple(order[i, : lengths[i]].tolist()), k)
        )


@dataclass
class MatchingData:
    costs: np.ndarray  # (n, k, k)
    planted: np.ndarray  # (n, k): row i's true assignment, agent u -> planted[i, u]
    revealed: np.ndarray  # (n, k): planted[i, u] where row i reveals agent u's pair, else -1

    @property
    def y(self) -> Sequence[tuple[int, ...]]:
        planted = self.planted
        return _Built(len(planted), lambda i: tuple(planted[i].tolist()))

    @property
    def weak(self) -> Sequence[PartialMatching]:
        revealed = self.revealed
        k = revealed.shape[1]

        def build(i: int) -> PartialMatching:
            agents = np.flatnonzero(revealed[i] >= 0)
            return PartialMatching(tuple(zip(agents.tolist(), revealed[i, agents].tolist())), k)

        return _Built(len(revealed), build)


@dataclass
class RegressionData:
    x: np.ndarray
    y: np.ndarray
    lo: np.ndarray  # (n,): record i's weak label is [lo[i], hi[i]]
    hi: np.ndarray
    beta: np.ndarray

    @property
    def weak(self) -> Sequence[Interval]:
        lo, hi = self.lo, self.hi
        return _Built(len(lo), lambda i: Interval(lo[i], hi[i]))


def _oracle_scores(
    n: int, k: int, d: int, sigma: float, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shared noise model: class scores x^T theta_y + sigma * noise."""
    rng_p = _rng(seed, _PARAMS)
    theta = rng_p.standard_normal((k, d))
    theta /= np.linalg.norm(theta, axis=1, keepdims=True)  # uniform directions
    x = _rng(seed, _FEATURES).standard_normal((n, d))
    scores = x @ theta.T + sigma * _rng(seed, _NOISE).standard_normal((n, k))
    return x, scores, theta


def gen_multiclass(
    n: int, k: int = 10, d: int = 2, sigma: float = 1.0, seed: int = 0, min_weak_size: int = 1
) -> MulticlassData:
    """Weak multiclass data: Y is the score argmin, W the labels whose score
    falls below a uniform random cut between the row's min and max.

    With min_weak_size > 1 the cut is raised to the min_weak_size-th
    smallest score, so every weak set has at least that many labels. The
    argmin always survives the cut: Y is in W by construction.
    """
    _check_settings(dict(n=n, k=k, d=d, sigma=sigma, seed=seed, min_weak_size=min_weak_size))
    x, scores, theta = _oracle_scores(n, k, d, sigma, seed)
    y = scores.argmin(axis=1)
    row_min = scores.min(axis=1)
    row_max = scores.max(axis=1)
    u = _rng(seed, _THRESH).uniform(size=n)
    cut = row_min + u * (row_max - row_min)
    if min_weak_size > 1:
        kth = np.partition(scores, min_weak_size - 1, axis=1)[:, min_weak_size - 1]
        cut = np.maximum(cut, kth)
    member = scores <= cut[:, None]
    return MulticlassData(x=x, y=y, member=member, oracle_scores=scores, theta=theta)


def gen_ranking(
    n: int, k: int = 7, d: int = 2, sigma: float = 1.0, seed: int = 0, prefix_rate: float = 0.5
) -> RankingData:
    """Weak ranking data: the truth sorts oracle scores descending (high
    score = top rank); the weak label reveals the top
    min(k, 1 + Poisson(prefix_rate)) positions."""
    _check_settings(dict(n=n, k=k, d=d, sigma=sigma, seed=seed, prefix_rate=prefix_rate))
    x, scores, theta = _oracle_scores(n, k, d, sigma, seed)
    order = np.argsort(-scores, axis=1, kind="stable")
    lengths = 1 + _rng(seed, _COUNTS).poisson(prefix_rate, size=n)
    lengths = np.minimum(lengths, k)
    return RankingData(x=x, order=order, lengths=lengths, oracle_scores=scores, theta=theta)


# records gen_matching draws with rng.choice before it trusts _choice_picks
_GUARD_ROWS = 16


def gen_matching(n: int, k: int = 6, noise: float = 0.25, seed: int = 0) -> MatchingData:
    """Weak matching data: iid noise costs with the planted assignment's
    entries lowered by 1 (the unique minimizer at noise 0); the weak label
    reveals min(k, 1 + Poisson(0.5)) of the planted pairs.

    Record i reveals the agents of rng.choice(k, size=m_i, replace=False),
    drawn record by record from one stream. They are read off that stream
    for all records at once (_choice_picks); the per-record choice loop
    serves when a draw would be rejected, and it draws the first
    _GUARD_ROWS records itself, so a numpy whose choice draws differently
    falls back to it too.
    """
    _check_settings(dict(n=n, k=k, noise=noise, seed=seed))
    # one permutation per row, drawn in the order of n rng.permutation(k) calls
    planted = _rng(seed, _PARAMS).permuted(np.tile(np.arange(k), (n, 1)), axis=1)
    rng_c = _rng(seed, _COUNTS)
    lengths = np.minimum(1 + rng_c.poisson(0.5, size=n), k)
    picked = _choice_picks(rng_c, lengths, k)  # before the costs, so its scratch adds no peak memory
    costs = noise * _rng(seed, _NOISE).standard_normal((n, k, k))
    costs[np.arange(n)[:, None], np.arange(k), planted] -= 1.0
    revealed = np.full((n, k), -1, dtype=planted.dtype)
    for i, m in enumerate(lengths.tolist()):
        if i == _GUARD_ROWS and picked is not None and np.array_equal(revealed[:i] >= 0, picked[:i]):
            rest = picked[i:]
            revealed[i:][rest] = planted[i:][rest]
            break
        agents = rng_c.choice(k, size=m, replace=False)
        revealed[i, agents] = planted[i, agents]
    return MatchingData(costs=costs, planted=planted, revealed=revealed)


def _choice_picks(rng: np.random.Generator, lengths: np.ndarray, k: int) -> np.ndarray | None:
    """The agents that rng.choice(k, size=m, replace=False) picks for each m
    in lengths, called in order, as an (n, k) mask; None when a draw would
    be rejected. rng is left as it was.

    Generator.choice runs Floyd's algorithm, one draw on [0, j] for
    j = k - m ... k - 1 (none at j = 0), keeping j when the draw is already
    picked; a Fisher-Yates shuffle of the picks follows, one draw on [0, i]
    for i = m - 1 ... 1. Each draw is Lemire's: the high half of w * (j + 1)
    for the next 32-bit word w, rejected when the low half is below
    (2^32 - j - 1) mod (j + 1). PCG64 gives the low then the high half of
    each 64-bit output, after a half left in its buffer.
    """
    m = lengths.astype(np.int64)
    floyd = m - (m == k)
    used = floyd + m - 1
    start = np.cumsum(used) - used
    bits = rng.bit_generator
    state = bits.state
    buffered = int(state.get("has_uint32", 0))
    raw = bits.random_raw((int(used.sum()) - buffered + 1) // 2)
    bits.state = state
    words = np.empty(buffered + 2 * raw.size, dtype=np.int64)
    words[:buffered] = state.get("uinteger", 0)
    words[buffered:] = raw.astype("<u8", copy=False).view("<u4")  # low half first
    picked = np.zeros((len(m), k), dtype=bool)
    picked[m == k] = True  # every agent, whatever was drawn
    for t in range(int(used.max())):  # word t of each record: Floyd's draws, then the shuffle's
        rows = np.flatnonzero(used > t)
        mr, fr = m[rows], floyd[rows]
        bound = np.where(t < fr, k - fr + 1 + t, mr - t + fr)  # j + 1
        product = words[start[rows] + t] * bound
        if np.any(product & 0xFFFFFFFF < (2**32 - bound) % bound):
            return None
        step = (t < fr) & (mr < k)
        rows, drawn = rows[step], product[step] >> 32
        j = k - mr[step] + t
        picked[rows, np.where(picked[rows, drawn], j, drawn)] = True
    return picked


def gen_regression(
    n: int,
    d: int = 2,
    mu: float = 0.05,
    seed: int = 0,
    min_half_width: float | None = None,
) -> RegressionData:
    """Weak regression data: linear-Gaussian response with interval weak
    label Y +/- Z, Z ~ Normal(mu, 0.0001) resampled until positive (and
    until >= min_half_width when given, for lower-bounded interval length);
    a min_half_width that 1000 rounds of resampling do not reach is an error.
    """
    _check_settings(dict(n=n, d=d, mu=mu, seed=seed, min_half_width=min_half_width))
    beta = _rng(seed, _PARAMS).standard_normal(d)
    x = _rng(seed, _FEATURES).standard_normal((n, d))
    y = x @ beta + 0.5 * _rng(seed, _NOISE).standard_normal(n)
    rng_t = _rng(seed, _THRESH)
    z = mu + 0.01 * rng_t.standard_normal(n)
    floor = 0.0 if min_half_width is None else float(min_half_width)
    for _ in range(1000):
        bad = z <= floor if floor > 0 else z <= 0
        if not bad.any():
            break
        z[bad] = mu + 0.01 * rng_t.standard_normal(int(bad.sum()))
    else:
        raise ValueError(
            f"min_half_width {floor} is out of reach of half-widths drawn from "
            f"Normal(mu={mu}, 0.01^2)"
        )
    return RegressionData(x=x, y=y, lo=y - z, hi=y + z, beta=beta)


# each task's generator, named so that the module attribute is looked up when
# data is built (a tracing wrapper there is what runs), and the settings it reads
_TASK_DATA = {
    "classify": ("gen_multiclass", ("n", "k", "d", "sigma", "seed", "min_weak_size")),
    "rank": ("gen_ranking", ("n", "k", "d", "sigma", "seed", "prefix_rate")),
    "match": ("gen_matching", ("n", "k", "noise", "seed")),
    "regress": ("gen_regression", ("n", "d", "mu", "seed", "min_half_width")),
}


def _generate(task: str, settings: dict):
    """task's dataset from the settings its generator reads; the others are
    ignored, and one left out or None takes the generator's default."""
    name, reads = _TASK_DATA[task]
    return globals()[name](**{s: settings[s] for s in reads if settings.get(s) is not None})


def to_records(data) -> list[WeakRecord]:
    """Flatten a generated dataset into WeakRecords (costs become features);
    the per-record weak labels and truths are built here."""
    x = data.costs.reshape(len(data.costs), -1) if isinstance(data, MatchingData) else data.x
    return [WeakRecord(xi, w, yi) for xi, w, yi in zip(x, data.weak, data.y)]


# --- trainers ----------------------------------------------------------------


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # one exponential that cannot overflow, e = exp(-|z|): the sigmoid is
    # 1 / (1 + e) at z >= 0, where e <= 1, and e / (1 + e) below, so its
    # numerator is max(e, z >= 0)
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    return np.maximum(e, z >= 0) / (1.0 + e)


def _with_bias(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return np.concatenate([x, np.ones((x.shape[0], 1))], axis=1)


def logistic_loss_grad(
    weights: np.ndarray, xb: np.ndarray, targets: np.ndarray
) -> tuple[float, np.ndarray]:
    """k independent binary logistic losses, averaged over records.

    weights (k, p), xb (n, p), targets (n, k) in {0, 1}; returns the summed
    per-label mean losses and the matching (k, p) gradient.
    """
    z = weights @ xb.T
    zn = np.ascontiguousarray(z.T)
    loss = float((np.logaddexp(0.0, zn) - targets * zn).sum() / xb.shape[0])
    return loss, _logistic_grad(z, xb, np.asarray(targets).T)


def _logistic_grad(z: np.ndarray, xb: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """logistic_loss_grad's gradient, from the (k, n) logits z = weights @ xb.T
    and the (k, n) targets."""
    d = _sigmoid(z)
    d -= targets
    return _column_gradient(d, xb)


def _log_softmax(z: np.ndarray) -> np.ndarray:
    """Log-probabilities of the (k, n) logits z, each column a record's;
    z is overwritten."""
    shifted, _, total = _exp_columns(z)
    shifted -= np.log(total)
    return shifted


def _one_hot(y: np.ndarray, k: int) -> np.ndarray:
    """The (k, n) indicator of the labels y: 1 at (y[i], i), 0 elsewhere."""
    hot = np.zeros((k, len(y)))
    hot[y, np.arange(len(y))] = 1.0
    return hot


def _multinomial_grad(logp: np.ndarray, xb: np.ndarray, hot: np.ndarray) -> np.ndarray:
    """multinomial_loss_grad's gradient, from the (k, n) log-probabilities
    logp = _log_softmax(weights @ xb.T) and the labels' _one_hot."""
    d = np.exp(logp)
    d -= hot
    return _column_gradient(d, xb)


def multinomial_loss_grad(
    weights: np.ndarray, xb: np.ndarray, y: np.ndarray
) -> tuple[float, np.ndarray]:
    """Softmax cross-entropy (mean over records) with (k, p) weights."""
    n = xb.shape[0]
    logp = _log_softmax(weights @ xb.T)
    loss = float(-logp[y, np.arange(n)].sum() / n)
    return loss, _multinomial_grad(logp, xb, _one_hot(y, len(weights)))


def _labels(y, n: int, k: int) -> np.ndarray:
    """y as n class labels in [0, k), or ValueError naming it: labels are
    integers by _as_int's rule, so 2.9 is not truncated to 2."""
    y = _as_int_array(y, "a label")
    if y.shape != (n,):
        raise ValueError(
            f"y must hold one label per row of x ({n}), not an array of shape {y.shape}"
        )
    if y.min() < 0 or y.max() >= k:
        raise ValueError(f"labels must lie in [0, {k})")
    return y


def train_per_label_logistic(
    x: np.ndarray,
    indicators: np.ndarray,
    epochs: int = 200,
    lr: float = 0.5,
) -> np.ndarray:
    """Fit P(y in W | x) per label by full-batch gradient descent.

    indicators is the (n, k) 0/1 weak-membership matrix. Returns (k, d+1)
    weights (bias last).
    """
    xb = _with_bias(_training_rows(x))
    targets = np.asarray(indicators, dtype=float)
    if targets.ndim != 2 or len(targets) != len(xb):
        raise ValueError(f"indicators must be ({len(xb)}, k), one row per row of x, "
                         f"not of shape {targets.shape}")
    if not ((targets == 0) | (targets == 1)).all():
        raise ValueError("indicators must be 0 or 1")
    targets = np.ascontiguousarray(targets.T)
    return _descend(lambda w: _logistic_grad(w @ xb.T, xb, targets),
                    np.zeros((len(targets), xb.shape[1])), epochs, lr)


def train_multinomial_logistic(
    x: np.ndarray,
    y: np.ndarray,
    k: int,
    epochs: int = 200,
    lr: float = 0.5,
) -> np.ndarray:
    """Fit P(Y = y | x) by softmax regression; (k, d+1) weights, bias last."""
    xb = _with_bias(_training_rows(x))
    if _as_int(k, "k") < 1:
        raise ValueError(f"k must be >= 1, not {k}")
    hot = _one_hot(_labels(y, len(xb), k), k)
    return _descend(lambda w: _multinomial_grad(_log_softmax(w @ xb.T), xb, hot),
                    np.zeros((k, xb.shape[1])), epochs, lr)


def predict_label_marginals(weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-label weak-membership probabilities q_y(x), shape (n, k).
    ValueError when x is not an (n, d) array of finite features."""
    return _sigmoid(_with_bias(_feature_rows(x)) @ weights.T)


def predict_class_probs(weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Softmax class probabilities, shape (n, k). ValueError when x is not an
    (n, d) array of finite features."""
    return _softmax(_with_bias(_feature_rows(x)) @ weights.T)


def cumulative_probability_scores(probs: np.ndarray) -> np.ndarray:
    """Deterministic cumulative-probability conformity scores.

    s(x, y) = sum of all class probabilities at least as large as class y's
    (so the modal class scores its own probability, the least likely class
    scores 1). Lower is more plausible. Shape in = shape out = (n, k).
    """
    p = np.asarray(probs, dtype=float)
    if p.ndim != 2:
        raise ValueError("probs must be (n, k)")
    ge = p[:, :, None] >= p[:, None, :]  # ge[i, k, y]: p_ik >= p_iy
    return np.einsum("iky,ik->iy", ge, p)


def fit_ols(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares coefficients (no intercept, matching the generator)."""
    coef, *_ = np.linalg.lstsq(_training_rows(x), np.asarray(y, dtype=float), rcond=None)
    return coef
