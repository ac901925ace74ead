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

The trainers are deliberately plain full-batch gradient-descent linear
models (per-label logistic, multinomial logistic) with explicit
loss-and-gradient functions so their gradients can be checked against
finite differences.
"""
from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .labels import ExplicitSet, Interval, PartialMatching, RankingPrefix, WeakRecord
from .ranking import _descend, _softmax, _training_rows

__all__ = [
    "MulticlassConfig",
    "RankingSimConfig",
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
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, not {seed}")
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(role)]))


def three_way_split(n: int, fractions: Sequence[float]) -> tuple[slice, slice, slice]:
    """Contiguous train/calibration/test slices with the given proportions."""
    if len(fractions) != 3 or not all(f >= 0 for f in fractions) or abs(sum(fractions) - 1) > 1e-9:
        raise ValueError("fractions must be three nonnegative values summing to 1")
    n1 = int(round(n * fractions[0]))
    n2 = int(round(n * fractions[1]))
    n1, n2 = min(n1, n), min(n2, n - n1)
    return slice(0, n1), slice(n1, n1 + n2), slice(n1 + n2, n)


@dataclass(frozen=True)
class MulticlassConfig:
    n: int = 10_000
    k: int = 10
    d: int = 2
    sigma: float = 1.0
    seed: int = 0
    min_weak_size: int = 1

    def __post_init__(self):
        if self.n < 1 or self.k < 2 or self.d < 1:
            raise ValueError("need n >= 1, k >= 2, d >= 1")
        if not 0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and nonnegative, not {self.sigma}")
        if not 1 <= self.min_weak_size <= self.k:
            raise ValueError("min_weak_size must be in [1, k]")


@dataclass(frozen=True)
class RankingSimConfig:
    n: int = 10_000
    k: int = 7
    d: int = 2
    sigma: float = 1.0
    seed: int = 0
    prefix_rate: float = 0.5  # Poisson rate of extra revealed positions

    def __post_init__(self):
        if self.n < 1 or self.k < 2 or self.d < 1:
            raise ValueError("need n >= 1, k >= 2, d >= 1")
        if not (0 <= self.sigma < math.inf and 0 <= self.prefix_rate < math.inf):
            raise ValueError("sigma and prefix_rate must be finite and nonnegative")


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


def _oracle_scores(cfg, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shared noise model: class scores x^T theta_y + sigma * noise."""
    rng_p = _rng(cfg.seed, _PARAMS)
    theta = rng_p.standard_normal((cfg.k, cfg.d))
    theta /= np.linalg.norm(theta, axis=1, keepdims=True)  # uniform directions
    x = _rng(cfg.seed, _FEATURES).standard_normal((n, cfg.d))
    scores = x @ theta.T + cfg.sigma * _rng(cfg.seed, _NOISE).standard_normal((n, cfg.k))
    return x, scores, theta


def gen_multiclass(cfg: MulticlassConfig) -> MulticlassData:
    """Weak multiclass data: Y is the score argmin, W the labels whose score
    falls below a uniform random cut between the row's min and max.

    With min_weak_size > 1 the cut is raised to the min_weak_size-th
    smallest score, so every weak set has at least that many labels. The
    argmin always survives the cut: Y is in W by construction.
    """
    x, scores, theta = _oracle_scores(cfg, cfg.n)
    y = scores.argmin(axis=1)
    row_min = scores.min(axis=1)
    row_max = scores.max(axis=1)
    u = _rng(cfg.seed, _THRESH).uniform(size=cfg.n)
    cut = row_min + u * (row_max - row_min)
    if cfg.min_weak_size > 1:
        kth = np.partition(scores, cfg.min_weak_size - 1, axis=1)[:, cfg.min_weak_size - 1]
        cut = np.maximum(cut, kth)
    member = scores <= cut[:, None]
    return MulticlassData(x=x, y=y, member=member, oracle_scores=scores, theta=theta)


def gen_ranking(cfg: RankingSimConfig) -> RankingData:
    """Weak ranking data: the truth sorts oracle scores descending (high
    score = top rank); the weak label reveals the top
    min(k, 1 + Poisson(prefix_rate)) positions."""
    x, scores, theta = _oracle_scores(cfg, cfg.n)
    order = np.argsort(-scores, axis=1, kind="stable")
    lengths = 1 + _rng(cfg.seed, _COUNTS).poisson(cfg.prefix_rate, size=cfg.n)
    lengths = np.minimum(lengths, cfg.k)
    return RankingData(x=x, order=order, lengths=lengths, oracle_scores=scores, theta=theta)


def gen_matching(n: int, k: int = 6, noise: float = 0.25, seed: int = 0) -> MatchingData:
    """Weak matching data: iid noise costs with the planted assignment's
    entries lowered by 1 (the unique minimizer at noise 0); the weak label
    reveals min(k, 1 + Poisson(0.5)) of the planted pairs."""
    if n < 1 or k < 2 or not 0 <= noise < math.inf:
        raise ValueError("need n >= 1, k >= 2 and a finite noise >= 0")
    # one permutation per row, drawn in the order of n rng.permutation(k) calls
    planted = _rng(seed, _PARAMS).permuted(np.tile(np.arange(k), (n, 1)), axis=1)
    costs = noise * _rng(seed, _NOISE).standard_normal((n, k, k))
    costs[np.arange(n)[:, None], np.arange(k), planted] -= 1.0
    rng_c = _rng(seed, _COUNTS)
    lengths = np.minimum(1 + rng_c.poisson(0.5, size=n), k)
    revealed = np.full((n, k), -1, dtype=planted.dtype)
    for i, m in enumerate(lengths.tolist()):
        agents = rng_c.choice(k, size=m, replace=False)
        revealed[i, agents] = planted[i, agents]
    return MatchingData(costs=costs, planted=planted, revealed=revealed)


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
    if n < 1 or d < 1 or not 0 < mu < math.inf:
        raise ValueError("need n >= 1, d >= 1 and a finite mu > 0")
    if min_half_width is not None and not math.isfinite(min_half_width):
        raise ValueError(f"min_half_width must be finite, not {min_half_width}")
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


def to_records(data) -> list[WeakRecord]:
    """Flatten a generated dataset into WeakRecords (costs become features);
    the per-record weak labels and truths are built here."""
    x = data.costs.reshape(len(data.costs), -1) if isinstance(data, MatchingData) else data.x
    return [WeakRecord(xi, w, yi) for xi, w, yi in zip(x, data.weak, data.y)]


# --- trainers ----------------------------------------------------------------


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # one exponential that cannot overflow: exp(-z) above 0, exp(z) below
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


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
    n = xb.shape[0]
    z = xb @ weights.T
    loss = float((np.logaddexp(0.0, z) - targets * z).sum() / n)
    grad = (_sigmoid(z) - targets).T @ xb / n
    return loss, grad


def multinomial_loss_grad(
    weights: np.ndarray, xb: np.ndarray, y: np.ndarray
) -> tuple[float, np.ndarray]:
    """Softmax cross-entropy (mean over records) with (k, p) weights."""
    n = xb.shape[0]
    z = xb @ weights.T
    z = z - z.max(axis=1, keepdims=True)
    logz = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - logz
    loss = float(-logp[np.arange(n), y].sum() / n)
    p = np.exp(logp)
    p[np.arange(n), y] -= 1.0
    grad = p.T @ xb / n
    return loss, grad


def train_per_label_logistic(
    x: np.ndarray,
    indicators: np.ndarray,
    epochs: int = 200,
    lr: float = 0.5,
) -> tuple[np.ndarray, list[float]]:
    """Fit P(y in W | x) per label by full-batch gradient descent.

    indicators is the (n, k) 0/1 weak-membership matrix. Returns (k, d+1)
    weights (bias last) and the loss trace.
    """
    xb = _with_bias(_training_rows(x))
    targets = np.asarray(indicators, dtype=float)
    weights = np.zeros((targets.shape[1], xb.shape[1]))
    return _descend(lambda w: logistic_loss_grad(w, xb, targets), weights, epochs, lr)


def train_multinomial_logistic(
    x: np.ndarray,
    y: np.ndarray,
    k: int,
    epochs: int = 200,
    lr: float = 0.5,
) -> tuple[np.ndarray, list[float]]:
    """Fit P(Y = y | x) by softmax regression; (k, d+1) weights, bias last."""
    xb = _with_bias(_training_rows(x))
    y = np.asarray(y, dtype=int)
    if y.min() < 0 or y.max() >= k:
        raise ValueError("labels out of range")
    weights = np.zeros((k, xb.shape[1]))
    return _descend(lambda w: multinomial_loss_grad(w, xb, y), weights, epochs, lr)


def predict_label_marginals(weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-label weak-membership probabilities q_y(x), shape (n, k)."""
    return _sigmoid(_with_bias(x) @ weights.T)


def predict_class_probs(weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Softmax class probabilities, shape (n, k)."""
    return _softmax(_with_bias(x) @ weights.T)


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
