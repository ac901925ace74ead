"""Randomized confidence sets for a conditional weak-set distribution.

Given the conditional law of the weak set W over a finite label space, the
greedy construction orders labels by how much new coverage each adds
(probability that W meets the set for the first time through that label),
then randomizes between two consecutive prefixes of that order so the
realized set hits W with probability *exactly* eta:

    inner = first j-1 labels,  outer = first j labels,
    t = (eta - c_{j-1}) / (c_j - c_{j-1}),
    realize(u) = outer if u < t else inner,          u ~ Uniform[0, 1],

with c_j the coverage of the j-th prefix, c_0 = 0, j the first index where
c_j >= eta - 1e-12 and t clipped to 1; the same search (``_reach``) serves the
optimal mixture, the smallest cover and the Wolsey constant. The family is
nested in eta for a shared u, which makes the level at which a label first
enters the set a legitimate conformity score (``nested_score``): calibrating
that score with the split-conformal quantile turns per-x exact coverage into
a distribution-free weak-coverage guarantee.

The module also ships the measurement tools used to judge the greedy sets:
an exhaustive optimal-size oracle over all 2^k subsets (``size_profile`` /
``brute_force_optimal``), the submodular-cover curvature constant bounding
greedy suboptimality (``wolsey_constant``), structure detection for the two
families where greedy is provably size-optimal (``check_structure``), and a
knapsack allocation of per-x coverage levels under a marginal coverage
budget (``marginal_allocation``).

All but the allocation runs on arrays. A distribution caches its (atoms, k)
bit matrix (from uint64 masks, so k = 64 fits) and its greedy run, whose
table of coverage increments after each prefix serves ``greedy_set`` and
``wolsey_constant`` at every level; column sums add atoms in row order, as a
loop over the atoms would. ``size_profile`` takes each subset's coverage as
total - g(complement), g the subset-sum (zeta) transform: O(k 2^k) time,
O(2^k) memory. ``wolsey_constant`` takes Wolsey's terms on the coverage
truncated at eta, min(cov(S), eta), as his theorem states them (1982).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .conformal import TOL

__all__ = [
    "DiscreteWeakDistribution",
    "GreedySequence",
    "RandomizedSet",
    "greedy_sequence",
    "label_independent_sequence",
    "greedy_set",
    "set_from_sequence",
    "nested_score",
    "nested_score_vector",
    "label_independent_nested_scores",
    "SizeProfile",
    "size_profile",
    "brute_force_optimal",
    "wolsey_constant",
    "Structure",
    "check_structure",
    "MarginalAllocation",
    "marginal_allocation",
]

_ENUM_CAP = 20  # subset enumeration bound: 2^20 masks
_LEVEL_TOL = 1e-12  # a curve point this close under eta reaches eta
_EMPTY_MASS = 1e-12  # W counts as empty almost surely when P(W nonempty) <= this


def _mask_of(labels: Iterable[int], k: int) -> int:
    mask = 0
    for v in labels:
        v = int(v)
        if not 0 <= v < k:
            raise ValueError(f"label {v} out of range for k={k}")
        bit = 1 << v
        if mask & bit:
            raise ValueError("duplicate label in atom")
        mask |= bit
    return mask


def _labels_of(mask: int) -> tuple[int, ...]:
    return tuple(y for y in range(mask.bit_length()) if (mask >> y) & 1)


@dataclass(frozen=True)
class DiscreteWeakDistribution:
    """Distribution of a nonempty random subset of {0, ..., k-1}.

    Atoms are stored as bitmasks (k <= 64) with their probabilities; masks
    must be distinct and nonzero, probabilities nonnegative and summing to 1
    within 1e-9.
    """

    k: int
    masks: tuple[int, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        k = int(self.k)
        if not 1 <= k <= 64:
            raise ValueError("k must be in [1, 64]")
        masks = tuple(map(int, self.masks))
        probs = tuple(map(float, self.probs))
        if len(masks) != len(probs) or not masks:
            raise ValueError("need matching, nonempty masks and probs")
        if min(masks) < 1 or max(masks) > (1 << k) - 1:  # m != 0 and m & ~full == 0
            raise ValueError("atoms must be nonempty subsets of the label space")
        if len(set(masks)) != len(masks):
            raise ValueError("atom masks must be distinct")
        p = np.array(probs)
        if np.any(p < -TOL):
            raise ValueError("atom probabilities must be nonnegative")
        if abs(sum(probs) - 1.0) > 1e-9:
            raise ValueError(f"atom probabilities sum to {sum(probs)}, not 1")
        if np.any(p < 0.0):
            probs = tuple(max(v, 0.0) for v in probs)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "masks", masks)
        object.__setattr__(self, "probs", probs)

    @classmethod
    def from_sets(
        cls, k: int, atoms: Iterable[tuple[Iterable[int], float]]
    ) -> "DiscreteWeakDistribution":
        masks, probs = [], []
        for labels, p in atoms:
            masks.append(_mask_of(labels, k))
            probs.append(p)
        return cls(k, tuple(masks), tuple(probs))

    @classmethod
    def from_marginals(cls, k: int, q: Sequence[float]) -> "DiscreteWeakDistribution":
        """Independent label indicators with P(y in W) = q[y], conditioned on
        W being nonempty, with every atom materialized (k <= 20)."""
        q = np.asarray(q, dtype=float)
        if q.shape != (k,) or not np.all((q >= 0) & (q <= 1)):
            raise ValueError("q must be k probabilities")
        if k > _ENUM_CAP:
            raise ValueError(f"atom materialization capped at k={_ENUM_CAP}")
        z = _nonempty_mass(float(np.prod(1.0 - q)))
        masks = np.arange(1, 1 << k)
        p = _product_law(masks, q)
        keep = p > 0.0
        return cls(k, tuple(masks[keep].tolist()), tuple((p[keep] / z).tolist()))

    @cached_property
    def _bits(self) -> np.ndarray:
        """(atoms, k) bool matrix; row i holds the labels of atom i."""
        masks = np.array(self.masks, dtype=np.uint64)  # unsigned: label 63 fits
        return ((masks[:, None] >> np.arange(self.k, dtype=np.uint64)) & np.uint64(1)) == 1

    @cached_property
    def _greedy(self) -> tuple["GreedySequence", np.ndarray]:
        return _greedy_run(self)

    def atom_sets(self) -> list[tuple[tuple[int, ...], float]]:
        return [(_labels_of(m), p) for m, p in zip(self.masks, self.probs)]

    def coverage(self, labels: Iterable[int]) -> float:
        """P(W intersects the given set)."""
        mask = _mask_of(labels, self.k)
        return sum(p for m, p in zip(self.masks, self.probs) if m & mask)

    def to_json(self) -> str:
        atoms = [{"set": list(_labels_of(m)), "p": p} for m, p in zip(self.masks, self.probs)]
        return json.dumps({"k": self.k, "atoms": atoms})

    @classmethod
    def from_json(cls, text: str) -> "DiscreteWeakDistribution":
        obj = json.loads(text)
        try:
            return cls.from_sets(obj["k"], [(a["set"], a["p"]) for a in obj["atoms"]])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed distribution payload: {exc}") from exc


@dataclass(frozen=True)
class GreedySequence:
    """Greedy label order with cumulative prefix coverages c_1 <= ... <= c_k = 1."""

    order: tuple[int, ...]
    cum_coverage: tuple[float, ...]

    def __post_init__(self):
        k = len(self.order)
        cum = self.cum_coverage
        if sorted(self.order) != list(range(k)) or len(cum) != k or min(cum, default=0) <= 0:
            raise ValueError("need each label 0..k-1 once in order and a positive coverage each")


@dataclass(frozen=True)
class RandomizedSet:
    """Two nested candidate sets and the outer-set probability t."""

    inner: frozenset[int]
    outer: frozenset[int]
    t: float

    def __post_init__(self):
        if not self.inner <= self.outer:
            raise ValueError("inner set must be contained in outer set")
        if len(self.outer) != len(self.inner) + 1:
            raise ValueError("outer set must add exactly one label")
        if not 0.0 <= self.t <= 1.0:
            raise ValueError("t must be a probability")

    def realize(self, u: float) -> frozenset[int]:
        return self.outer if u < self.t else self.inner

    @property
    def expected_size(self) -> float:
        return len(self.inner) + self.t


def greedy_sequence(dist: DiscreteWeakDistribution) -> GreedySequence:
    """Order labels by marginal coverage gain (ties to the smallest id).

    The gain of y given already-picked set C is P(W disjoint from C, y in W);
    cumulative coverages are the running sums of the picked gains. Computed
    once per distribution and cached on it.
    """
    return dist._greedy[0]


def _greedy_run(dist: DiscreteWeakDistribution) -> tuple[GreedySequence, np.ndarray]:
    """Greedy sequence and its (k+1, k) increment table: row j holds
    delta(C_j, y) = P(W disjoint from the first j picks, y in W) for every y."""
    k = dist.k
    bits = dist._bits
    weighted = bits * np.asarray(dist.probs)[:, None]
    deltas = np.zeros((k + 1, k))
    free = np.ones(k, dtype=bool)
    picked: list[int] = []
    cum: list[float] = []
    covered = 0.0
    for j in range(k):
        deltas[j] = weighted.sum(axis=0)  # axis-0 sums add the live atoms in row order
        y = int(np.argmax(np.where(free, deltas[j], -1.0)))  # first max: smallest label
        picked.append(y)
        free[y] = False
        covered += float(deltas[j, y])
        cum.append(covered)
        live = ~bits[:, y]  # drop the atoms the pick covers
        bits, weighted = bits[live], weighted[live]
    if abs(cum[-1] - 1.0) > 1e-6:
        raise AssertionError(f"cumulative coverage ended at {cum[-1]}, not 1")
    cum[-1] = 1.0
    return GreedySequence(tuple(picked), tuple(cum)), deltas


def _product_law(masks: np.ndarray, q: np.ndarray) -> np.ndarray:
    """P(W = m) for each mask m, not conditioned on W nonempty, when the
    indicators {y in W} are independent with P(y in W) = q[y]: one factor
    per label, multiplied in label order."""
    p = np.ones(masks.size)
    for y in range(q.size):
        p *= np.where((masks >> y) & 1, q[y], 1.0 - q[y])
    return p


def _nonempty_mass(p_empty):
    """P(W nonempty) = 1 - p_empty, or ValueError when it is at most 1e-12."""
    z = 1.0 - p_empty
    if np.any(z <= _EMPTY_MASS):
        raise ValueError("W would be empty almost surely")
    return z


def _label_independent_runs(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Greedy order and prefix coverages of each row of marginals q (n, k):
    q descending (stable), and c_j = (1 - prod_{i<=j}(1 - q_(i))) / Z with
    Z = 1 - prod_i(1 - q_i) the probability that W is nonempty."""
    if q.shape[1] == 0 or not np.all((q >= 0) & (q <= 1)):
        raise ValueError("q must hold probabilities, one per label of a nonempty space")
    order = np.argsort(-q, axis=1, kind="stable")
    cp = np.cumprod(1.0 - np.take_along_axis(q, order, axis=1), axis=1)
    z = _nonempty_mass(cp[:, -1:])
    cum = (1.0 - cp) / z
    cum[:, -1] = 1.0
    return order, cum


def label_independent_sequence(q: Sequence[float]) -> GreedySequence:
    """Greedy sequence for independent label indicators conditioned nonempty.

    Equivalent to greedy_sequence(DiscreteWeakDistribution.from_marginals(q))
    without materializing atoms: the greedy order is q descending and the
    prefix coverages have the closed form
    c_j = (1 - prod_{i<=j}(1 - q_(i))) / (1 - prod_i(1 - q_i)).
    """
    q = np.asarray(q, dtype=float)
    if q.ndim != 1:
        raise ValueError("q must be a vector of probabilities")
    order, cum = _label_independent_runs(q[None])
    return GreedySequence(tuple(order[0].tolist()), tuple(cum[0].tolist()))


def _reach(covs: Sequence[float], eta: float) -> tuple[int, float]:
    """Where a coverage curve covs[s] (size s, nondecreasing from covs[0] = 0
    to 1) reaches eta: the first i >= 1 with covs[i] >= eta - 1e-12, and the
    weight t on point i of its mixture with point i - 1 that covers eta,
    clipped to 1, so a mixture falls short of eta by 1e-12 at most."""
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must be in (0, 1]")
    i = next(s for s in range(1, len(covs)) if covs[s] >= eta - _LEVEL_TOL)
    return i, min((eta - covs[i - 1]) / (covs[i] - covs[i - 1]), 1.0)


def set_from_sequence(seq: GreedySequence, eta: float) -> RandomizedSet:
    """The greedy randomized set of a sequence at level eta."""
    j, t = _reach((0.0, *seq.cum_coverage), eta)
    return RandomizedSet(inner=frozenset(seq.order[: j - 1]), outer=frozenset(seq.order[:j]), t=t)


def greedy_set(dist: DiscreteWeakDistribution, eta: float) -> RandomizedSet:
    """Randomized set with P(W meets the realized set) = eta exactly."""
    return set_from_sequence(greedy_sequence(dist), eta)


def nested_score(seq: GreedySequence, y: int, u: float) -> float:
    """Level at which label y enters the realized set for randomness u.

    For y at (1-based) position j in the greedy order this is
    c_{j-1} + u * (c_j - c_{j-1}); membership in the level-eta set is
    (up to a u-null event) the closed comparison score <= eta.
    """
    y = int(y)
    if not 0 <= y < len(seq.order):
        raise ValueError(f"label {y} not in sequence")
    return float(nested_score_vector(seq, u)[y])


def nested_score_vector(seq: GreedySequence, u: float) -> np.ndarray:
    """nested_score for every label at once, indexed by label id."""
    return _entry_levels(np.array([seq.order]), np.array([seq.cum_coverage]), np.array([u]))[0]


def _entry_levels(order: np.ndarray, cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Nested scores of a block of greedy runs, one per row: order (n, k),
    prefix coverages cum (n, k), randomness u (n,). The label at position j
    of row i enters at c_{j-1} + u_i (c_j - c_{j-1}), c_0 = 0; the (n, k)
    result is indexed by label id."""
    cprev = np.concatenate([np.zeros((cum.shape[0], 1)), cum[:, :-1]], axis=1)
    by_pos = cprev + np.asarray(u, dtype=float)[:, None] * (cum - cprev)
    out = np.empty_like(by_pos)
    np.put_along_axis(out, order, by_pos, axis=1)
    return out


def label_independent_nested_scores(q: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Batched nested scores for rows of marginals q (n, k) and shared-
    per-row randomness u (n,); returns an (n, k) score matrix indexed by
    label id. Row semantics match label_independent_sequence."""
    q = np.asarray(q, dtype=float)
    u = np.asarray(u, dtype=float).ravel()
    if q.ndim != 2 or q.shape[0] != u.size:
        raise ValueError("q must be (n, k) with one u per row")
    return _entry_levels(*_label_independent_runs(q), u)


# --- exhaustive optimum ----------------------------------------------------


@dataclass(frozen=True)
class SizeProfile:
    """Optimal coverage-vs-size frontier of a weak-set distribution.

    best_masks[s] is the (smallest-index) coverage-maximizing subset of each
    size s; hull vertices trace the concave majorant of s -> best coverage,
    which is exactly the randomized-optimum frontier (mixing two hull
    vertices is optimal at any target level between them).
    """

    k: int
    best_covs: tuple[float, ...]
    best_masks: tuple[int, ...]
    hull_sizes: tuple[int, ...]
    hull_covs: tuple[float, ...]

    def optimal_value(self, eta: float) -> float:
        """Minimal expected size of any randomized set covering at level eta."""
        return self.optimal_mixture(eta)[0]

    def optimal_mixture(
        self, eta: float
    ) -> tuple[float, tuple[tuple[frozenset[int], float], ...]]:
        """(expected size, mixture of at most two subsets with weights)."""
        i, t = _reach(self.hull_covs, eta)
        s1, s2 = self.hull_sizes[i - 1], self.hull_sizes[i]
        outer = frozenset(_labels_of(self.best_masks[s2]))
        if t == 1.0:
            return float(s2), ((outer, 1.0),)
        inner = frozenset(_labels_of(self.best_masks[s1]))
        return s1 + t * (s2 - s1), ((inner, 1.0 - t), (outer, t))

    def min_cover_size(self, eta: float) -> int:
        """Smallest size of a deterministic subset with coverage >= eta."""
        return _reach(self.best_covs, eta)[0]


def _upper_hull(covs: Sequence[float]) -> list[int]:
    """Vertices x of the concave majorant of the points (x, covs[x]).

    A vertex is dropped unless it lies strictly (by more than 1e-15) above
    the chord of its neighbours.
    """
    hull = [0]
    for s in range(1, len(covs)):
        while len(hull) >= 2:
            s1, s2 = hull[-2], hull[-1]
            lhs = (covs[s2] - covs[s1]) * (s - s2)
            rhs = (covs[s] - covs[s2]) * (s2 - s1)
            if lhs <= rhs + 1e-15:
                hull.pop()
            else:
                break
        hull.append(s)
    return hull


def size_profile(dist: DiscreteWeakDistribution) -> SizeProfile:
    """Exhaustive frontier over all 2^k subsets (k <= 20) in O(k 2^k).

    cov(S) = total - g(complement of S), where g(T) = sum of p_m over the
    atoms m inside T is the subset-sum (zeta) transform, built in place one
    label at a time.
    """
    k = dist.k
    if k > _ENUM_CAP:
        raise ValueError(f"exhaustive enumeration capped at k={_ENUM_CAP}")
    g = np.zeros(1 << k)
    g[np.array(dist.masks, dtype=np.int64)] = dist.probs
    for y in range(k):  # g[T] += g[T minus y] for every T holding y
        half = g.reshape(-1, 2, 1 << y)
        half[:, 1] += half[:, 0]
    cov = math.fsum(dist.probs) - g[::-1]  # mask 2^k - 1 - S is the complement of S
    cov[0] = 0.0  # the empty set covers nothing, without rounding residue
    sizes = np.bitwise_count(np.arange(1 << k))
    best_covs = np.zeros(k + 1)
    best_masks = np.zeros(k + 1, dtype=np.int64)
    for s in range(k + 1):
        idx = np.flatnonzero(sizes == s)
        top = idx[np.argmax(cov[idx])]  # argmax keeps the first (smallest mask)
        best_covs[s] = cov[top]
        best_masks[s] = top
    # enforce monotonicity against float drift, then take the concave majorant
    best_covs = np.maximum.accumulate(best_covs)
    best_covs[k] = 1.0
    hull = _upper_hull(best_covs.tolist())
    return SizeProfile(
        k=k,
        best_covs=tuple(float(c) for c in best_covs),
        best_masks=tuple(int(v) for v in best_masks),
        hull_sizes=tuple(hull),
        hull_covs=tuple(float(best_covs[s]) for s in hull),
    )


def brute_force_optimal(
    dist: DiscreteWeakDistribution, eta: float
) -> tuple[float, tuple[tuple[frozenset[int], float], ...]]:
    """Optimal randomized set at level eta by exhaustive enumeration."""
    return size_profile(dist).optimal_mixture(eta)


# --- greedy suboptimality bound --------------------------------------------


def wolsey_constant(dist: DiscreteWeakDistribution, eta: float) -> float:
    """Curvature constant K of the submodular-cover bound at level eta.

    The outer greedy set size is bounded by (1 + log K) times the smallest
    deterministic set with coverage >= eta. K is the minimum of three terms
    built from the coverage increments delta(C, y) = P(W disjoint from C and
    y in W), read from the cached greedy run; any term with a vanishing
    denominator drops out (+inf). With C_t the first t greedy labels and j
    the outer size: eta / (eta - c_{j-1}); the largest ratio
    delta(empty, y) / delta(C_t, y) over t <= j; and theta_1 / theta_j on the
    coverage truncated at eta, theta_1 = min(max_y delta(empty, y), eta) and
    theta_j = min(max_y delta(C_{j-1}, y), eta - c_{j-1}).
    """
    seq, deltas = dist._greedy
    covs = (0.0, *seq.cum_coverage)
    j, _ = _reach(covs, eta)
    cprev = covs[j - 1]

    term1 = eta / (eta - cprev) if eta - cprev > TOL else math.inf

    live = deltas[: j + 1] > TOL
    ratios = deltas[0] / np.where(live, deltas[: j + 1], 1.0)
    term2 = float(ratios[live].max()) if live.any() else math.inf

    theta_1 = min(float(deltas[0].max()), eta)
    theta_j = min(float(deltas[j - 1].max()), eta - cprev)
    term3 = theta_1 / theta_j if theta_j > TOL else math.inf

    return min(term1, term2, term3)


# --- structure detection ----------------------------------------------------


class Structure(Enum):
    LABEL_INDEPENDENT = "label_independent"
    TREE = "tree"
    GENERAL = "general"


def _is_tree(dist: DiscreteWeakDistribution) -> bool:
    """Laminar support: two atoms meet only when nested, so the atoms that
    hold any one label form a chain, each inside the next larger one."""
    bits = dist._bits[np.argsort(dist._bits.sum(axis=1), kind="stable")]
    for y in range(dist.k):
        chain = bits[bits[:, y]]  # the atoms holding y, smallest first
        if np.any(chain[:-1] & ~chain[1:]):
            return False
    return True


def _is_label_independent(dist: DiscreteWeakDistribution, tol: float) -> bool:
    bits, probs = dist._bits, np.asarray(dist.probs)
    marg = np.clip((bits * probs[:, None]).sum(axis=0), 0.0, 1.0)  # row-order sums
    # Point mass on one singleton is product form with q = indicator.
    if len(dist.masks) == 1 and bin(dist.masks[0]).count("1") == 1:
        return True
    # Solve z = 1 - prod(1 - marg*z) for the nonemptiness normalizer.
    if marg.sum() <= 1.0 + 1e-12:
        return False  # no positive fixed point: not conditioned product form
    lo, hi = 1e-12, 1.0

    def g(z: float) -> float:
        return 1.0 - float(np.prod(1.0 - marg * z)) - z

    if g(lo) <= 0:
        return False
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    z = 0.5 * (lo + hi)
    q = np.clip(marg * z, 0.0, 1.0)
    # Compare implied conditional atom probabilities. Matching the whole
    # support plus total mass 1 pins the off-support mass to ~0, so no
    # full subset enumeration is needed.
    implied = _product_law(np.array(dist.masks, dtype=np.uint64), q)
    return not np.any(np.abs(implied / z - probs) > tol)


def check_structure(dist: DiscreteWeakDistribution, tol: float = 1e-9) -> Structure:
    """Classify the support/probability structure of the distribution.

    LABEL_INDEPENDENT: indicators {y in W} independent (conditioned on W
    nonempty), detected by exact product-form reconstruction within tol.
    TREE: every pair of support atoms is nested or disjoint.
    Greedy sets are size-optimal at every level under either structure.
    """
    if _is_label_independent(dist, tol):
        return Structure.LABEL_INDEPENDENT
    if _is_tree(dist):
        return Structure.TREE
    return Structure.GENERAL


# --- marginal coverage allocation -------------------------------------------


@dataclass(frozen=True)
class MarginalAllocation:
    """Per-x coverage levels meeting a marginal coverage budget."""

    etas: tuple[float, ...]
    expected_sizes: tuple[float, ...]
    total_expected_size: float
    achieved_coverage: float
    hull_projected: tuple[bool, ...] = ()


def marginal_allocation(
    curves: Sequence[Sequence[float]] | Sequence[GreedySequence],
    weights: Sequence[float],
    alpha: float,
) -> MarginalAllocation:
    """Spend a 1 - alpha marginal coverage budget across per-x curves.

    Each curve is the cumulative-coverage sequence (c_1, ..., c_k) of a
    nested set family at x (sizes 1..k); weights are the probabilities of
    the x values. Coverage is bought where it is cheapest per unit of
    expected size (fractional-knapsack on the concave hulls of the curves);
    exactly tied efficiencies are filled proportionally, so identical curves
    receive identical levels. Achieved marginal coverage equals 1 - alpha
    exactly and the total expected size is LP-optimal.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or len(curves) != w.size or w.size == 0:
        raise ValueError("need one weight per curve")
    if np.any(w < -TOL) or abs(w.sum() - 1.0) > 1e-9:
        raise ValueError("weights must be probabilities summing to 1")

    cum_list: list[np.ndarray] = []
    for curve in curves:
        if isinstance(curve, GreedySequence):
            curve = curve.cum_coverage
        c = np.asarray(curve, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("curves must be nonempty coverage sequences")
        if np.any(np.diff(c) < -TOL) or abs(c[-1] - 1.0) > 1e-9:
            raise ValueError("curves must be nondecreasing and end at 1")
        cum_list.append(c)

    # Hull-project each curve: concave majorant of (size, coverage) points.
    segments: dict[float, list[tuple[int, float, float]]] = {}
    projected: list[bool] = []
    for xi, c in enumerate(cum_list):
        pts_c = [0.0] + c.tolist()  # coverage at sizes 0, 1, ..., k
        hull = _upper_hull(pts_c)
        projected.append(len(hull) < len(pts_c))
        for a, b in zip(hull[:-1], hull[1:]):
            dc = pts_c[b] - pts_c[a]
            if dc <= 0:
                continue
            segments.setdefault(dc / (b - a), []).append((xi, dc, float(b - a)))

    budget = 1.0 - alpha
    etas = np.zeros(w.size)
    sizes = np.zeros(w.size)
    spent = 0.0
    for eff in sorted(segments, reverse=True):
        group = segments[eff]
        group_cov = sum(w[xi] * dc for xi, dc, _ in group)
        if group_cov <= 0:
            continue
        take = min(1.0, (budget - spent) / group_cov)
        if take > 0:
            for xi, dc, ds in group:
                etas[xi] += take * dc
                sizes[xi] += take * ds
            spent += take * group_cov
        if spent >= budget - 1e-12:
            break
    if spent < budget - 1e-9:  # pragma: no cover - curves end at 1
        raise AssertionError("allocation failed to meet the coverage budget")

    etas = np.minimum(etas, 1.0)
    return MarginalAllocation(
        etas=tuple(float(v) for v in etas),
        expected_sizes=tuple(float(v) for v in sizes),
        total_expected_size=float(np.dot(w, sizes)),
        achieved_coverage=float(np.dot(w, etas)),
        hull_projected=tuple(projected),
    )
