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

The tools run on arrays. A distribution is two read-only arrays, its masks
(uint64, so k = 64 fits) and probabilities, and caches its (atoms, k) bit
matrix and its greedy run, whose table of coverage increments after each
prefix serves ``greedy_set`` and ``wolsey_constant`` at every level; column
sums add atoms in row order, as a loop over the atoms would.
``size_profile`` takes each subset's coverage as total - g(complement), g the
subset-sum (zeta) transform: O(k 2^k) time, O(2^k) memory. Its first six
passes run on the array transposed, so that they add long rows, and one
cached order of all 2^k masks by size (int32, one per k) replaces a scan per
size. ``marginal_allocation`` stacks the curves by length, takes each hull
with the loop ``size_profile`` uses, and groups the hull segments of all
curves by exact efficiency at once; every sum keeps the order of a loop over
the segments. ``wolsey_constant`` takes Wolsey's terms on the coverage
truncated at eta, min(cov(S), eta), as his theorem states them (1982).
"""
from __future__ import annotations

import json
import math
import mmap
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

from .conformal import TOL
from .labels import _as_int, _as_real

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


def _mask_of(labels: Iterable[int], k: int, what: str = "label") -> int:
    mask = 0
    for v in labels:
        v = _as_int(v, what)
        if not 0 <= v < k:
            raise ValueError(f"{what} {v} out of range for k={k}")
        bit = 1 << v
        if mask & bit:
            raise ValueError("duplicate label in atom")
        mask |= bit
    return mask


def _labels_of(mask: int) -> tuple[int, ...]:
    return tuple(y for y in range(mask.bit_length()) if (mask >> y) & 1)


@dataclass(frozen=True, eq=False)
class DiscreteWeakDistribution:
    """Distribution of a nonempty random subset of {0, ..., k-1}.

    Atoms are two read-only arrays, the masks as uint64 bitmasks (k <= 64,
    so label 63 fits) and their probabilities; masks must be distinct and
    nonzero, probabilities finite, nonnegative and summing to 1 within 1e-9.
    A sequence that is not an integer (float) array is checked entry by
    entry: 1.5 or true is no mask, "0.5" no probability.
    """

    k: int
    masks: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        k = _as_int(self.k, "k")
        if not 1 <= k <= 64:
            raise ValueError("k must be in [1, 64]")
        masks, probs = self.masks, self.probs
        if not (isinstance(masks, np.ndarray) and masks.dtype.kind in "iu"):
            masks = [_as_int(v, f"atom {i}'s mask") for i, v in enumerate(masks)]
        if not (isinstance(probs, np.ndarray) and probs.dtype.kind == "f"):
            probs = [_as_real(v, f"atom {i}'s probability") for i, v in enumerate(probs)]
        p = np.array(probs, dtype=float)
        if getattr(masks, "ndim", 1) != 1 or p.shape != (len(masks),) or not p.size:
            raise ValueError("need matching, nonempty masks and probs")
        ends = (min(masks), max(masks)) if isinstance(masks, list) else (masks.min(), masks.max())
        if ends[0] < 1 or ends[1] >= 1 << k:  # before uint64 could wrap a negative round
            raise ValueError("atoms must be nonempty subsets of the label space")
        m = np.array(masks, dtype=np.uint64)
        sorted_masks = np.sort(m)
        if np.any(sorted_masks[1:] == sorted_masks[:-1]):
            raise ValueError("atom masks must be distinct")
        bad = np.flatnonzero(~np.isfinite(p))
        if bad.size:
            raise ValueError(f"atom {bad[0]} has a non-finite probability {p[bad[0]]}")
        if np.any(p < -TOL):
            raise ValueError("atom probabilities must be nonnegative")
        if abs(np.cumsum(p)[-1] - 1.0) > 1e-9:  # summed left to right, as a loop adds
            raise ValueError(f"atom probabilities sum to {float(np.cumsum(p)[-1])}, not 1")
        p[p < 0.0] = 0.0  # -0.0 stays
        m.flags.writeable = p.flags.writeable = False
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "masks", m)
        object.__setattr__(self, "probs", p)

    def _value(self) -> tuple:
        return self.k, self.masks.tobytes(), (self.probs + 0.0).tobytes()  # -0.0 as 0.0

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._value() == other._value()

    def __hash__(self):
        return hash(self._value())

    @classmethod
    def from_sets(
        cls, k: int, atoms: Iterable[tuple[Iterable[int], float]]
    ) -> "DiscreteWeakDistribution":
        atoms = list(atoms)
        masks = [_mask_of(labels, k, f"atom {i}'s label") for i, (labels, _) in enumerate(atoms)]
        return cls(k, masks, [p for _, p in atoms])

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
        masks = np.arange(1, 1 << k, dtype=np.uint64)
        p = _product_law(masks, q)
        keep = p > 0.0
        return cls(k, masks[keep], p[keep] / z)

    @cached_property
    def _bits(self) -> np.ndarray:
        """(atoms, k) bool matrix; row i holds the labels of atom i."""
        shifts = np.arange(self.k, dtype=np.uint64)
        return ((self.masks[:, None] >> shifts) & np.uint64(1)) == 1

    @cached_property
    def _greedy(self) -> tuple["GreedySequence", np.ndarray]:
        return _greedy_run(self)

    def atom_sets(self) -> list[tuple[tuple[int, ...], float]]:
        return [(_labels_of(m), p) for m, p in zip(self.masks.tolist(), self.probs.tolist())]

    def coverage(self, labels: Iterable[int]) -> float:
        """P(W intersects the given set)."""
        hit = (self.masks & np.uint64(_mask_of(labels, self.k))) != 0
        total = 0.0  # left to right: builtin sum compensates on Python >= 3.12
        for p in self.probs[hit].tolist():
            total += p
        return total

    def to_json(self) -> str:
        atoms = [{"set": list(s), "p": p} for s, p in self.atom_sets()]
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
        """outer when u < t, else inner; ValueError for u outside [0, 1] or NaN."""
        if not 0.0 <= u <= 1.0:
            raise ValueError("randomness u must lie in [0, 1]")
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
    weighted = bits * dist.probs[:, None]
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
    result is indexed by label id. ValueError for a u outside [0, 1] or NaN."""
    u = np.asarray(u, dtype=float)
    if not np.all((u >= 0) & (u <= 1)):  # NaN fails both
        raise ValueError("randomness u must lie in [0, 1]")
    cprev = np.concatenate([np.zeros((cum.shape[0], 1)), cum[:, :-1]], axis=1)
    by_pos = cprev + u[:, None] * (cum - cprev)
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


_LOW_BITS = 6  # labels whose zeta passes run on the transposed array


@lru_cache(maxsize=None)
def _size_groups(k: int) -> tuple[np.ndarray, np.ndarray]:
    """All 2^k masks in one stable order by size, and the offsets of each
    size's group: the masks of size s, ascending, are
    order[offsets[s]:offsets[s + 1]]. Read-only, since every caller shares
    them; int32, at most 4 MB at k = 20.

    The order lives in its own anonymous mmap, off the malloc heap: made
    between two size_profile calls, a heap block that is never freed kept
    the 2^k-float temporaries freed below it resident, about 2 MB more
    peak RSS at k = 18."""
    sizes = np.bitwise_count(np.arange(1 << k, dtype=np.int32))
    order = np.frombuffer(mmap.mmap(-1, 4 << k), dtype=np.int32)
    order[:] = np.argsort(sizes, kind="stable")
    offsets = np.concatenate(([0], np.cumsum(np.bincount(sizes, minlength=k + 1))))
    order.flags.writeable = offsets.flags.writeable = False
    return order, offsets


def _subset_sums(dist: DiscreteWeakDistribution) -> np.ndarray:
    """g[T] = sum of p_m over the atoms m inside T, for every mask T: the
    zeta transform, one pass per label, g[T] += g[T minus y] for every T
    holding y. The first passes run with the low label bits in the row
    index, so each pass adds long contiguous rows, then the array is put
    back in mask order for the rest; every pass adds the same terms in the
    same order either way."""
    k = dist.k
    low = min(k, _LOW_BITS)
    cols = 1 << (k - low)
    m = dist.masks
    t = np.zeros(1 << k)
    t[(m & np.uint64((1 << low) - 1)) * np.uint64(cols) + (m >> np.uint64(low))] = dist.probs
    for y in range(low):
        half = t.reshape(-1, 2, cols << y)
        half[:, 1] += half[:, 0]
    g = t.reshape(1 << low, cols).T.ravel()
    for y in range(low, k):
        half = g.reshape(-1, 2, 1 << y)
        half[:, 1] += half[:, 0]
    return g


def size_profile(dist: DiscreteWeakDistribution) -> SizeProfile:
    """Exhaustive frontier over all 2^k subsets (k <= 20) in O(k 2^k).

    cov(S) = total - g(complement of S), g the subset-sum (zeta) transform.
    The complements of the size-s masks, ascending, are the size-(k - s)
    masks, descending, so one gather of g in the cached size order serves
    every size.
    """
    k = dist.k
    if k > _ENUM_CAP:
        raise ValueError(f"exhaustive enumeration capped at k={_ENUM_CAP}")
    order, offsets = _size_groups(k)
    by_size = _subset_sums(dist)[order]
    total = math.fsum(dist.probs.tolist())  # fsum reads a list faster than an array
    best_covs = np.zeros(k + 1)  # the empty set covers nothing
    best_masks = np.zeros(k + 1, dtype=np.int64)
    for s in range(1, k + 1):
        cov = total - by_size[offsets[k - s]:offsets[k - s + 1]][::-1]
        i = int(np.argmax(cov))  # argmax keeps the first (smallest mask)
        best_covs[s] = cov[i]
        best_masks[s] = order[offsets[s] + i]
    # enforce monotonicity against float drift, then take the concave majorant
    best_covs = np.maximum.accumulate(best_covs)
    best_covs[k] = 1.0
    hull = _upper_hull(best_covs.tolist())
    return SizeProfile(
        k=k,
        best_covs=tuple(best_covs.tolist()),
        best_masks=tuple(best_masks.tolist()),
        hull_sizes=tuple(hull),
        hull_covs=tuple(best_covs[hull].tolist()),
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
    bits, probs = dist._bits, dist.probs
    marg = np.clip((bits * probs[:, None]).sum(axis=0), 0.0, 1.0)  # row-order sums
    # Point mass on one singleton is product form with q = indicator.
    if dist.masks.size == 1 and int(dist.masks[0]).bit_count() == 1:
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
    implied = _product_law(dist.masks, q)
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


_CURVE_PROBLEMS = {
    1: "is not a nonempty coverage sequence",
    2: "holds a non-finite coverage",
    3: "falls below 0",
    4: "must be nondecreasing and end at 1",
}


def _stacked_curves(
    curves: Sequence[Sequence[float]] | Sequence[GreedySequence],
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The curves stacked by length: (curve indices, (m, length) block)
    pairs. Raises ValueError for the first malformed curve."""
    rows = [
        np.asarray(c.cum_coverage if isinstance(c, GreedySequence) else c, dtype=float)
        for c in curves
    ]
    problems = np.zeros(len(rows), dtype=np.int8)
    by_length: dict[int, list[int]] = {}
    for i, c in enumerate(rows):
        if c.ndim != 1 or c.size == 0:
            problems[i] = 1
        else:
            by_length.setdefault(c.size, []).append(i)
    blocks = [(np.array(idx), np.array([rows[i] for i in idx])) for idx in by_length.values()]
    for idx, c in blocks:
        problems[idx] = np.select(
            [
                ~np.isfinite(c).all(axis=1),
                (c < -TOL).any(axis=1),
                (np.diff(c, axis=1) < -TOL).any(axis=1) | (np.abs(c[:, -1] - 1.0) > 1e-9),
            ],
            [2, 3, 4],
        )
    bad = np.flatnonzero(problems)
    if bad.size:
        raise ValueError(f"curve {bad[0]} {_CURVE_PROBLEMS[problems[bad[0]]]}")
    return blocks


def marginal_allocation(
    curves: Sequence[Sequence[float]] | Sequence[GreedySequence],
    weights: Sequence[float],
    alpha: float,
) -> MarginalAllocation:
    """Spend a 1 - alpha marginal coverage budget across per-x curves.

    Each curve is the cumulative-coverage sequence (c_1, ..., c_k) of a
    nested set family at x (sizes 1..k); weights are the probabilities of
    the x values. Coverage is bought where it is cheapest per unit of
    expected size (fractional-knapsack on the concave hulls of the curves,
    Dantzig 1957); exactly tied efficiencies are filled proportionally, so
    identical curves receive identical levels. Achieved marginal coverage
    equals 1 - alpha exactly and the total expected size is LP-optimal.

    The curves are stacked by length, and the hull segments of all of them
    are ordered by descending efficiency, ties in (curve, segment) order.
    Every sum is sequential in that order, as in a loop over the segments:
    a tie group's coverage w_x * dc, the spent budget, and each curve's
    level and size.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or len(curves) != w.size or w.size == 0:
        raise ValueError("need one weight per curve")
    bad = np.flatnonzero(~np.isfinite(w))
    if bad.size:
        raise ValueError(f"weight {bad[0]} is not finite")
    if np.any(w < -TOL) or abs(w.sum() - 1.0) > 1e-9:
        raise ValueError("weights must be probabilities summing to 1")
    blocks = _stacked_curves(curves)

    # Hull segments, row per curve and column per size: the segment from
    # hull vertex a to the next one, b, gains dc = c_b - c_a at size ds = b - a.
    width = max(c.shape[1] for _, c in blocks)
    dc = np.zeros((w.size, width))
    ds = np.zeros((w.size, width))
    projected = np.zeros(w.size, dtype=bool)
    for idx, c in blocks:
        pts = np.concatenate([np.zeros((idx.size, 1)), c], axis=1)  # sizes 0, 1, ..., k
        hulls = [_upper_hull(row) for row in pts.tolist()]
        n_vertices = np.array([len(h) for h in hulls])
        vertex = np.zeros(pts.shape, dtype=bool)
        vertex[np.repeat(np.arange(idx.size), n_vertices), np.concatenate(hulls)] = True
        x = np.arange(pts.shape[1])
        ends = vertex[:, 1:]  # column b - 1 holds the segment that ends at b
        a = np.maximum.accumulate(np.where(vertex, x, 0), axis=1)[:, :-1]  # the vertex before
        dc[idx, : c.shape[1]] = np.where(ends, pts[:, 1:] - np.take_along_axis(pts, a, axis=1), 0)
        ds[idx, : c.shape[1]] = np.where(ends, x[1:] - a, 0)
        projected[idx] = n_vertices < pts.shape[1]

    # Segments in (curve, segment) order, grouped by exact efficiency, the
    # highest first; a group's coverage adds its members in that order.
    flat = np.flatnonzero(dc > 0)
    seg_dc, seg_ds = dc.ravel()[flat], ds.ravel()[flat]
    _, group = np.unique(-(seg_dc / seg_ds), return_inverse=True)
    members = np.argsort(group, kind="stable")
    counts = np.bincount(group)
    starts = np.cumsum(counts) - counts
    terms = (w[flat // width] * seg_dc)[members]
    group_cov = terms[starts]
    for j in range(1, counts.max(initial=1)):
        longer = counts > j
        group_cov[longer] += terms[starts[longer] + j]

    # Fill whole groups while the budget lasts, then the partial one.
    budget = 1.0 - alpha
    kept = np.flatnonzero(group_cov > 0)
    cov = group_cov[kept]
    spent_before = np.concatenate(([0.0], np.cumsum(cov)))  # and after the last
    met = spent_before >= budget - 1e-12
    met[0] = False  # the first group is always bought from
    short = np.append((budget - spent_before[:-1]) / cov < 1.0, True)
    n_whole = int(np.argmax(met | short))
    take = np.zeros(cov.size)
    take[:n_whole] = 1.0
    spent = spent_before[n_whole]
    if not met[n_whole] and n_whole < cov.size:  # the rest buys part of one group
        take[n_whole] = (budget - spent) / cov[n_whole]
        spent += take[n_whole] * cov[n_whole]  # the budget, to rounding
    if spent < budget - 1e-9:  # pragma: no cover - curves end at 1
        raise AssertionError("allocation failed to meet the coverage budget")

    # Each curve's level and size add its segments' shares in segment order.
    share = np.zeros(counts.size)
    share[kept] = take
    seg_take = share[group]
    gained = np.zeros(dc.size)
    gained[flat] = seg_take * seg_dc
    spent_size = np.zeros(ds.size)
    spent_size[flat] = seg_take * seg_ds
    # cumsum adds left to right (np.sum pairwise); np.dot may add a strided
    # array in another order, so it gets a contiguous copy
    etas = np.minimum(np.cumsum(gained.reshape(dc.shape), axis=1)[:, -1], 1.0)
    sizes = np.cumsum(spent_size.reshape(ds.shape), axis=1)[:, -1].copy()
    return MarginalAllocation(
        etas=tuple(etas.tolist()),
        expected_sizes=tuple(sizes.tolist()),
        total_expected_size=float(np.dot(w, sizes)),
        achieved_coverage=float(np.dot(w, etas)),
        hull_projected=tuple(projected.tolist()),
    )
