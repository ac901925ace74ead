"""Ranking scores, the ranking M-best backend, and a ListNet trainer.

A ranking y is a permutation tuple with y[i] the item placed at position i
(position 0 is the top). Scores are pairwise-discordance sums

    score(y) = sum_{i < j} psi(r[y[i]], r[y[j]])

over per-item relevances r, with psi zero on correctly ordered pairs
(first relevance >= second) and positive otherwise. Two psi variants are
provided: plain hinge (b - a)_+ and the top-weighted exp(-c a)(b - a)_+
that concentrates the penalty on mistakes near the top.

Every score in the module is computed one way: the pair terms come from one
table, _pair_terms, and are added left to right over the position pairs
(i, j), i < j, in row-major order. So a ranking emitted by the best-first
search carries exactly the score that rank_score gives it, and lies in the
sublevel set at that score. The relevance-descending ranking scores 0, and
the runner-up within a cell is an adjacent transposition of the cell's best,
which changes only its own pair term: the swap delta prunes the candidates,
and the re-summed score chooses among the rest when the cell reaches the top
of the best-first frontier. Until then the smallest delta bounds it.

The capped sizes of a block of records' level sets (levelset_counts_batch)
equal the best-first search's, and are read off the rankings within a
Kendall distance r of each record's best, widened until they decide it:
either m = min(cap + 1, k!) of them score the search's rounding margin
under a threshold, or an exact lower bound on the rankings outside the
ball shows that none of those lies under it. The per-record search runs
only for a record with a ball score inside the margin band, or one still
undecided once its ball holds over _BALL_RANKINGS rankings.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Sequence

import numpy as np

from .labels import RankingPrefix, _as_int, _as_int_array, _as_permutation, _as_real
from .mbest import _levelset_counts

__all__ = [
    "PsiSpec",
    "rank_score",
    "rank_scores_batch",
    "partial_rank_score",
    "prefix_block_scores",
    "best_ranking",
    "RankingCell",
    "RankingProblem",
    "levelset_counts_batch",
    "relevance_targets",
    "listnet_loss_grad",
    "listnet_train",
    "predict_relevances",
]


@dataclass(frozen=True)
class PsiSpec:
    """Pairwise discordance penalty psi(a, b) for relevances a above b."""

    kind: str = "hinge"
    c: float = 0.0

    def __post_init__(self):
        if self.kind not in ("hinge", "exp_weighted"):
            raise ValueError(f"unknown psi kind {self.kind!r}")
        if not 0.0 <= self.c < math.inf:
            raise ValueError(f"psi parameter 'c' must be finite and nonnegative, got {self.c!r}")

    @classmethod
    def hinge(cls) -> "PsiSpec":
        return cls("hinge")

    @classmethod
    def exp_weighted(cls, c: float) -> "PsiSpec":
        return cls("exp_weighted", float(c))


def _pair_terms(rel: np.ndarray, psi: PsiSpec) -> np.ndarray:
    """P[n, x, y] = psi(r_x, r_y), the cost of item x placed above item y
    under relevance row n: the one definition of psi.

    A term that overflows is inf, and a zero weight times an infinite gap
    is nan; _worst_scores turns either into a ValueError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gap = rel[:, None, :] - rel[:, :, None]  # gap[n, x, y] = r_y - r_x
        penalty = gap if psi.kind == "hinge" else np.exp(-psi.c * rel)[:, :, None] * gap
        return np.where(gap > 0, penalty, 0.0)


@lru_cache(maxsize=64)
def _position_pairs(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The position pairs (i, j), i < j, in row-major order; read-only,
    since every caller shares them."""
    pairs = np.triu_indices(k, k=1)
    for a in pairs:
        a.flags.writeable = False
    return pairs


def _sum_pairs(pairs: np.ndarray, rows: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """Score of ranking perms[m] under the pair table pairs[rows[m]]: its
    terms at position pairs i < j added left to right in row-major order."""
    k = perms.shape[1]
    i, j = _position_pairs(k)
    flat = perms[:, i] * k + perms[:, j]
    flat += (rows * (k * k))[:, None]
    terms = pairs.ravel()[flat.T]  # one row per position pair, in the order of the sum
    total = terms[0].copy()
    for term in terms[1:]:
        total += term
    return total


def _worst_scores(pairs: np.ndarray, rel: np.ndarray) -> np.ndarray:
    """Each row's highest score, that of its relevance-ascending ranking,
    which holds every discordant pair.

    ValueError naming the first row where it is not finite: then some pair
    term or sum overflows, and best-first search cannot order the scores.
    """
    with np.errstate(over="ignore"):
        worst = _sum_pairs(pairs, np.arange(rel.shape[0]), np.argsort(rel, axis=1, kind="stable"))
    bad = np.flatnonzero(~np.isfinite(worst))
    if bad.size:
        raise ValueError(
            f"relevance row {bad[0]}: some ranking's score is not finite: "
            "a pair term or a sum overflows"
        )
    return worst


def _prune_margin(k: int, worst):
    """How far above the smallest swap delta a candidate's delta may lie and
    the candidate still have the smallest re-summed score: four times the
    error bound gamma_{p-1} * sum|t| of a sequential sum of p = k(k-1)/2
    terms (Higham, Accuracy and Stability of Numerical Algorithms, sec. 4.2),
    with the worst score bounding sum|t|.

    It also keys a ranking cell on the best-first frontier: each sum lies
    within a quarter of it of its exact value and a swap delta is exact, so
    best_score + min(deltas) - margin lies at least half of it under the
    re-summed runner-up."""
    return 4 * (k * (k - 1) // 2 + 1) * 2.0**-53 * worst


def _check_relevances(r) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    if r.ndim != 1:
        raise ValueError("relevances must be a one-dimensional vector")
    if r.size < 2 or not np.all(np.isfinite(r)):
        raise ValueError("need at least two finite relevances")
    return r


def rank_score(r, y: Sequence[int], psi: PsiSpec) -> float:
    """Pairwise discordance of ranking y under relevances r: the one-row
    case of rank_scores_batch."""
    r = _check_relevances(r)
    y = _as_permutation(y, r.size)
    return float(rank_scores_batch(r[None], np.array([y]), psi)[0])


def rank_scores_batch(rel: np.ndarray, perms: np.ndarray, psi: PsiSpec) -> np.ndarray:
    """rank_score for each (relevance row, permutation row) pair."""
    rel = np.asarray(rel, dtype=float)
    perms = np.asarray(perms, dtype=int)
    if rel.shape != perms.shape or rel.ndim != 2:
        raise ValueError("rel and perms must both be (n, k)")
    with np.errstate(over="ignore"):  # a sum past the largest float is inf
        return _sum_pairs(_pair_terms(rel, psi), np.arange(rel.shape[0]), perms)


def best_ranking(r) -> tuple[int, ...]:
    """Relevance-descending ranking (ties by item id); scores exactly 0."""
    r = _check_relevances(r)
    return tuple(sorted(range(r.size), key=lambda i: (-r[i], i)))


def partial_rank_score(r, prefix: RankingPrefix, psi: PsiSpec) -> float:
    """min over rankings compatible with the prefix of rank_score: the score
    of the prefix completed as prefix_block_scores completes it."""
    r = _check_relevances(r)
    if prefix.k != r.size:
        raise ValueError("prefix and relevances disagree on k")
    head = list(prefix.items)
    order = np.array([head + [0] * (r.size - len(head))])  # past the prefix: ignored
    return rank_score(r, _complete_prefixes(r[None], order, [len(head)])[0], psi)


def _complete_prefixes(rel, order, lengths) -> np.ndarray:
    """The cheapest completion of each record's prefix, as an (n, k) array.

    Row i keeps the prefix order[i, :lengths[i]] and ranks the remaining
    items relevance-descending, ties by item id. Entries of order past a
    row's prefix are ignored.
    """
    r = np.asarray(rel, dtype=float)
    order = np.asarray(order)
    n, k = r.shape
    position = np.full((n, k), k)  # an item's place in its row's prefix; k off it
    rows, cols = np.nonzero(np.arange(k) < np.asarray(lengths)[:, None])
    position[rows, order[rows, cols]] = cols
    # lexsort is stable, so items equal on both keys stay in id order
    return np.lexsort((-r, position), axis=1)


def prefix_block_scores(
    rel, order, lengths, psi: PsiSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Strong and weak scores of a block of ranking records.

    order is (n, k) with row i the true ranking, of which the first
    lengths[i] items are the revealed prefix. The strong score is
    rank_scores_batch of the truth, the weak score that of the cheapest
    ranking extending the prefix: the remaining items relevance-descending,
    ties by item id. Both are summed in the module's one order. The truth
    extends its own prefix, so the weak score is capped at the strong one:
    the two are different rankings, whose shared pair terms sit at different
    positions of the sum, and under exp weights the completion's sum can
    round a few ulps above the truth's. ValueError, naming the row, when
    some ranking's score is not finite.
    """
    r = np.asarray(rel, dtype=float)
    strong = rank_scores_batch(r, order, psi)
    _worst_scores(_pair_terms(r, psi), r)
    weak = rank_scores_batch(r, _complete_prefixes(r, order, lengths), psi)
    return strong, np.minimum(weak, strong)


# --- partition backend ------------------------------------------------------


class RankingCell:
    """Rankings satisfying a set of 'a placed before b' constraints.

    ``deltas[i]`` is the exact score change of swapping the best ranking's
    items at positions i and i + 1, inf where a constraint forbids the swap.
    ``bound`` is best_score + min(deltas) - margin, a lower bound on the
    runner-up's re-summed score; None when no swap is allowed. The runner-up
    itself (``second``, ``second_score``, ``second_pos``) is re-summed on
    first access, so a cell that never reaches the top of the best-first
    frontier never sums it.
    """

    __slots__ = ("constraints", "best", "best_score", "deltas", "bound", "_problem",
                 "second", "second_score", "second_pos")

    def __init__(self, problem: "RankingProblem", constraints: frozenset[tuple[int, int]],
                 best: tuple[int, ...], best_score: float, deltas: list[float]):
        self.constraints = constraints
        self.best = best
        self.best_score = best_score
        self.deltas = deltas
        low = min(deltas)
        # the margin is taken off the delta first, so near the largest float
        # the bound stays under the worst score and finite
        self.bound = None if low == math.inf else best_score + (low - problem.margin)
        self._problem = problem

    def __getattr__(self, name: str):
        # called only for a slot not yet set: the runner-up's three slots are
        # filled on the first read of any of them
        if name not in ("second", "second_score", "second_pos"):
            raise AttributeError(name)
        self.second, self.second_score, self.second_pos = self._problem._second_best(
            self.best, self.deltas)
        return getattr(self, name)

    def contains(self, y: Sequence[int]) -> bool:
        y = _as_permutation(y, len(self.best))
        pos = {item: i for i, item in enumerate(y)}
        return all(pos[a] < pos[b] for a, b in self.constraints)


class RankingProblem:
    """PartitionProblem over the k! rankings under fixed relevances.

    ValueError when some ranking's score would not be finite, since the
    best-first search cannot order infinite scores. ``margin`` is the
    _prune_margin of the worst score: the runner-up search prunes by it, a
    cell's bound lies at least half of it under the cell's runner-up, and a
    pop lies at most that far above the smallest score not yet emitted.

    A split derives its children's swap deltas from the parent's: the cell
    keeping the parent's best blocks the split position, and the cell around
    the runner-up recomputes the three positions the swap touched.
    """

    def __init__(self, relevances, psi: PsiSpec):
        self.r = _check_relevances(relevances)
        self.k = self.r.size
        self.psi = psi
        pairs = _pair_terms(self.r[None], psi)
        self.margin = float(_prune_margin(self.k, _worst_scores(pairs, self.r[None])[0]))
        self._table = pairs[0].tolist()
        # swap[a][b]: the score change when item a, directly above b, swaps
        # with it; exact, since one of the two pair terms is 0
        self._swap = (pairs[0].T - pairs[0]).tolist()

    def score(self, config: Sequence[int]) -> float:
        return self._sum(_as_permutation(config, self.k))

    def _sum(self, y: Sequence[int]) -> float:
        # _sum_pairs of one ranking as a loop over the same table: the same
        # additions in the same order, so the same float
        total = 0.0
        for i, a in enumerate(y):
            row = self._table[a]
            for b in y[i + 1 :]:
                total += row[b]
        return total

    def _second_best(
        self, best: tuple[int, ...], deltas: list[float]
    ) -> tuple[tuple[int, ...] | None, float | None, int | None]:
        """A cell's runner-up, the adjacent transposition of its best with
        the smallest re-summed score among the allowed swaps, ties going to
        the lowest position. Only the swaps whose delta lies within the
        rounding margin of the smallest delta are re-summed; the others
        cannot hold the minimum. Nones for a singleton cell."""
        low = min(deltas)
        if low == math.inf:
            return None, None, None
        limit = low + self.margin
        found = None
        for i, d in enumerate(deltas):
            if d <= limit:
                y = best[:i] + (best[i + 1], best[i]) + best[i + 2 :]
                s = self._sum(y)
                if found is None or s < found[1]:  # strict: the lowest position wins ties
                    found = (y, s, i)
        return found

    def root(self) -> RankingCell:
        best = best_ranking(self.r)
        swap = self._swap
        deltas = [swap[a][b] for a, b in zip(best, best[1:])]
        return RankingCell(self, frozenset(), best, self.score(best), deltas)

    def split(self, cell: RankingCell) -> tuple[RankingCell, RankingCell]:
        if cell.second is None or cell.second_pos is None:
            raise ValueError("cannot split a cell without a second-best")
        i = cell.second_pos
        best, second = cell.best, cell.second
        a, b = best[i], best[i + 1]
        kept = cell.deltas.copy()
        kept[i] = math.inf
        keep = RankingCell(self, cell.constraints | {(a, b)}, best, cell.best_score, kept)
        # second places b directly above a, which the new constraint fixes;
        # only the pairs beside it differ from the parent's
        moved = kept.copy()
        for j in (i - 1, i + 1):
            if 0 <= j < self.k - 1:
                x, z = second[j], second[j + 1]
                moved[j] = math.inf if (x, z) in cell.constraints else self._swap[x][z]
        return keep, RankingCell(self, cell.constraints | {(b, a)}, second, cell.second_score, moved)


# --- level-set counts from Kendall balls -------------------------------------

# rankings per chunk of the Kendall ball's scores: bounds their index and term
# arrays (about 0.7 MB each at k = 7); a record the ball of this size leaves
# undecided goes to the best-first search
_BALL_RANKINGS = 4096


def _ball_radius(k: int, m: int) -> int:
    """The smallest r such that at least m permutations of k positions have
    at most r inversions (m <= k!): from the counts of permutations by
    inversion number, the coefficients of prod_{s <= k} (1 + x + ... + x^(s-1))."""
    counts = [1]
    for s in range(2, k + 1):
        prefix = [0, *accumulate(counts)]
        counts = [prefix[min(d + 1, len(counts))] - prefix[max(d + 1 - s, 0)]
                  for d in range(len(counts) + s - 1)]
    return next(r for r, total in enumerate(accumulate(counts)) if total >= m)


@lru_cache(maxsize=64)
def _kendall_ball(k: int, m: int) -> np.ndarray:
    """The permutations q of k positions with at most r inversions, for the
    smallest r whose ball holds at least m of them: q applied to a ranking y
    as y[q] lies within Kendall distance r of y. One row per permutation;
    read-only, since every caller shares it.

    Decoded from the inversion vectors (Lehmer codes) c, 0 <= c[i] <= k-1-i,
    whose entries sum to at most r, so no permutation outside the ball is
    visited: q[i] is the c[i]-th smallest position that q[:i] leaves.
    """
    r = _ball_radius(k, m)
    ball = np.zeros((1, 0), dtype=np.intp)
    for i in range(k):  # append c[i] to every code with room left
        room = r - ball.sum(axis=1)
        ball = np.concatenate([
            np.column_stack([ball[room >= v], np.full(np.count_nonzero(room >= v), v)])
            for v in range(min(k - 1 - i, r) + 1)
        ])
    for i in range(k - 2, -1, -1):  # decode from the right: q[i] = c[i] shifts the later entries
        ball[:, i + 1 :] += ball[:, i + 1 :] >= ball[:, i, None]
    ball.flags.writeable = False
    return ball


def _outside_bound(pairs, root, rows, r: int) -> np.ndarray:
    """For each record in rows, a lower bound on the exact score of every
    ranking more than r inversions from its root; +inf when there is none.

    A ranking scores the cost of each pair the root orders that it places
    the wrong way round, and 0 for the others; with more than r of them, at
    least the sum of the r + 1 smallest costs. The costs are nonnegative, so
    the float bound lies within _prune_margin / 4 of the exact one.
    """
    i, j = _position_pairs(root.shape[1])
    if r >= i.size:
        return np.full(rows.size, np.inf)
    wrong = pairs[rows[:, None], root[rows][:, j], root[rows][:, i]]
    return np.partition(wrong, r, axis=1)[:, : r + 1].sum(axis=1)


def _ball_counts(pairs, root, ball, rows, t, margin) -> tuple[np.ndarray, np.ndarray]:
    """Per record in rows and threshold: how many rankings of the ball
    around the record's root score <= t - margin, and whether one scores in
    (t - margin, t]. In blocks of about _BALL_RANKINGS rankings."""
    limits = np.hstack([t - margin[rows, None], np.broadcast_to(t, (rows.size, t.size))])
    counts = np.empty(limits.shape, dtype=np.int64)
    step = max(1, _BALL_RANKINGS // len(ball))  # records per block
    for start in range(0, rows.size, step):
        block, at = rows[start : start + step], slice(start, start + step)
        perms = root[block][:, ball].reshape(-1, root.shape[1])
        scores = _sum_pairs(pairs, block.repeat(len(ball)), perms).reshape(len(block), -1, 1)
        counts[at] = (scores <= limits[at, None]).sum(axis=1)
    below = counts[:, : t.size]
    return below, counts[:, t.size :] > below


def levelset_counts_batch(
    rel, psi: PsiSpec, thresholds: Sequence[float], cap: int
) -> tuple[np.ndarray, np.ndarray]:
    """Capped sizes of the sublevel sets {y : rank_score(row, y) <= t}.

    One row of rel per record, one column of the results per threshold.
    Equal to a best-first enumeration of each RankingProblem up to
    m = min(cap + 1, k!) configurations: counts holds min(size, cap), and
    flags marks the sizes above cap. ValueError, naming the row, when some
    ranking's score is not finite.

    The enumeration's count at t is the number of configurations it emits
    before the first that scores above t, at most m. A pop exceeds the
    smallest score not yet emitted by at most the record's _prune_margin.
    A record is decided from a Kendall ball around its root (_kendall_ball),
    scored by _sum_pairs as the search scores it. Let b be the number of
    ball rankings at or under t - margin.
      - If b >= m, each of the first m pops has one of them still unemitted
        and so scores <= t: the count is m.
      - Otherwise, if no ball ranking scores in (t - margin, t] and the
        _outside_bound for the ball's radius exceeds t + margin, every
        other ranking scores above t (one outside the ball scores at least
        that bound less margin / 2). So while one of the b is not yet
        emitted, a pop scores <= t and is one of them, and once all are
        emitted, a pop scores above t: the count is b.
    A record left undecided moves to a ball of twice the rankings, up to
    the whole space, where the bound is +inf. The per-record search counts
    one with a band score and b < m, or left by the whole space or a ball
    of over _BALL_RANKINGS rankings.
    """
    r = np.asarray(rel, dtype=float)
    if r.ndim != 2 or r.shape[1] < 2 or not np.all(np.isfinite(r)):
        raise ValueError("rel must be (n, k) with k >= 2 finite relevances per row")
    if _as_int(cap, "cap") < 1:
        raise ValueError("cap must be >= 1")
    t = np.asarray(thresholds, dtype=float).ravel()
    pairs = _pair_terms(r, psi)
    margin = _prune_margin(r.shape[1], _worst_scores(pairs, r))
    n, k = r.shape
    m = min(cap + 1, math.factorial(k))  # a record has k! rankings to count
    root = np.argsort(-r, axis=1, kind="stable")  # the search's root, which scores 0
    exact = np.full((n, t.size), m, dtype=np.int64)
    rows, size = np.arange(n), m
    while rows.size:
        ball = _kendall_ball(k, size)
        below, band = _ball_counts(pairs, root, ball, rows, t, margin)
        left = (below < m).any(axis=1)  # the others keep m at every threshold
        rows, below, band = rows[left], below[left], band[left]
        outside = _outside_bound(pairs, root, rows, _ball_radius(k, len(ball)))
        decided = (below >= m) | (~band & (outside[:, None] > t + margin[rows, None]))
        done = decided.all(axis=1)
        exact[rows[done]] = np.minimum(below[done], m)
        size = min(2 * len(ball), math.factorial(k))
        last = len(ball) > _BALL_RANKINGS or size == len(ball)
        search = ~done & (last | ((below < m) & band).any(axis=1))
        for i in rows[search]:  # min(size, cap) + (size > cap): the size capped at m
            exact[i] = sum(_levelset_counts(RankingProblem(r[i], psi), t, cap))
        rows = rows[~done & ~search]
    return np.minimum(exact, cap), exact > cap


# --- trainers ------------------------------------------------------------------
#
# _softmax, _feature_rows, _training_rows, _descend, _exp_columns and
# _column_gradient also serve the label trainers and predictions in synth. Each trainer takes
# gradient steps alone and returns its weights. Each loss has one gradient
# function, which its public loss-and-gradient function and its trainer's
# gradient steps share.
#
# The gradient functions take their logits as a (k, n) block, one row per label
# or item and one column per record: w @ x.T, and not x @ w.T. numpy's per-row
# reductions are slow on rows of a few logits; on the (k, n) block the softmax's
# max and sum over each record's logits become k long elementwise passes. Every
# value is the one the (n, k) layout gives: w @ x.T is (x @ w.T).T bit for bit,
# a max is exact in any order, _column_sums adds each column in the order
# numpy's sum(axis=1) adds a row, and the gradient (x.T @ d.T).T is the BLAS
# call that d.T @ x makes on the (n, k) block d. The public functions sum their
# losses over a C-ordered (n, k) copy, so that they add in the row layout's
# order; the trainers make no such copy.


def _row_max(z: np.ndarray) -> np.ndarray:
    """z.max(axis=1, keepdims=True), taken column by column with np.maximum:
    a max is exact in any order, and on rows of a few logits this is several
    times faster than the reduction."""
    top = z[:, 0].copy()
    for j in range(1, z.shape[1]):
        np.maximum(top, z[:, j], out=top)
    return top[:, None]


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - _row_max(z)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


# numpy's pairwise sum adds up to this many entries with eight accumulators
_PAIRWISE_BLOCK = 128


def _column_sums(e: np.ndarray) -> np.ndarray:
    """e.sum(axis=0) of a (k, n) block, each column added in the order numpy's
    sum(axis=1) adds a row of k (np.add.reduce's pairwise sum, from 0.0), so
    the sums are ascontiguousarray(e.T).sum(axis=1) bit for bit, the sign of
    zero included; only the sign and payload of a NaN may differ.

    Fewer than 8 entries are added in sequence. Up to _PAIRWISE_BLOCK, entry i
    goes to accumulator i mod 8 up to the last multiple of 8, the accumulators
    are combined as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), and the
    rest are added in sequence. A longer column is summed as two halves, the
    first a multiple of 8 entries long.
    """
    k = len(e)
    if k > _PAIRWISE_BLOCK:
        half = k // 2 - k // 2 % 8
        return _column_sums(e[:half]) + _column_sums(e[half:])
    if k < 8:
        total, whole = e[0].copy(), 1
    else:
        whole = k - k % 8
        r = e[:8] if whole == 8 else e[:8] + e[8:16]
        for i in range(16, whole, 8):
            r += e[i:i + 8]
        total = r[0] + r[1]
        total += r[2] + r[3]
        right = r[4] + r[5]
        right += r[6] + r[7]
        total += right
    for row in e[whole:]:
        total += row
    total += 0.0  # the reduction starts from 0.0, so a sum of -0.0 entries is 0.0
    return total


def _exp_columns(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pieces of a softmax over each column of the (k, n) logits z: z less
    its column max (z itself, shifted in place), the exponential of that, and
    the exponential's column sums."""
    z -= np.maximum.reduce(z, axis=0)
    e = np.exp(z)
    return z, e, _column_sums(e)


def _column_gradient(d: np.ndarray, x: np.ndarray) -> np.ndarray:
    """d.T @ x / n for the (k, n) residuals d of the (n, d) rows x: the (k, d)
    gradient of a mean loss over linear scorers."""
    return (x.T @ d.T).T / x.shape[0]


def _feature_rows(x) -> np.ndarray:
    """x as an (n, d) float array of finite features, or ValueError when it is
    not one."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"x must be an (n, d) array of features, not of shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("x must hold finite features only")
    return x


def _training_rows(x) -> np.ndarray:
    """_feature_rows(x), or ValueError when the training block is empty."""
    x = _feature_rows(x)
    if len(x) == 0:
        raise ValueError("the training block is empty: there is nothing to fit")
    return x


def _descend(grad, weights: np.ndarray, epochs: int, lr: float) -> np.ndarray:
    """Full-batch gradient descent: epochs steps of weights -= lr * grad(weights).
    Returns the final weights; ValueError for epochs < 0 or an lr that is not a
    finite number > 0."""
    if _as_int(epochs, "epochs") < 0:
        raise ValueError(f"epochs must be >= 0, not {epochs}")
    if not 0 < _as_real(lr, "lr") < math.inf:
        raise ValueError(f"lr must be a finite number > 0, not {lr}")
    for _ in range(epochs):
        weights = weights - lr * grad(weights)
    return weights


def relevance_targets(rankings: Sequence[Sequence[int]], k: int) -> np.ndarray:
    """Proxy relevance of each item: k - 1 minus its position in the truth.

    rankings holds one permutation of [0, k) per row (a list of tuples or an
    (n, k) integer array); anything else, floats and booleans included, is a
    ValueError.
    """
    y = _as_int_array(rankings, "a ranked item")
    if y.ndim != 2 or y.shape[1] != k or not np.array_equal(
        np.sort(y, axis=1), np.broadcast_to(np.arange(k), y.shape)
    ):
        raise ValueError(f"not a permutation of [0, {k})")
    out = np.empty(y.shape)
    out[np.arange(y.shape[0])[:, None], y.astype(np.intp)] = np.arange(k - 1, -1, -1)
    return out


def listnet_loss_grad(
    weights: np.ndarray, x: np.ndarray, target_p: np.ndarray
) -> tuple[float, np.ndarray]:
    """Top-1 listwise cross-entropy (mean over records) and its gradient.

    weights is (k, d): per-item linear scorers. target_p rows are the top-1
    choice probabilities induced by the proxy relevances (softmax of
    relevance_targets).
    """
    shifted, e, total = _exp_columns(weights @ x.T)
    logp = np.ascontiguousarray((shifted - np.log(total)).T)
    loss = float(-(target_p * logp).sum() / x.shape[0])
    return loss, _listnet_grad(e, total, x, np.asarray(target_p).T)


def _listnet_grad(
    e: np.ndarray, total: np.ndarray, x: np.ndarray, target: np.ndarray
) -> np.ndarray:
    """listnet_loss_grad's gradient, from the pieces _exp_columns(weights @ x.T)
    gives, and the (k, n) top-1 target probabilities."""
    d = e / total
    d -= target
    return _column_gradient(d, x)


def listnet_train(
    x: np.ndarray,
    rankings: Sequence[Sequence[int]],
    epochs: int = 200,
    lr: float = 0.1,
) -> np.ndarray:
    """Fit per-item linear relevance scorers by full-batch gradient descent.

    Returns the (k, d) weight matrix. Weights start at zero, where the
    predicted top-1 distribution is uniform and the loss is exactly log(k).
    """
    x = _training_rows(x)
    if len(rankings) != x.shape[0]:
        raise ValueError("x must be (n, d) with one ranking per row")
    k = len(rankings[0])
    target = np.ascontiguousarray(_softmax(relevance_targets(rankings, k)).T)

    def grad(w):
        _, e, total = _exp_columns(w @ x.T)
        return _listnet_grad(e, total, x, target)

    return _descend(grad, np.zeros((k, x.shape[1])), epochs, lr)


def predict_relevances(weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-item relevance scores, one row per record. ValueError when x is not
    an (n, d) array of finite features."""
    return _feature_rows(x) @ np.asarray(weights, dtype=float).T
