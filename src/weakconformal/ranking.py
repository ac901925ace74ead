"""Ranking scores, the ranking M-best backend, and a ListNet trainer.

A ranking y is a permutation tuple with y[i] the item placed at position i
(position 0 is the top). Scores are pairwise-discordance sums

    score(y) = sum_{i < j} psi(r[y[i]], r[y[j]])

over per-item relevances r, with psi zero on correctly ordered pairs
(first relevance >= second) and positive otherwise: the relevance-descending
ranking scores 0 and every adjacent transposition of a ranking changes only
its own pair term, which is what makes the cell-wise second-best an O(k)
scan. Two psi variants are provided: plain hinge (b - a)_+ and the
top-weighted exp(-c a)(b - a)_+ that concentrates the penalty on mistakes
near the top.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .conformal import TOL
from .labels import RankingPrefix, _as_permutation
from .mbest import PartitionError

__all__ = [
    "PsiSpec",
    "rank_score",
    "rank_scores_batch",
    "complete_prefix",
    "partial_rank_score",
    "best_ranking",
    "rescale_relevances",
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
        if self.c < 0:
            raise ValueError("c must be nonnegative")

    @classmethod
    def hinge(cls) -> "PsiSpec":
        return cls("hinge")

    @classmethod
    def exp_weighted(cls, c: float) -> "PsiSpec":
        return cls("exp_weighted", float(c))

    def __call__(self, a: float, b: float) -> float:
        gap = b - a
        if gap <= 0:
            return 0.0
        if self.kind == "hinge":
            return gap
        return math.exp(-self.c * a) * gap

    def top_weights(self, a: np.ndarray) -> np.ndarray:
        if self.kind == "hinge":
            return np.ones_like(a)
        return np.exp(-self.c * a)


def _check_relevances(r) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    if r.ndim != 1:
        raise ValueError("relevances must be a one-dimensional vector")
    if r.size < 2 or not np.all(np.isfinite(r)):
        raise ValueError("need at least two finite relevances")
    return r


def rank_score(r, y: Sequence[int], psi: PsiSpec) -> float:
    """Pairwise discordance of ranking y under relevances r."""
    r = _check_relevances(r)
    y = _as_permutation(y, r.size)
    total = 0.0
    for i in range(len(y)):
        for j in range(i + 1, len(y)):
            total += psi(r[y[i]], r[y[j]])
    return total


def rank_scores_batch(rel: np.ndarray, perms: np.ndarray, psi: PsiSpec) -> np.ndarray:
    """rank_score for each (relevance row, permutation row) pair."""
    rel = np.asarray(rel, dtype=float)
    perms = np.asarray(perms, dtype=int)
    if rel.shape != perms.shape or rel.ndim != 2:
        raise ValueError("rel and perms must both be (n, k)")
    ordered = np.take_along_axis(rel, perms, axis=1)  # relevance by position
    a = ordered[:, :, None]
    b = ordered[:, None, :]
    gaps = np.maximum(b - a, 0.0) * psi.top_weights(a)
    iu = np.triu_indices(rel.shape[1], k=1)
    return gaps[:, iu[0], iu[1]].sum(axis=1)


def best_ranking(r) -> tuple[int, ...]:
    """Relevance-descending ranking (ties by item id); scores exactly 0."""
    r = _check_relevances(r)
    return tuple(sorted(range(r.size), key=lambda i: (-r[i], i)))


def complete_prefix(r, prefix: RankingPrefix) -> tuple[int, ...]:
    """Cheapest ranking starting with the observed prefix: remaining items
    relevance-descending."""
    r = _check_relevances(r)
    if prefix.k != r.size:
        raise ValueError("prefix and relevances disagree on k")
    head = prefix.items
    rest = sorted(set(range(r.size)) - set(head), key=lambda i: (-r[i], i))
    return head + tuple(rest)


def partial_rank_score(r, prefix: RankingPrefix, psi: PsiSpec) -> float:
    """min over rankings compatible with the prefix of rank_score."""
    return rank_score(r, complete_prefix(r, prefix), psi)


def rescale_relevances(raw) -> np.ndarray:
    """Affinely map relevances onto [0, 1] (min to 0, max to 1)."""
    r = np.asarray(raw, dtype=float).ravel()
    if not np.all(np.isfinite(r)):
        raise ValueError("relevances must be finite")
    span = r.max() - r.min()
    if span <= 0:
        raise ValueError("constant relevance vector cannot be rescaled")
    return (r - r.min()) / span


# --- partition backend ------------------------------------------------------


@dataclass(frozen=True)
class RankingCell:
    """Rankings satisfying a set of 'a placed before b' constraints."""

    constraints: frozenset[tuple[int, int]]
    best: tuple[int, ...]
    best_score: float
    second: tuple[int, ...] | None
    second_score: float | None
    second_pos: int | None

    def contains(self, y: Sequence[int]) -> bool:
        pos = {item: i for i, item in enumerate(y)}
        return all(pos[a] < pos[b] for a, b in self.constraints)


class RankingProblem:
    """PartitionProblem over the k! rankings under fixed relevances."""

    def __init__(self, relevances, psi: PsiSpec):
        self.r = _check_relevances(relevances)
        self.k = self.r.size
        self.psi = psi

    def score(self, config: Sequence[int]) -> float:
        return rank_score(self.r, config, self.psi)

    def _second_best(
        self,
        constraints: frozenset[tuple[int, int]],
        best: tuple[int, ...],
        best_score: float,
    ) -> tuple[tuple[int, ...] | None, float | None, int | None]:
        # In-cell runner-up is always an adjacent transposition of the best.
        r, psi = self.r, self.psi
        cand: tuple[int, ...] | None = None
        cand_score = math.inf
        cand_pos: int | None = None
        for i in range(self.k - 1):
            a, b = best[i], best[i + 1]
            if (a, b) in constraints:
                continue
            delta = psi(r[b], r[a]) - psi(r[a], r[b])
            s = best_score + delta
            if s < cand_score:
                cand = best[:i] + (b, a) + best[i + 2 :]
                cand_score = s
                cand_pos = i
        if cand is None:
            return None, None, None
        return cand, cand_score, cand_pos

    def _cell(
        self,
        constraints: frozenset[tuple[int, int]],
        best: tuple[int, ...],
        best_score: float,
    ) -> RankingCell:
        second, second_score, pos = self._second_best(constraints, best, best_score)
        return RankingCell(
            constraints=constraints,
            best=best,
            best_score=best_score,
            second=second,
            second_score=second_score,
            second_pos=pos,
        )

    def root(self) -> RankingCell:
        best = best_ranking(self.r)
        return self._cell(frozenset(), best, rank_score(self.r, best, self.psi))

    def split(self, cell: RankingCell) -> tuple[RankingCell, RankingCell]:
        if cell.second is None or cell.second_pos is None:
            raise ValueError("cannot split a cell without a second-best")
        i = cell.second_pos
        a, b = cell.best[i], cell.best[i + 1]
        keep = self._cell(
            cell.constraints | {(a, b)}, cell.best, cell.best_score
        )
        moved = self._cell(
            cell.constraints | {(b, a)}, cell.second, cell.second_score
        )
        return keep, moved


# --- lockstep level-set counts -------------------------------------------------

# records per lockstep block: bounds the cell arrays (about 0.4 MB at k = 7, cap 20)
_LOCKSTEP_ROWS = 128


def _swap_deltas(r: np.ndarray, psi: PsiSpec) -> np.ndarray:
    """d[n, a, b] = psi(r_b, r_a) - psi(r_a, r_b): the score change when item
    a, directly above b, swaps with it. Same float arithmetic as
    PsiSpec.__call__; the exp weights come from math.exp because np.exp can
    differ from it in the last bit."""
    gap = r[:, None, :] - r[:, :, None]  # gap[n, x, y] = r_y - r_x
    if psi.kind == "hinge":
        penalty = gap
    else:
        weights = [math.exp(-psi.c * v) for v in r.ravel().tolist()]
        penalty = np.reshape(weights, r.shape)[:, :, None] * gap
    pair = np.where(gap > 0, penalty, 0.0)  # pair[n, x, y] = psi(r_x, r_y)
    return pair.transpose(0, 2, 1) - pair


def _lockstep_counts(r: np.ndarray, psi: PsiSpec, t: np.ndarray, m: int) -> np.ndarray:
    """For each row of r and each threshold, how many of the first m
    configurations that Enumerator(RankingProblem(row, psi)) emits score <= t.

    Every record runs the enumerator's best-first search at once: each step
    pops, per record, the cell with the smallest (second_score, creation
    order), emits its second-best and splits the cell as RankingProblem.split
    does. A cell is its best ranking, that ranking's score, its second-best
    and a boolean precedence matrix prec[a, b] for "a placed before b". A
    record stops once all thresholds lie below its last score, after m
    configurations, or when its space is exhausted.
    """
    n, k = r.shape
    delta = _swap_deltas(r, psi)
    best = np.zeros((n, m, k), dtype=np.intp)
    base = np.zeros((n, m))  # score of each cell's best
    second = np.full((n, m), np.inf)  # inf: no second-best, or no cell
    second_pos = np.zeros((n, m), dtype=np.intp)
    prec = np.zeros((n, m, k, k), dtype=bool)
    order = np.zeros((n, m), dtype=np.int64)
    cells = np.ones(n, dtype=np.intp)
    created = np.ones(n, dtype=np.int64)  # Enumerator._counter

    def fill_second(rr: np.ndarray, slots: np.ndarray) -> None:
        # the cheapest adjacent transposition the cell's constraints allow,
        # lowest position first among equal scores (RankingProblem._second_best)
        cur = best[rr, slots]
        above, below = cur[:, :-1], cur[:, 1:]
        scores = base[rr, slots][:, None] + delta[rr[:, None], above, below]
        scores[prec[rr[:, None], slots[:, None], above, below]] = np.inf
        pos = scores.argmin(axis=1)
        second[rr, slots] = scores[np.arange(rr.size), pos]
        second_pos[rr, slots] = pos

    # the root's best is the relevance-descending ranking, which scores 0
    best[:, 0] = np.argsort(-r, axis=1, kind="stable")
    fill_second(np.arange(n), np.zeros(n, dtype=np.intp))
    last = np.zeros(n)
    inside = last[:, None] <= t[None, :]
    counts = inside.astype(np.int64)
    emitted = np.ones(n, dtype=np.intp)
    live = inside.any(axis=1) & (emitted < m)
    while live.any():
        rr = np.flatnonzero(live)
        sec = second[rr]
        low = sec.min(axis=1)
        done = np.isinf(low)  # exhausted spaces
        live[rr[done]] = False
        rr, sec, low = rr[~done], sec[~done], low[~done]
        if np.any(low < last[rr] - TOL):
            raise PartitionError(
                "second-best score below last emitted score: ranking cells "
                "do not partition the space"
            )
        slot = np.where(sec == low[:, None], order[rr], np.iinfo(np.int64).max).argmin(axis=1)
        inside[rr] &= low[:, None] <= t[None, :]
        counts[rr] += inside[rr]
        last[rr] = low
        emitted[rr] += 1
        go = inside[rr].any(axis=1) & (emitted[rr] < m)
        live[rr[~go]] = False
        rr, slot, low = rr[go], slot[go], low[go]
        # split: the kept cell holds a above b, the moved cell b above a
        pos = second_pos[rr, slot]
        a, b = best[rr, slot, pos], best[rr, slot, pos + 1]
        new = cells[rr]
        best[rr, new] = best[rr, slot]
        best[rr, new, pos], best[rr, new, pos + 1] = b, a
        base[rr, new] = low
        prec[rr, new] = prec[rr, slot]
        prec[rr, new, b, a] = True
        prec[rr, slot, a, b] = True
        order[rr, new] = created[rr]
        created[rr] += 1
        cells[rr] += 1
        fill_second(np.concatenate([rr, rr]), np.concatenate([slot, new]))
    return counts


def levelset_counts_batch(
    rel, psi: PsiSpec, thresholds: Sequence[float], cap: int
) -> tuple[np.ndarray, np.ndarray]:
    """Capped sizes of the sublevel sets {y : rank_score(row, y) <= t}.

    One row of rel per record, one column of the results per threshold.
    Equal to a best-first enumeration of each RankingProblem up to cap + 1
    configurations: counts holds min(size, cap), and flags marks the sizes
    above cap. The search runs in lockstep across records, in blocks.
    """
    r = np.asarray(rel, dtype=float)
    if r.ndim != 2 or r.shape[1] < 2 or not np.all(np.isfinite(r)):
        raise ValueError("rel must be (n, k) with k >= 2 finite relevances per row")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    t = np.asarray(thresholds, dtype=float).ravel()
    exact = np.zeros((r.shape[0], t.size), dtype=np.int64)
    for start in range(0, r.shape[0], _LOCKSTEP_ROWS):
        block = slice(start, start + _LOCKSTEP_ROWS)
        exact[block] = _lockstep_counts(r[block], psi, t, cap + 1)
    return np.minimum(exact, cap), exact > cap


# --- ListNet trainer ---------------------------------------------------------


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def relevance_targets(rankings: Sequence[Sequence[int]], k: int) -> np.ndarray:
    """Proxy relevance of each item: k - 1 minus its position in the truth."""
    out = np.empty((len(rankings), k))
    for i, y in enumerate(rankings):
        y = _as_permutation(y, k)
        for pos, item in enumerate(y):
            out[i, item] = k - 1 - pos
    return out


def listnet_loss_grad(
    weights: np.ndarray, x: np.ndarray, target_p: np.ndarray
) -> tuple[float, np.ndarray]:
    """Top-1 listwise cross-entropy (mean over records) and its gradient.

    weights is (k, d): per-item linear scorers. target_p rows are the top-1
    choice probabilities induced by the proxy relevances (softmax of
    relevance_targets).
    """
    n = x.shape[0]
    scores = x @ weights.T
    shifted = scores - scores.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logz
    loss = float(-(target_p * logp).sum() / n)
    grad = (_softmax(scores) - target_p).T @ x / n
    return loss, grad


def listnet_train(
    x: np.ndarray,
    rankings: Sequence[Sequence[int]],
    epochs: int = 200,
    lr: float = 0.1,
) -> tuple[np.ndarray, list[float]]:
    """Fit per-item linear relevance scorers by full-batch gradient descent.

    Returns the (k, d) weight matrix and the loss trace (initial loss
    first, so the trace has epochs + 1 entries). Weights start at zero,
    where the predicted top-1 distribution is uniform and the loss is
    exactly log(k).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or len(rankings) != x.shape[0]:
        raise ValueError("x must be (n, d) with one ranking per row")
    k = len(rankings[0])
    target_p = _softmax(relevance_targets(rankings, k))
    weights = np.zeros((k, x.shape[1]))
    losses = []
    for _ in range(epochs):
        loss, grad = listnet_loss_grad(weights, x, target_p)
        losses.append(loss)
        weights = weights - lr * grad
    losses.append(listnet_loss_grad(weights, x, target_p)[0])
    return weights, losses


def predict_relevances(weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-item relevance scores, one row per record."""
    return np.asarray(x, dtype=float) @ np.asarray(weights, dtype=float).T
