"""Assignment scores, a Hungarian solver, and the matching M-best backend.

An assignment over k agents/positions is a permutation y with y[u] the
position of agent u; its score is the sum of the chosen cost entries. The
solver is the O(k^3) shortest-augmenting-path Hungarian with row/column
potentials and supports forced pairs (contracted out of the problem) and
forbidden pairs (absent from the solve). The partition backend uses it once
per enumeration: a cell of assignment space is "these pairs forced, those
pairs forbidden", and it carries dual potentials that are optimal for its
best. Its second-best is found by reoptimisation (Murty's method as sped up
by Miller, Stone & Cox and by Pedersen, Nielsen & Andersen): excluding one
edge of the best costs one shortest augmenting path over the reduced costs,
and a Floyd-Warshall closure over the cell's free columns (Floyd 1962)
yields all of them at once, so a whole cell costs O(k^3). Each child cell
starts from its parent's work: it inherits the parent's potentials instead
of solving from scratch, and its free rows, free columns and sub-costs
instead of rebuilding them from its pair sets, and a split resolves both
children in one closure over a stack of two layers. A layer's result is
bit-equal to a closure of that child alone, so the stack changes no output.

Blocks of records go through a DP over sets of columns instead (Bellman
1962; Held & Karp 1962): matching_block_scores takes each record's optimal
and weak totals from it, and matching_levelset_counts counts level sets by
branch and bound on it, its completion bounds exact up to rounding, as in A*
with a perfect heuristic (Hart, Nilsson & Raphael 1968). Above _DP_MAX_K
both work record by record through the solver and the partition backend.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .labels import FormatError, PartialMatching, _as_int, _as_permutation, _finite_floats
from .mbest import PartitionError, _levelset_counts

__all__ = [
    "hungarian",
    "matching_score",
    "partial_matching_score",
    "matching_block_scores",
    "matching_levelset_counts",
    "min_matching_cost",
    "read_cost_csv",
    "MatchingCell",
    "MatchingProblem",
]


def _cost_limit(k: int) -> float:
    """The largest |c| a k x k cost matrix may hold: _as_cost_matrix's M."""
    return sys.float_info.max / (4 * k * (k + 2))


def _as_cost_matrix(costs) -> np.ndarray:
    """costs as a square float matrix; ValueError when it is not one, when
    an entry is not finite, or when some |c| exceeds M = float max / (4k(k + 2)).

    Then every sum stays finite. A total is at most kM. A phase of
    _solve_square moves a potential by at most 2kM (a first step of at least
    -M, then nonnegative ones adding up to an alternating sum of at most
    2k - 1 costs), so the root's potentials lie within 2k^2 M, and the
    reoptimisations of _second_best add at most the rise of the best total,
    2kM. So a reduced cost lies within (4k^2 + 4k + 1)M, a path length, an
    alternating sum less two potentials, within (4k^2 + 6k - 1)M, and the sum
    of two that a closure pivot forms, a walk, within (4k^2 + 8k - 1)M.
    """
    arr = np.asarray(costs, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise ValueError("cost matrix must be square and nonempty")
    if not np.all(np.isfinite(arr)):
        raise ValueError("cost entries must be finite")
    limit = _cost_limit(len(arr))
    if np.abs(arr).max() > limit:
        raise ValueError(
            f"cost entries must lie within +-{limit:.6g} for k = {len(arr)}: larger ones "
            "can overflow an assignment total or the solver's potentials"
        )
    return arr


def _solve_square(
    cost: list[list[float]],
) -> tuple[list[int], list[float], list[float]] | None:
    # Shortest augmenting paths with potentials; rows added in index order,
    # column ties broken by the lowest index. An infinite entry is an absent
    # pair; None when the absent pairs leave no perfect matching. On return
    # cost[i][j] - u[i] - v[j] >= 0, with equality on the assignment.
    n = len(cost)
    inf = math.inf
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    p = [0] * (n + 1)
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [inf] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = inf
            j1 = 0
            row = cost[i0 - 1]
            ui0 = u[i0]
            for j in range(1, n + 1):
                if not used[j]:
                    cur = row[j - 1] - ui0 - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                    if minv[j] < delta:
                        delta = minv[j]
                        j1 = j
            if delta == inf:
                return None
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    assignment = [0] * n
    for j in range(1, n + 1):
        assignment[p[j] - 1] = j - 1
    return assignment, u[1:], v[1:]


def _total(arr: np.ndarray, y: Sequence[int]) -> float:
    # Row-order sum: every score the module reports is summed this way.
    return float(sum(arr[uu, y[uu]] for uu in range(len(y))))


def _check_constraints(
    k: int,
    forced: Iterable[tuple[int, int]],
    forbidden: Iterable[tuple[int, int]],
) -> tuple[dict[int, int], set[tuple[int, int]]]:
    forced_map: dict[int, int] = {}
    used_cols: set[int] = set()
    for uu, vv in forced:
        uu, vv = int(uu), int(vv)
        if not (0 <= uu < k and 0 <= vv < k):
            raise ValueError("forced pair out of range")
        if uu in forced_map or vv in used_cols:
            raise ValueError("forced pairs must be injective")
        forced_map[uu] = vv
        used_cols.add(vv)
    forbidden_set = set()
    for uu, vv in forbidden:
        uu, vv = int(uu), int(vv)
        if not (0 <= uu < k and 0 <= vv < k):
            raise ValueError("forbidden pair out of range")
        forbidden_set.add((uu, vv))
    if any((uu, vv) in forbidden_set for uu, vv in forced_map.items()):
        raise ValueError("a pair cannot be both forced and forbidden")
    return forced_map, forbidden_set


def hungarian(
    costs,
    forced: Iterable[tuple[int, int]] = (),
    forbidden: Iterable[tuple[int, int]] = (),
) -> tuple[tuple[int, ...], float] | None:
    """Minimum-cost perfect matching under pair constraints.

    Forced pairs are contracted out of the matrix; forbidden pairs are
    absent from the solve (infinite cost), so they never compete with
    allowed pairs at any magnitude. Returns (assignment, total cost on the
    original matrix, summed in row order), or None when no assignment
    satisfies the constraints. Inconsistent constraints (non-injective
    forced pairs, a pair both forced and forbidden) raise ValueError.
    """
    arr = _as_cost_matrix(costs)
    k = arr.shape[0]
    forced_map, forbidden_set = _check_constraints(k, forced, forbidden)

    free_rows = [uu for uu in range(k) if uu not in forced_map]
    used_cols = set(forced_map.values())
    free_cols = [vv for vv in range(k) if vv not in used_cols]
    full = [0] * k
    for uu, vv in forced_map.items():
        full[uu] = vv
    if not free_rows:
        return tuple(full), _total(arr, full)

    cost_list = arr[np.ix_(free_rows, free_cols)].tolist()
    row_index = {uu: a for a, uu in enumerate(free_rows)}
    col_index = {vv: b for b, vv in enumerate(free_cols)}
    for uu, vv in forbidden_set:
        if uu in row_index and vv in col_index:
            cost_list[row_index[uu]][col_index[vv]] = math.inf
    solved = _solve_square(cost_list)
    if solved is None:
        return None
    for a, b in enumerate(solved[0]):
        full[free_rows[a]] = free_cols[b]
    return tuple(full), _total(arr, full)


def matching_score(costs, y: Sequence[int]) -> float:
    """Total cost of assignment y on the given matrix, summed in row order
    like every other score of this module."""
    arr = _as_cost_matrix(costs)
    return _total(arr, _as_permutation(y, arr.shape[0]))


def min_matching_cost(costs) -> float:
    """Cost of the best assignment (the translated score's offset)."""
    result = hungarian(costs)
    assert result is not None
    return result[1]


def partial_matching_score(costs, w: PartialMatching) -> float:
    """min over assignments extending the observed pairs of the raw score."""
    arr = _as_cost_matrix(costs)
    if w.k != arr.shape[0]:
        raise ValueError("weak label and cost matrix disagree on k")
    result = hungarian(arr, forced=w.pairs)
    assert result is not None  # no forbidden pairs: always feasible
    return result[1]


# a chunk of records holds a (2^k, records) table of the subset DP of at most
# this many entries (512 records at k = 6), or 16 records if that is more: the
# DP gathers rows of records, which slow down when they get shorter
_TABLE_ENTRIES = 1 << 15

# the subset DP scores and counts a block of matchings up to this k; above it,
# each record goes through Hungarian solves and best-first enumeration
_DP_MAX_K = 12

# a record whose level-set search keeps more than cap + _CROWDED prefixes on
# one row is counted by best-first enumeration instead: only near-ties among
# thousands of assignments get there, and never k <= 7, with at most 7! prefixes
_CROWDED = 5040


def _chunks(n: int, k: int) -> list[slice]:
    """The chunks of a block of n records of k agents."""
    step = max(16, _TABLE_ENTRIES >> k)
    return [slice(start, start + step) for start in range(0, n, step)]


@lru_cache(maxsize=16)
def _subset_levels(k: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """The levels of the subset DP over k columns, one per row u = 0 .. k - 1.

    Level u lists the sets S of u + 1 columns, as bitmasks in increasing
    order, and for each its u + 1 ways in: prev, S less column v, and cols,
    that v, for v ascending. Its table holds those columns in row S, zeros in
    the rows of other sizes. Read-only, since every caller shares them.
    """
    masks = np.arange(1 << k)
    bits = (masks[:, None] >> np.arange(k)) & 1
    size = bits.sum(axis=1)
    levels = []
    for u in range(k):
        sets = np.flatnonzero(size == u + 1)
        table = np.zeros((1 << k, u + 1), dtype=np.intp)
        table[sets] = np.nonzero(bits[sets])[1].reshape(len(sets), u + 1)
        cols = table[sets]
        prev = sets[:, None] ^ (1 << cols)
        for a in (sets, prev, cols, table):
            a.flags.writeable = False
        levels.append((sets, prev, cols, table))
    return tuple(levels)


def _subset_dp(costs: np.ndarray) -> np.ndarray:
    """Each record's cheapest partial totals, by a DP over sets of columns:
    entry [S, i] of the (2^k, n) result, S a bitmask, is record i's smallest
    row-order total of rows 0 .. |S| - 1 over the columns in S, and
    best[S] = min over v in S of best[S - {v}] + c[|S| - 1, v].

    The DP adds a total's entries in row order, as _total does, and float
    addition is monotone, so fl(min(a, b) + c) = min(fl(a + c), fl(b + c)):
    best[S] is bit-equal to the smallest of the row-order totals it ranges
    over, at fewer than k * 2^(k - 1) additions per record. Entry 0 is -0.0,
    which adds exactly. An infinite entry is an absent pair. Records run
    along the rows, so that each gather and scatter moves whole rows.
    """
    n, k = costs.shape[:2]
    by_row = costs.transpose(1, 2, 0)
    best = np.empty((1 << k, n))
    best[0] = -0.0
    for u, (sets, prev, cols, _) in enumerate(_subset_levels(k)):
        best[sets] = (best[prev] + by_row[u][cols]).min(axis=1)
    return best


def _check_costs(costs) -> np.ndarray:
    """A block of cost matrices as an (n, k, k) float array; ValueError, naming
    the first bad record, when an entry is not finite or exceeds
    _as_cost_matrix's limit."""
    costs = np.asarray(costs, dtype=float)
    if costs.ndim != 3 or costs.shape[1] != costs.shape[2] or costs.shape[1] == 0:
        raise ValueError(f"costs must be (n, k, k) with k >= 1, got shape {costs.shape}")
    limit = _cost_limit(costs.shape[1])
    bad = ~(np.abs(costs) <= limit).all(axis=(1, 2))
    if bad.any():
        raise ValueError(
            f"record {np.flatnonzero(bad)[0]}: cost entries must be finite and within "
            f"+-{limit:.6g} for k = {costs.shape[1]}"
        )
    return costs


def _check_block(costs, planted, revealed) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """matching_block_scores' inputs as arrays; ValueError, naming the first
    bad record, when they do not describe n records of k agents."""
    costs = _check_costs(costs)
    n, k = costs.shape[:2]
    planted, revealed = np.asarray(planted), np.asarray(revealed)
    for name, a in (("planted", planted), ("revealed", revealed)):
        if a.shape != (n, k) or a.dtype.kind not in "iu":
            raise ValueError(f"{name} must be an ({n}, {k}) integer array, got {a.dtype} {a.shape}")
    pins = np.where(revealed >= 0, revealed, -1 - np.arange(k))  # unpinned agents all differ
    problems = (
        ((np.sort(planted, axis=1) != np.arange(k)).any(axis=1),
         f"the true assignment is not a permutation of [0, {k})"),
        (((revealed < -1) | (revealed >= k)).any(axis=1),
         f"a pinned position lies outside [0, {k}) and is not -1"),
        ((np.diff(np.sort(pins, axis=1), axis=1) == 0).any(axis=1),
         "two agents are pinned to one position"),
    )
    for bad, what in problems:
        if bad.any():
            raise ValueError(f"record {np.flatnonzero(bad)[0]}: {what}")
    return costs, planted, revealed


def matching_block_scores(costs, planted, revealed) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Translated strong and weak scores of a block of matching records, and
    each record's base.

    costs is (n, k, k). Row i of planted is record i's true assignment, and
    revealed[i, u] the position its weak label pins agent u to, or -1. Totals
    are added row by row, like every matching score, and translated by the
    record's optimal cost, its base. The strong score is the truth's total;
    the weak score is the smallest total among assignments that keep the
    pinned pairs. Up to k = _DP_MAX_K the base and the weak score come from
    the subset DP (_subset_dp), with every unpinned column of a pinned row
    absent for the weak score; both are bit-equal to the minima of the k!
    row-order totals. Above it they come from Hungarian solves per record.
    The base is what matching_levelset_counts translates by.

    ValueError, naming the first bad record, when a cost entry is not finite
    or exceeds _as_cost_matrix's limit, a truth is not a permutation, or a
    pin is out of range or shared by two agents.
    """
    costs, planted, revealed = _check_block(costs, planted, revealed)
    n, k = costs.shape[:2]
    if k > _DP_MAX_K:
        base = np.array([min_matching_cost(c) for c in costs])
        weak = np.array([
            hungarian(c, forced=[(u, v) for u, v in enumerate(pins) if v >= 0])[1]
            for c, pins in zip(costs, revealed.tolist())
        ])
    else:
        base, weak = np.empty(n), np.empty(n)
        absent = (revealed[:, :, None] >= 0) & (revealed[:, :, None] != np.arange(k))
        for rows in _chunks(n, k):
            base[rows] = _subset_dp(costs[rows])[-1]
            weak[rows] = _subset_dp(np.where(absent[rows], np.inf, costs[rows]))[-1]
    truth = costs[np.arange(n)[:, None], np.arange(k), planted]
    # cumsum adds left to right, exactly as _total does
    strong = np.cumsum(truth, axis=1)[:, -1] - base
    return strong, weak - base, base


def _dp_counts(costs: np.ndarray, base: np.ndarray, t: np.ndarray,
               cap: int) -> tuple[np.ndarray, np.ndarray]:
    """matching_levelset_counts on one chunk, by branch and bound on the
    subset DP; see there."""
    n, k = costs.shape[:2]
    margin = 8 * (k + 1) * 2.0**-53 * k * np.abs(costs).max()
    # entry (i << k) | R: record i's cheapest way for the last |R| rows into R, less its base
    rest = (_subset_dp(costs[:, ::-1]) - base).T.ravel()
    levels, full = _subset_levels(k), (1 << k) - 1
    top = np.where(np.isnan(t), -np.inf, t)  # a NaN threshold admits nothing
    over = np.zeros((n, t.size), dtype=bool)
    hits = np.zeros((n, t.size), dtype=np.int64)
    enumerated = {}
    # a prefix is its record, the columns it leaves as (record << k) | columns,
    # its total and its bound
    rec, part, bound = np.arange(n), np.full(n, -0.0), np.full(n, -np.inf)
    left = (rec << k) | full
    for u in range(k):
        limit = np.where(over, -np.inf, top).max(axis=1, initial=-np.inf) + margin
        alive = np.flatnonzero(bound <= limit.take(rec))
        rec, left, part = rec.take(alive), left.take(alive), part.take(alive)
        for i in np.flatnonzero(np.bincount(rec, minlength=n) > cap + _CROWDED):
            enumerated[i] = _levelset_counts(MatchingProblem(costs[i], offset=base[i]), t, cap)
            over[i], limit[i] = True, -np.inf
        free = levels[k - u - 1][3].take(left & full, axis=0)  # the k - u columns left
        total = part[:, None] + costs[:, u].ravel().take((rec * k)[:, None] + free)
        left = left[:, None] ^ (1 << free)
        bound = total + rest.take(left)
        keep = np.flatnonzero(bound <= limit.take(rec)[:, None])
        left, part, bound = left.take(keep), total.take(keep), bound.take(keep)
        rec = left >> k
        for j, s in enumerate(t if u == k - 1 else t - margin):
            hits[:, j] = np.bincount(rec, bound <= s, n)
        over |= hits > cap
    counts = np.where(over, cap, hits)
    for i, (exact, flags) in enumerated.items():
        counts[i], over[i] = exact, flags
    return counts, over


def matching_levelset_counts(
    costs, base, thresholds: Sequence[float], cap: int
) -> tuple[np.ndarray, np.ndarray]:
    """Capped sizes of the sublevel sets {y : total(y) - base <= t} of a block
    of matching records, where total(y) is the row-order total of assignment y
    and base the record's, as matching_block_scores returns it.

    One (k, k) matrix of costs and one entry of base per record, one column
    of the results per threshold: counts holds min(size, cap), and flags
    marks the sizes above cap. Above k = _DP_MAX_K each record is counted by
    best-first enumeration (mbest._levelset_counts); otherwise chunks of
    records are counted at once by branch and bound on the subset DP.

    The search extends each record's partial assignments one row at a time,
    in row order, so that a prefix's total is the partial total every
    assignment through it starts with. Its bound is that total plus the
    cheapest way for the rows left into the columns left, from a second
    subset DP over the rows from the last up, less the base. Each of these
    sums rounds by at most about (k - 1)u * S, with u = 2^-53 and S the sum
    of each row's largest |c|, so a bound lies within about (4k + 3)u * S of
    the smallest translated total through its prefix, and t +- margin within
    about 3u * S of its exact value. The margin, 8(k + 1)u * k * max|c| over
    the chunk, covers both. So at each t:
      - a prefix whose bound exceeds t + margin has no assignment at or
        under t, and is dropped;
      - a prefix whose bound is at or under t - margin has one; prefixes of
        one row share no assignment, so a record with more than cap of them
        has more than cap assignments at or under t, and is truncated at t.
    A record's search is cut to its largest threshold not yet truncated, and
    ends when none is left. At the last row a prefix's bound is its total
    less the base, the float every matching score holds, and is compared
    with t exactly. So each count is that of the table of all k! translated
    totals. The prefixes kept on a row are at most cap plus those with a
    bound within the margin of t; a record with more than cap + _CROWDED of
    them is counted by best-first enumeration, as above _DP_MAX_K.

    ValueError when a cost entry is not finite or exceeds _as_cost_matrix's
    limit, base does not hold one value per record, or cap is not an
    integer >= 1.
    """
    costs = _check_costs(costs)
    n, k = costs.shape[:2]
    base = np.asarray(base, dtype=float)
    if base.shape != (n,):
        raise ValueError(f"base must hold one value per record, got shape {base.shape}")
    if _as_int(cap, "cap") < 1:
        raise ValueError("cap must be >= 1")
    t = np.asarray(thresholds, dtype=float).ravel()
    if k > _DP_MAX_K:
        per_record = [_levelset_counts(MatchingProblem(c, offset=b), t, cap) for c, b in zip(costs, base)]
        counts = np.array([c for c, _ in per_record], dtype=np.int64).reshape(n, t.size)
        return counts, np.array([f for _, f in per_record], dtype=bool).reshape(n, t.size)
    counts, flags = np.empty((n, t.size), dtype=np.int64), np.empty((n, t.size), dtype=bool)
    for rows in _chunks(n, k):
        counts[rows], flags[rows] = _dp_counts(costs[rows], base[rows], t, cap)
    return counts, flags


def read_cost_csv(path: str) -> np.ndarray:
    """Cost matrix file: one line with k, then k comma-separated rows."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh]
    lines = [(i + 1, ln) for i, ln in enumerate(lines) if ln]
    if not lines:
        raise FormatError("empty cost matrix file", 1)
    try:
        k = int(lines[0][1])
    except ValueError as exc:
        raise FormatError("header must be the matrix size k", lines[0][0]) from exc
    if k < 1 or len(lines) != k + 1:
        raise FormatError(f"expected {k} rows after the header", lines[0][0])
    rows = []
    for lineno, ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != k:
            raise FormatError(f"expected {k} comma-separated entries", lineno)
        rows.append(_finite_floats(parts, lineno))
    return _as_cost_matrix(rows)


# --- partition backend ------------------------------------------------------


@dataclass(frozen=True)
class MatchingCell:
    """Assignments containing all forced pairs and no forbidden pair.

    ``duals`` are dual potentials (u, v) over all k rows and columns that
    are optimal for ``best`` in this cell; ``second_duals`` are optimal for
    ``second`` in the cell that also forbids (split_row, best[split_row]).
    A split hands them to its two children, so no cell below the root
    needs a cold solve.

    ``free`` is the cell's free state: its free rows and free columns,
    ascending, and its (m, m) sub-costs over them with the forbidden pairs
    inf; at the root, (arange(k), arange(k), costs). A split derives its
    children's from it, dropping the forced row and column from the child
    that keeps ``best`` and setting the new forbidden pair to inf in the
    other, so neither rebuilds it from the pair sets.
    """

    forced: tuple[tuple[int, int], ...]
    forbidden: frozenset[tuple[int, int]]
    best: tuple[int, ...]
    best_score: float
    second: tuple[int, ...] | None
    second_score: float | None
    duals: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, compare=False, repr=False
    )
    second_duals: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, compare=False, repr=False
    )
    split_row: int | None = field(default=None, compare=False, repr=False)
    free: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(
        default=None, compare=False, repr=False
    )

    def contains(self, y: Sequence[int]) -> bool:
        y = _as_permutation(y, len(self.best))
        return all(y[uu] == vv for uu, vv in self.forced) and not any(
            y[uu] == vv for uu, vv in self.forbidden
        )


def _closure(dist: np.ndarray) -> np.ndarray:
    """Floyd-Warshall on a stack of (m, m) edge-length matrices, in place:
    afterwards dist[l, a, b] is the length of the shortest walk from a to b
    in layer l, and the returned pred[l, a, b] is b's predecessor on it.
    Pivots run in index order, and a pivot replaces a length only when it is
    strictly shorter; each layer's result is bit-equal to a closure of that
    layer alone, since the layers share no arithmetic."""
    m = dist.shape[-1]
    pred = np.empty(dist.shape, dtype=np.intp)
    pred[...] = np.arange(m)[:, None]
    for w in range(m):
        cand = dist[:, :, w, None] + dist[:, None, w]
        better = cand < dist
        np.copyto(dist, cand, where=better)
        np.copyto(pred, pred[:, None, w], where=better)
    return pred


class MatchingProblem:
    """PartitionProblem over assignments of a square cost matrix.

    Scores are matching costs minus ``offset`` (pass the minimum cost to
    work in translated scores; the enumeration order is unaffected).

    ``margin`` bounds how far below the last emitted score a reoptimised
    second-best may round: four times the error bound gamma_{k-1} * sum|c|
    of a row-order total of k entries, as ranking._prune_margin is for a
    ranking's sum, with sum|c| at most the sum of each row's largest |c|.
    Two totals can round up to twice that bound out of their exact order,
    and the reduced costs, clamped at 0 and summed in the closure's order,
    may order near-tied assignments either way: among tied or near-tied
    scores the emission order is the closure's, not a sort's.

    A split resolves both children in one closure over a (2, m, m) stack on
    the parent's m free columns (_cells), each child starting from the
    parent's free state rather than from its pair sets; the root runs the
    same routine on a stack of one.
    """

    def __init__(self, costs, offset: float = 0.0):
        self.costs = _as_cost_matrix(costs)
        self.k = self.costs.shape[0]
        self.offset = float(offset)
        self.margin = 4 * (self.k + 1) * 2.0**-53 * float(np.abs(self.costs).max(axis=1).sum())

    def score(self, config: Sequence[int]) -> float:
        return matching_score(self.costs, config) - self.offset

    def _cells(
        self, rows: np.ndarray, cols: np.ndarray, children: list[tuple]
    ) -> list[MatchingCell]:
        """Cells over one parent's m free rows and columns, ascending, each
        child given as (forced, forbidden, best, best_score, duals, sub, drop):
        sub holds its (m, m) sub-costs with its forbidden pairs inf, and drop
        is the local (row, column) pair it forces on top of the parent's, or
        None. A child with a dropped pair keeps the parent's free state less
        that row and column; the others keep it whole. The runner-ups of all
        children with two free rows or more come from one stacked closure
        (_runner_ups).
        """
        ar = np.arange(rows.size)
        states = []  # a child's free state, and the parent's local rows and columns in it
        for *_, sub, drop in children:
            if drop is None:
                states.append(((rows, cols, sub), slice(None), slice(None)))
            else:
                keep_r, keep_c = ar[ar != drop[0]], ar[ar != drop[1]]
                free = (rows[keep_r], cols[keep_c], sub[keep_r[:, None], keep_c])
                states.append((free, keep_r, keep_c))
        layers = [i for i, (free, _, _) in enumerate(states) if free[0].size >= 2]
        found = [None] * len(children)
        if layers:
            resolved = self._runner_ups(
                rows, cols, [children[i] for i in layers], [states[i] for i in layers])
            for i, runner_up in zip(layers, resolved):
                found[i] = runner_up
        cells = []
        for (forced, forbidden, best, best_score, duals, _, _), (free, _, _), runner_up in zip(
                children, states, found):
            second, total, second_duals, split_row = runner_up or (None, None, None, None)
            second_score = None if total is None else total - self.offset
            cells.append(MatchingCell(forced, forbidden, best, best_score, second, second_score,
                                      duals, second_duals, split_row, free))
        return cells

    def _runner_ups(self, rows, cols, children, states) -> list:
        """Each child's cheapest member other than its best, by reoptimisation
        over one closure of a stack with a layer per child; per child,
        (second, its total, its duals, the row whose exclusion produced it),
        or None when its cell is a singleton.

        With (u, v) optimal for ``best``, the best member avoiding the edge
        (r, best[r]) is ``best`` re-routed along the shortest augmenting path
        from row r to column best[r] over the reduced costs c - u - v >= 0,
        with forbidden pairs and that edge absent: a shortest cycle through
        column best[r] in the graph on the free columns where a -> b costs
        the reduced cost from the row matched to a to column b. The closure
        of that graph, m min-plus pivots over (m, m) arrays, gives every
        row's re-route at once, so a whole cell costs O(m^3).

        A child's dropped column is isolated in its layer: its distance row
        and column are inf, so a pivot through it changes nothing (inf + x
        is never < anything) and its row is never a source. The layer's dist
        and pred on the other columns are then bit-equal to a closure over
        the child's own m - 1 columns, as are its walks, totals and duals;
        the dropped row and column keep their potentials. The reduced costs
        are clamped at 0: rounding leaves tiny negative ones (on
        sum-separable costs, say), whose negative cycles would leave a
        predecessor walk that never closes. Candidates are compared by their
        totals re-summed in row order, ties going to the lowest row; among
        re-routes of equal length the closure may pick another path than a
        per-row search would, so near-tied assignments may be emitted in
        another order.
        """
        m = rows.size
        ar = np.arange(m)
        at = np.arange(len(children))[:, None]
        _, _, bests, _, duals, subs, drops = zip(*children)
        match = cols.searchsorted(np.array(bests)[:, rows])  # free row -> its column in best
        row_of = np.empty_like(match)
        row_of[at, match] = ar
        u = np.array([uu for uu, _ in duals])
        v = np.array([vv for _, vv in duals])
        # Node a is free column a, left through the row row_of[a] matched to
        # it. The self edge a -> a is that row's excluded edge, so the
        # diagonal is inf, and after m pivots dist[a, a] is its re-route.
        dist = np.array(subs)[at, row_of] - u[at, rows[row_of]][:, :, None] - v[:, cols][:, None]
        np.maximum(dist, 0.0, out=dist)
        dist[:, ar, ar] = np.inf
        for layer, drop in enumerate(drops):
            if drop is not None:
                dist[layer, drop[1]] = np.inf
                dist[layer, :, drop[1]] = np.inf
        pred = _closure(dist)
        length = dist[at, match, match]

        row_ids, col_ids = rows.tolist(), cols.tolist()
        found = []
        for layer, (best, (uu, vv), (free, keep_r, keep_c), pred_rows, back_row, targets,
                    lengths) in enumerate(zip(bests, duals, states, pred.tolist(), row_of.tolist(),
                                              match.tolist(), length.tolist())):
            sources = [a for a, x in enumerate(lengths) if x < math.inf]
            if not sources:
                found.append(None)
                continue
            configs = []
            for src in sources:
                y = list(best)
                a = j = targets[src]
                for _ in range(free[0].size):
                    p = pred_rows[a][j]
                    y[row_ids[back_row[p]]] = col_ids[j]
                    if p == a:
                        break
                    j = p
                else:
                    raise PartitionError(f"the re-route of row {row_ids[src]} does not close")
                configs.append(y)
            # cumsum adds left to right, exactly as _total does
            totals = self.costs[np.arange(self.k), configs].cumsum(axis=1)[:, -1]
            i = int(totals.argmin())
            s = sources[i]

            # Johnson's update with distances capped at the path length keeps
            # every reduced cost nonnegative and makes the new assignment tight.
            d = np.minimum(dist[layer, targets[s]], lengths[s])
            row_shift = d[match[layer]]
            row_shift[s] = 0.0
            su = uu.copy()
            su[free[0]] -= row_shift[keep_r]
            sv = vv.copy()
            sv[free[1]] += d[keep_c]
            found.append((tuple(configs[i]), float(totals[i]), (su, sv), row_ids[s]))
        return found

    def root(self) -> MatchingCell:
        solved = _solve_square(self.costs.tolist())
        assert solved is not None  # no absent pairs: always feasible
        assignment, u, v = solved
        best = tuple(assignment)
        free = np.arange(self.k)
        (cell,) = self._cells(free, free, [(
            (), frozenset(), best, _total(self.costs, best) - self.offset,
            (np.array(u), np.array(v)), self.costs, None,
        )])
        return cell

    def split(self, cell: MatchingCell) -> tuple[MatchingCell, MatchingCell]:
        if cell.second is None:
            raise ValueError("cannot split a cell without a second-best")
        rows, cols, sub = cell.free
        edge = (cell.split_row, cell.best[cell.split_row])
        pair = (int(np.searchsorted(rows, edge[0])), int(np.searchsorted(cols, edge[1])))
        cut = sub.copy()
        cut[pair] = np.inf
        keep, moved = self._cells(rows, cols, [
            (tuple(sorted(cell.forced + (edge,))), cell.forbidden, cell.best,
             cell.best_score, cell.duals, sub, pair),
            (cell.forced, cell.forbidden | {edge}, cell.second, cell.second_score,
             cell.second_duals, cut, None),
        ])
        return keep, moved
