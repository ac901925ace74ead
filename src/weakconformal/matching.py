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
so a whole cell costs O(k^3), and each child cell inherits potentials from
its parent instead of solving from scratch.

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
from .mbest import _levelset_counts

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
    2kM. So a reduced cost lies within (4k^2 + 4k + 1)M, and a path length,
    an alternating sum less two potentials, within (4k^2 + 6k - 1)M.
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

    def contains(self, y: Sequence[int]) -> bool:
        y = _as_permutation(y, len(self.best))
        return all(y[uu] == vv for uu, vv in self.forced) and not any(
            y[uu] == vv for uu, vv in self.forbidden
        )


class MatchingProblem:
    """PartitionProblem over assignments of a square cost matrix.

    Scores are matching costs minus ``offset`` (pass the minimum cost to
    work in translated scores; the enumeration order is unaffected).

    ``margin`` bounds how far below the last emitted score a reoptimised
    second-best may round: four times the error bound gamma_{k-1} * sum|c|
    of a row-order total of k entries, as ranking._prune_margin is for a
    ranking's sum, with sum|c| at most the sum of each row's largest |c|.
    Two totals can round up to twice that bound out of their exact order,
    and the reduced costs may order near-tied assignments either way.
    """

    def __init__(self, costs, offset: float = 0.0):
        self.costs = _as_cost_matrix(costs)
        self.k = self.costs.shape[0]
        self.offset = float(offset)
        self.margin = 4 * (self.k + 1) * 2.0**-53 * float(np.abs(self.costs).max(axis=1).sum())

    def score(self, config: Sequence[int]) -> float:
        return matching_score(self.costs, config) - self.offset

    def _second_best(
        self,
        forced: tuple[tuple[int, int], ...],
        forbidden: frozenset[tuple[int, int]],
        best: tuple[int, ...],
        duals: tuple[np.ndarray, np.ndarray],
    ) -> tuple[tuple[int, ...], float, tuple[np.ndarray, np.ndarray], int] | None:
        """Cheapest member of the cell other than ``best``, by reoptimisation.

        With (u, v) optimal for ``best``, the best member avoiding the edge
        (r, best[r]) is ``best`` re-routed along the shortest augmenting
        path from row r to column best[r] over the reduced costs
        c - u - v >= 0, with forbidden pairs and that edge absent. The m
        free rows run one Dijkstra each, in lockstep over (m, m) arrays, so
        the whole cell costs O(m^3). Candidates are compared by their
        totals re-summed in row order, ties going to the lowest row.
        Returns (second, its total, its duals, the row whose exclusion
        produced it), or None when the cell is a singleton.
        """
        k = self.k
        forced_rows = {uu for uu, _ in forced}
        forced_cols = {vv for _, vv in forced}
        rows = np.array([uu for uu in range(k) if uu not in forced_rows], dtype=np.intp)
        cols = np.array([vv for vv in range(k) if vv not in forced_cols], dtype=np.intp)
        m = rows.size
        if m < 2:
            return None
        u, v = duals
        best_arr = np.array(best, dtype=np.intp)
        ar = np.arange(m)
        row_pos = np.full(k, -1, dtype=np.intp)
        row_pos[rows] = ar
        col_pos = np.full(k, -1, dtype=np.intp)
        col_pos[cols] = ar
        match = col_pos[best_arr[rows]]  # free row -> its column in best
        row_of = np.empty(m, dtype=np.intp)
        row_of[match] = ar
        reduced = self.costs[np.ix_(rows, cols)] - u[rows, None] - v[cols]
        if forbidden:
            fr, fc = np.array(list(forbidden), dtype=np.intp).T
            a, b = row_pos[fr], col_pos[fc]
            inside = (a >= 0) & (b >= 0)
            reduced[a[inside], b[inside]] = np.inf

        # Row s of each array is the search from source row s toward the
        # column match[s]. A column leaves ``tentative`` when it is popped,
        # its distance then final. Reaching column j also reaches the row
        # row_of[j] matched to it (reduced cost 0); the search goes on
        # from that row.
        tentative = reduced.copy()
        tentative[ar, match] = np.inf
        unseen = np.ones((m, m), dtype=bool)
        pred = np.full((m, m), -1, dtype=np.intp)  # -1: entered from row s
        pops = []
        for _ in range(m):
            col = tentative.argmin(axis=1)
            step = tentative[ar, col]
            pops.append((col, step))
            unseen[ar, col] = False
            tentative[ar, col] = np.inf
            if not (unseen[ar, match] & (step < np.inf)).any():
                break
            cand = reduced[row_of[col]]
            cand += step[:, None]
            better = cand < tentative
            better &= unseen
            np.copyto(tentative, cand, where=better)
            np.copyto(pred, col[:, None], where=better)

        # a source whose frontier runs dry pops columns at infinite distance
        popped = np.array([col for col, _ in pops])
        popped_at = np.array([step for _, step in pops])
        hit = popped == match
        reach = hit.argmax(axis=0)  # the pop that reached each target
        length = np.where(hit.any(axis=0), popped_at[reach, ar], np.inf)
        sources = np.flatnonzero(length < np.inf).tolist()
        if not sources:
            return None
        pred_rows = pred.tolist()
        back_row = row_of.tolist()
        row_ids, col_ids, targets = rows.tolist(), cols.tolist(), match.tolist()
        configs = []
        for src in sources:
            y = list(best)
            j = targets[src]
            while True:
                jb = pred_rows[src][j]
                y[row_ids[src if jb < 0 else back_row[jb]]] = col_ids[j]
                if jb < 0:
                    break
                j = jb
            configs.append(y)
        # cumsum adds left to right, exactly as _total does
        totals = np.cumsum(self.costs[np.arange(k), configs], axis=1)[:, -1]
        i = int(np.argmin(totals))
        s = sources[i]

        # Johnson's update with distances capped at the path length keeps
        # every reduced cost nonnegative and makes the new assignment tight.
        d = np.full(m, length[s])
        d[popped[: reach[s], s]] = popped_at[: reach[s], s]
        row_shift = d[match]
        row_shift[s] = 0.0
        su = u.copy()
        su[rows] -= row_shift
        sv = v.copy()
        sv[cols] += d
        return tuple(configs[i]), float(totals[i]), (su, sv), row_ids[s]

    def _cell(
        self,
        forced: tuple[tuple[int, int], ...],
        forbidden: frozenset[tuple[int, int]],
        best: tuple[int, ...],
        best_score: float,
        duals: tuple[np.ndarray, np.ndarray],
    ) -> MatchingCell:
        found = self._second_best(forced, forbidden, best, duals)
        if found is None:
            return MatchingCell(forced, forbidden, best, best_score, None, None, duals)
        second, total, second_duals, split_row = found
        return MatchingCell(
            forced=forced,
            forbidden=forbidden,
            best=best,
            best_score=best_score,
            second=second,
            second_score=total - self.offset,
            duals=duals,
            second_duals=second_duals,
            split_row=split_row,
        )

    def root(self) -> MatchingCell:
        solved = _solve_square(self.costs.tolist())
        assert solved is not None  # no absent pairs: always feasible
        assignment, u, v = solved
        best = tuple(assignment)
        return self._cell(
            (), frozenset(), best, _total(self.costs, best) - self.offset,
            (np.array(u), np.array(v)),
        )

    def split(self, cell: MatchingCell) -> tuple[MatchingCell, MatchingCell]:
        if cell.second is None:
            raise ValueError("cannot split a cell without a second-best")
        edge = (cell.split_row, cell.best[cell.split_row])
        keep = self._cell(
            tuple(sorted(cell.forced + (edge,))),
            cell.forbidden,
            cell.best,
            cell.best_score,
            cell.duals,
        )
        moved = self._cell(
            cell.forced,
            cell.forbidden | {edge},
            cell.second,
            cell.second_score,
            cell.second_duals,
        )
        return keep, moved
