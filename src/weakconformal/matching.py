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
"""
from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .labels import FormatError, PartialMatching, _as_permutation, _finite_floats

__all__ = [
    "hungarian",
    "matching_score",
    "partial_matching_score",
    "matching_block_scores",
    "min_matching_cost",
    "read_cost_csv",
    "MatchingCell",
    "MatchingProblem",
]


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
    limit = sys.float_info.max / (4 * len(arr) * (len(arr) + 2))
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


# assignment totals per chunk of matching_block_scores' table (64 records at k = 6)
_TABLE_ENTRIES = 64 * 720


def _permutation_index(perms) -> np.ndarray:
    """Each row's place among the permutations of [0, k) in lexicographic
    order, the order of itertools.permutations(range(k)).

    This is the Lehmer code: the sum over positions u of the number of later
    entries smaller than the row's entry at u, times (k - 1 - u)!.
    """
    p = np.asarray(perms)
    k = p.shape[1]
    later = np.triu(np.ones((k, k), dtype=bool), 1)  # later[u, v]: v comes after u
    smaller = ((p[:, None, :] < p[:, :, None]) & later).sum(axis=2)
    return smaller @ np.array([math.factorial(k - 1 - u) for u in range(k)])


def matching_block_scores(
    costs, planted, revealed, keep: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Translated strong and weak scores of a block of matching records, from
    one table of all k! assignment totals per chunk of records.

    costs is (n, k, k). Row i of planted is record i's true assignment, and
    revealed[i, u] the position its weak label pins agent u to, or -1. Totals
    are added row by row, like every matching score, and translated by the
    record's optimal cost, the table's minimum. The strong score is the
    truth's total; the weak score is the smallest total among assignments
    that keep the pinned pairs. Also returns each record's keep smallest
    translated totals, in no particular order, from which level sets are
    counted. The table holds k! columns, so this suits small k.
    """
    costs = np.asarray(costs, dtype=float)
    revealed = np.asarray(revealed)
    n, k = costs.shape[:2]
    perms = np.array(list(itertools.permutations(range(k))))
    truth = _permutation_index(planted)
    keep = min(keep, perms.shape[0])
    strong, weak, smallest = np.empty(n), np.empty(n), np.empty((n, keep))
    step = max(1, _TABLE_ENTRIES // perms.shape[0])
    for start in range(0, n, step):
        rows = slice(start, start + step)
        chunk = costs[rows]
        totals = chunk[:, 0, perms[:, 0]]
        for u in range(1, k):
            totals += chunk[:, u, perms[:, u]]
        base = totals.min(axis=1)
        strong[rows] = totals[np.arange(totals.shape[0]), truth[rows]] - base
        fits = np.ones(totals.shape, dtype=bool)
        for u in range(k):
            pin = revealed[rows, u, None]
            fits &= (perms[:, u] == pin) | (pin < 0)
        weak[rows] = np.where(fits, totals, np.inf).min(axis=1) - base
        totals -= base[:, None]
        if keep < perms.shape[0]:
            totals = np.partition(totals, keep - 1, axis=1)[:, :keep]
        smallest[rows] = totals
    return strong, weak, smallest


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
        y = tuple(int(v) for v in y)
        return all(y[uu] == vv for uu, vv in self.forced) and not any(
            y[uu] == vv for uu, vv in self.forbidden
        )


class MatchingProblem:
    """PartitionProblem over assignments of a square cost matrix.

    Scores are matching costs minus ``offset`` (pass the minimum cost to
    work in translated scores; the enumeration order is unaffected).
    """

    def __init__(self, costs, offset: float = 0.0):
        self.costs = _as_cost_matrix(costs)
        self.k = self.costs.shape[0]
        self.offset = float(offset)

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
