"""The benchmark's workloads: generated inputs, ops, and output checks.

A workload is a fixed cycle of op kinds. ``ops(cycle)`` returns the cycle's
ops as ``(kind, thunk)`` pairs; a thunk calls the package and returns an
``Op`` holding the output. ``check(op)`` returns a list of problems found
in that output (empty when correct) and never raises. Inputs come only
from the workload seed; cycle ``c`` uses input ``c`` (modulo the pool size)
of each kind, and cycle 0 is the warm-up.
"""
from __future__ import annotations

import itertools
import math
import os
import shutil
import tempfile
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

import numpy as np

import weakconformal as wc

TOL = wc.conformal.TOL
EXHAUSTIVE_MAX = math.factorial(8)  # score sequences up to this space size are checked exhaustively
ETAS = (0.5, 0.8, 0.9, 0.95)


@dataclass(frozen=True)
class Sizes:
    gate_n: int = 4000
    match_ks: tuple[int, ...] = (8, 12, 20)
    match_m: int = 50
    rank_ks: tuple[int, ...] = (10, 20)
    rank_m: int = 2000
    product_ks: tuple[int, ...] = (12, 14)
    sparse_k: int = 18
    sparse_atoms: int = 40
    curves: int = 500
    gate_pool: int = 5  # trial seeds per gate run; each repeats, for the determinism check
    pool: int = 20  # inputs per op kind on the other workloads


FULL = Sizes()
TINY = Sizes(gate_n=200, match_ks=(5, 7), match_m=10, rank_ks=(6,), rank_m=40,
             product_ks=(6,), sparse_k=8, sparse_atoms=8, curves=20, gate_pool=3, pool=3)


@dataclass
class Op:
    kind: str
    out: Any
    stages: dict[str, float] = field(default_factory=dict)  # seconds per named stage
    configs: int = 0  # configurations emitted by the package during the op


def _guarded(check: Callable[[Op], list[str]]) -> Callable[[Op], list[str]]:
    def run(op: Op) -> list[str]:
        try:
            return check(op)
        except Exception:  # a malformed output is a failed check, not a crash
            return [f"{op.kind}: checker raised: " + traceback.format_exc(limit=2).strip()]
    return run


def _pooled_ops(inputs: dict[str, list], op: Callable[[Any], Op], cycle: int):
    """One op per kind, on the kind's input for this cycle."""
    return [(kind, lambda spec=pool[cycle % len(pool)]: op(spec)) for kind, pool in inputs.items()]


# --- gate ---------------------------------------------------------------------------

GATE_TASKS = (
    ("classify", {"k": 10, "methods": ("wsc", "fsc", "gws", "pessimistic")}),
    ("rank", {"k": 7, "methods": ("wsc", "fsc")}),
    ("match", {"k": 6, "noise": 1.0, "methods": ("wsc", "fsc")}),
    ("regress", {"mu": 0.05, "methods": ("wsc", "fsc", "pessimistic")}),
)


@dataclass
class GateRound:
    seed: int
    out_dir: str
    rows: dict[str, list]  # task -> TrialResult rows


class Gate:
    """One op = one harness trial per task at release-gate scale."""

    name = "gate"

    def __init__(self, seed: int, sizes: Sizes, scratch: str, refs: dict):
        self.seeds = [int(s) for s in np.random.SeedSequence([seed, 1]).generate_state(sizes.gate_pool)]
        self.n = sizes.gate_n
        self.scratch = scratch
        self.refs = refs  # (seed, task) -> CSV rows without seconds, first seen
        self.check = _guarded(self._check)

    def ops(self, cycle: int) -> list[tuple[str, Callable[[], Op]]]:
        seed = self.seeds[cycle % len(self.seeds)]
        return [("round", lambda: self._round(seed))]

    def _round(self, seed: int) -> Op:
        out_dir = tempfile.mkdtemp(prefix="gate-", dir=self.scratch)
        rows, stages = {}, {}
        for task, kw in GATE_TASKS:
            cfg = wc.ExperimentConfig(task=task, alpha=0.1, n_trials=1, seed=seed, n=self.n,
                                      split=(0.25, 0.25, 0.5),
                                      out=os.path.join(out_dir, task + ".csv"), **kw)
            t0 = perf_counter()
            rows[task] = wc.run(cfg)
            stages[task] = perf_counter() - t0
        return Op("round", GateRound(seed, out_dir, rows), stages)

    def _check(self, op: Op) -> list[str]:
        r: GateRound = op.out
        problems = []
        try:
            cols = wc.CSV_COLUMNS
            sec = cols.index("seconds")
            for task, rows in r.rows.items():
                with open(os.path.join(r.out_dir, task + ".csv"), encoding="utf-8") as fh:
                    lines = fh.read().splitlines()
                if not lines or lines[0] != ",".join(cols):
                    problems.append(f"{task}: CSV header differs from CSV_COLUMNS")
                    continue
                written = lines[1:]
                if written != [row.csv_row() for row in rows]:
                    problems.append(f"{task}: CSV rows differ from the returned rows")
                parsed = [dict(zip(cols, line.split(","))) for line in written]
                for p in parsed:
                    strong, weak = float(p["strong_cov"]), float(p["weak_cov"])
                    if not 0.0 <= strong <= weak <= 1.0:
                        problems.append(f"{task}/{p['method']}: coverages {strong}, {weak} "
                                        "break 0 <= strong <= weak <= 1")
                thr = {p["method"]: float(p["threshold"]) for p in parsed}
                if not thr.get("wsc", math.nan) <= thr.get("fsc", math.nan):
                    problems.append(f"{task}: wsc threshold {thr.get('wsc')} above fsc "
                                    f"threshold {thr.get('fsc')}")
                stripped = [[v for i, v in enumerate(line.split(",")) if i != sec]
                            for line in written]
                if self.refs.setdefault((r.seed, task), stripped) != stripped:
                    problems.append(f"{task}: CSV values differ from the first run of seed {r.seed}")
        finally:
            shutil.rmtree(r.out_dir, ignore_errors=True)
        return problems


# --- enum-deep -----------------------------------------------------------------------


@dataclass
class EnumInput:
    kind: str
    problem: Any
    m: int
    matrix: np.ndarray  # costs (matching) or relevances (ranking)
    psi_c: float  # ranking: 0 = hinge
    until_index: int  # threshold = score of this m_best config
    until_cap: int
    weak_index: int  # the weak label is revealed from this m_best config
    reveal: tuple[int, ...]  # matching: revealed agents; ranking: (prefix length,)
    exhaustive: np.ndarray | None  # sorted scores of the whole space, when small


@dataclass
class EnumOutput:
    best: Any
    threshold: float
    until: Any
    weak: Any
    rank: int


def _perms(k: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(k))), dtype=np.int64)


def matching_scores(costs: np.ndarray, perms: np.ndarray) -> np.ndarray:
    return costs[np.arange(costs.shape[0]), perms].sum(axis=1)


def ranking_scores(rel: np.ndarray, perms: np.ndarray, psi_c: float) -> np.ndarray:
    ordered = rel[perms]
    a, b = ordered[:, :, None], ordered[:, None, :]
    gaps = np.maximum(b - a, 0.0) * np.exp(-psi_c * a)
    return np.triu(gaps, k=1).sum(axis=(1, 2))


def _weak_compatible(weak, y) -> bool:
    if isinstance(weak, wc.RankingPrefix):
        return tuple(y[: len(weak.items)]) == weak.items
    return all(y[u] == v for u, v in weak.pairs)


class EnumDeep:
    """One op = one problem through m_best, enumerate_until, compatible_rank."""

    name = "enum-deep"

    def __init__(self, seed: int, sizes: Sizes, scratch: str, refs: dict):
        self.kinds = [f"match{k}" for k in sizes.match_ks] + [f"rank{k}" for k in sizes.rank_ks]
        perms = {}
        self.inputs = {}
        for kind_id, kind in enumerate(self.kinds):
            self.inputs[kind] = [self._input(seed, kind_id, kind, j, sizes, perms)
                                 for j in range(sizes.pool)]
        self.check = _guarded(self._check)

    @staticmethod
    def _input(seed, kind_id, kind, j, sizes, perms) -> EnumInput:
        rng = np.random.default_rng([seed, 2, kind_id, j])
        matching = kind.startswith("match")
        k = int(kind[5:] if matching else kind[4:])
        m = sizes.match_m if matching else sizes.rank_m
        exhaustive = None
        if matching:
            planted = rng.permutation(k)
            matrix = rng.standard_normal((k, k))
            matrix[np.arange(k), planted] -= 1.0
            problem, psi_c = wc.MatchingProblem(matrix), 0.0
            until_index, until_cap = m // 2, m  # threshold inside the m best: never truncated
            reveal = tuple(sorted(int(u) for u in rng.choice(k, size=max(1, k // 4), replace=False)))
            if math.factorial(k) <= EXHAUSTIVE_MAX:
                table = perms.setdefault(k, _perms(k))
                exhaustive = np.sort(matching_scores(matrix, table))
        else:
            matrix = rng.standard_normal(k)
            psi_c = 1.0 if k >= 20 else 0.0  # the deeper ranking uses the top-weighted psi
            psi = wc.PsiSpec.exp_weighted(psi_c) if psi_c else wc.PsiSpec.hinge()
            problem = wc.RankingProblem(matrix, psi)
            until_index, until_cap = m - 1, m // 2  # sublevel set beyond the cap: truncated
            reveal = (int(rng.integers(2, 4)),)
            if math.factorial(k) <= EXHAUSTIVE_MAX:
                table = perms.setdefault(k, _perms(k))
                exhaustive = np.sort(ranking_scores(matrix, table, psi_c))
        weak_index = int(rng.integers(m // 4, m // 2))
        return EnumInput(kind, problem, m, matrix, psi_c, until_index, until_cap,
                         weak_index, reveal, exhaustive)

    def ops(self, cycle: int) -> list[tuple[str, Callable[[], Op]]]:
        return _pooled_ops(self.inputs, self._op, cycle)

    @staticmethod
    def _op(spec: EnumInput) -> Op:
        best = wc.m_best(spec.problem, spec.m)
        threshold = best.scores[spec.until_index]
        until = wc.enumerate_until(spec.problem, threshold, cap=spec.until_cap)
        y = best.configs[spec.weak_index]
        k = len(y)
        if isinstance(spec.problem, wc.MatchingProblem):
            weak = wc.PartialMatching(tuple((u, y[u]) for u in spec.reveal), k)
        else:
            weak = wc.RankingPrefix(tuple(y[: spec.reveal[0]]), k)
        rank = wc.compatible_rank(spec.problem, lambda c: wc.weak_contains(weak, c), cap=spec.m)
        return Op(spec.kind, (spec, EnumOutput(best, threshold, until, weak, rank)),
                  configs=len(best) + len(until) + rank)

    @staticmethod
    def _check(op: Op) -> list[str]:
        spec, r = op.out
        problems = []
        scores = np.asarray(r.best.scores, dtype=float)
        configs = r.best.configs
        if len(configs) != spec.m or scores.shape != (spec.m,):
            problems.append(f"{spec.kind}: m_best returned {len(configs)} configurations, not {spec.m}")
        if np.any(np.diff(scores) < -TOL):
            problems.append(f"{spec.kind}: m_best scores are not nondecreasing")
        perms = np.array(configs, dtype=np.int64)
        k = spec.matrix.shape[0]
        if perms.ndim != 2 or perms.shape[1] != k or np.any(np.sort(perms, axis=1) != np.arange(k)):
            return problems + [f"{spec.kind}: m_best emitted a configuration that is not a permutation"]
        if len({tuple(c) for c in configs}) != len(configs):
            problems.append(f"{spec.kind}: m_best emitted a configuration twice")
        if isinstance(spec.problem, wc.MatchingProblem):
            recomputed = matching_scores(spec.matrix, perms)
        else:
            recomputed = ranking_scores(spec.matrix, perms, spec.psi_c)
        if not np.allclose(recomputed, scores, rtol=0.0, atol=TOL):
            problems.append(f"{spec.kind}: reported scores differ from the configurations' scores")
        for i in {0, len(configs) // 2, len(configs) - 1}:
            if abs(spec.problem.score(configs[i]) - scores[i]) > TOL:
                problems.append(f"{spec.kind}: problem.score differs from reported score at {i}")
        if spec.exhaustive is not None and not np.allclose(
                scores, spec.exhaustive[: len(scores)], rtol=0.0, atol=TOL):
            problems.append(f"{spec.kind}: score sequence differs from the exhaustive sort")

        u = r.until
        n_until = len(u.configs)
        if any(s > r.threshold for s in u.scores):
            problems.append(f"{spec.kind}: enumerate_until returned a score above its threshold")
        if list(u.configs) != list(configs[:n_until]) or list(u.scores) != list(r.best.scores[:n_until]):
            problems.append(f"{spec.kind}: enumerate_until differs from the m_best prefix")
        below = int(np.sum(scores <= r.threshold))
        if below < len(scores) or spec.until_cap <= below:
            want = (min(below, spec.until_cap), below >= spec.until_cap)
            if (n_until, bool(u.truncated)) != want:
                problems.append(f"{spec.kind}: enumerate_until gave {n_until} configs, truncated="
                                f"{u.truncated}; expected {want[0]}, truncated={want[1]}")

        first = next((i + 1 for i, c in enumerate(configs) if _weak_compatible(r.weak, c)), None)
        if r.rank != first:
            problems.append(f"{spec.kind}: compatible_rank {r.rank}, first compatible at {first}")
        return problems


# --- greedy-exact --------------------------------------------------------------------


@dataclass
class GreedyInput:
    kind: str
    k: int
    q: np.ndarray | None = None  # product form: label marginals
    dist: Any = None  # sparse: the distribution itself
    structure: str = "general"
    curves: list | None = None  # allocation: cumulative coverage curves
    weights: np.ndarray | None = None


@dataclass
class GreedyOutput:
    dist: Any
    sequence: Any
    sets: list
    optimal: list[float]
    covers: list[int]
    wolsey: list[float]
    structure: Any


def _laminar(sets: list[frozenset]) -> bool:
    return all(not (a & b) or a <= b or b <= a for a, b in itertools.combinations(sets, 2))


class GreedyExact:
    """One op = one weak-set distribution through greedy and the exact tools."""

    name = "greedy-exact"

    def __init__(self, seed: int, sizes: Sizes, scratch: str, refs: dict):
        ks = sizes.product_ks
        self.kinds = [f"product{k}" for k in ks] + [f"general{sizes.sparse_k}",
                                                    f"tree{sizes.sparse_k}", "allocation"]
        self.inputs = {kind: [self._input(seed, i, kind, j, sizes) for j in range(sizes.pool)]
                       for i, kind in enumerate(self.kinds)}
        self.check = _guarded(self._check)

    @staticmethod
    def _input(seed, kind_id, kind, j, sizes) -> GreedyInput:
        rng = np.random.default_rng([seed, 3, kind_id, j])
        k = sizes.sparse_k
        if kind.startswith("product"):
            k = int(kind[7:])
            return GreedyInput(kind, k, q=rng.uniform(0.05, 0.6, size=k),
                               structure="label_independent")
        if kind.startswith("general"):
            while True:
                atoms = {frozenset(int(v) for v in rng.choice(k, size=int(rng.integers(1, 7)),
                                                              replace=False))
                         for _ in range(sizes.sparse_atoms)}
                if not _laminar(list(atoms)):
                    break
            atoms = sorted(tuple(sorted(a)) for a in atoms)
            probs = rng.dirichlet(np.ones(len(atoms)))
            return GreedyInput(kind, k, dist=wc.DiscreteWeakDistribution.from_sets(
                k, list(zip(atoms, probs))), structure="general")
        if kind.startswith("tree"):
            nodes: list[tuple[int, ...]] = []
            segments = [[int(v) for v in rng.permutation(k)]]
            while segments:  # recursive halving of a shuffled label list
                seg = segments.pop()
                nodes.append(tuple(sorted(seg)))
                if len(seg) > 1:
                    cut = int(rng.integers(1, len(seg)))
                    segments += [seg[:cut], seg[cut:]]
            chosen = [nodes[i] for i in rng.choice(len(nodes), size=min(len(nodes), sizes.sparse_atoms),
                                                   replace=False)]
            probs = np.maximum(rng.dirichlet(np.ones(len(chosen))), 1e-9)
            probs /= probs.sum()
            return GreedyInput(kind, k, dist=wc.DiscreteWeakDistribution.from_sets(
                k, list(zip(chosen, probs))), structure="tree")
        curves = []
        for i in range(sizes.curves):
            if i % 2:  # product-form curve: concave
                q = np.sort(rng.uniform(0.05, 0.6, size=10))[::-1]
                c = 1.0 - np.cumprod(1.0 - q)
            else:  # arbitrary increasing curve: hull projection needed
                c = np.cumsum(rng.exponential(size=10))
            c = c / c[-1]
            c[-1] = 1.0
            curves.append(c)
        return GreedyInput(kind, 10, curves=curves, weights=np.full(sizes.curves, 1.0 / sizes.curves))

    def ops(self, cycle: int) -> list[tuple[str, Callable[[], Op]]]:
        return _pooled_ops(self.inputs, self._op, cycle)

    @staticmethod
    def _op(spec: GreedyInput) -> Op:
        if spec.curves is not None:
            return Op(spec.kind, (spec, wc.marginal_allocation(spec.curves, spec.weights, 0.1)))
        dist = spec.dist
        if dist is None:
            dist = wc.DiscreteWeakDistribution.from_marginals(spec.k, spec.q)
        sequence = wc.greedy_sequence(dist)
        sets = [wc.greedy_set(dist, eta) for eta in ETAS]
        profile = wc.size_profile(dist)
        optimal = [profile.optimal_value(eta) for eta in ETAS]
        covers = [profile.min_cover_size(eta) for eta in ETAS]
        wolsey = [wc.wolsey_constant(dist, eta) for eta in ETAS]
        structure = wc.check_structure(dist)
        return Op(spec.kind, (spec, GreedyOutput(dist, sequence, sets, optimal, covers, wolsey,
                                                 structure)))

    @staticmethod
    def _check(op: Op) -> list[str]:
        spec, r = op.out
        if spec.curves is not None:
            problems = []
            if abs(r.achieved_coverage - 0.9) > 1e-9:
                problems.append(f"allocation: coverage {r.achieved_coverage} is not 1 - alpha = 0.9")
            if len(r.etas) != len(spec.curves) or not all(0.0 <= e <= 1.0 for e in r.etas):
                problems.append("allocation: levels are not one probability per curve")
            return problems
        problems = []
        masks = np.array(r.dist.masks, dtype=np.int64)
        probs = np.array(r.dist.probs)

        def coverage(labels) -> float:
            m = sum(1 << int(y) for y in labels)
            return float(probs[(masks & m) != 0].sum())

        if sorted(r.sequence.order) != list(range(spec.k)):
            problems.append(f"{spec.kind}: greedy order is not a permutation of the labels")
        want = spec.structure
        if r.structure.value != want:
            problems.append(f"{spec.kind}: structure {r.structure.value}, expected {want}")
        for eta, s, opt, cover, K in zip(ETAS, r.sets, r.optimal, r.covers, r.wolsey):
            realised = (1.0 - s.t) * coverage(s.inner) + s.t * coverage(s.outer)
            if abs(realised - eta) > 1e-9:
                problems.append(f"{spec.kind}: greedy set at eta={eta} covers {realised}")
            size = s.expected_size
            if size < opt - 1e-9:
                problems.append(f"{spec.kind}: greedy size {size} below the optimum {opt} at eta={eta}")
            if want != "general" and abs(size - opt) > 1e-9:
                problems.append(f"{spec.kind}: greedy size {size} is not the optimum {opt} at eta={eta}")
            bound = (1.0 + math.log(K)) * cover if math.isfinite(K) else math.inf
            if len(s.outer) > bound + 1e-9:
                problems.append(f"{spec.kind}: outer set of {len(s.outer)} exceeds the Wolsey "
                                f"bound {bound} at eta={eta}")
        return problems


WORKLOADS = {cls.name: cls for cls in (Gate, EnumDeep, GreedyExact)}
