"""End-to-end experiment harness over the synthetic generators.

One run = one task, one alpha, n_trials independent trials. Each trial
generates a fresh dataset from a trial-derived seed, splits it
train/calibration/test, fits whatever model the task needs on the training
block, calibrates each requested method on the calibration block, and
evaluates on the test block. Rows land in a fixed-schema CSV (appended,
never overwritten) plus a JSON-lines twin carrying extra fields; a
metadata JSON echoes the configuration.

Methods:
  wsc          calibrate on best-case (weak) scores     -> weak coverage
  fsc          calibrate on true-label scores           -> strong coverage
  gws          greedy randomized sets from fitted label marginals,
               conformalized through the nested score (classify only)
  pessimistic  calibrate on worst-case scores (classify/regress only)

Reported seconds cover calibration plus evaluation for the method's row;
model fitting is shared across methods and excluded.

Rank and match share one permutation-space trial; the tasks differ only in
data, fitting, scores and how the test block's level sets are counted. Set
sizes there are level-set counts capped at m_max (coverage columns stay
exact), counted once for the whole test block and all methods' thresholds,
block by block rather than record by record:
  rank   the ranking best-first search run in lockstep across records
         (ranking.levelset_counts_batch);
  match  one table of all k! assignment totals per chunk of records, which
         also gives the base, strong and weak scores, for spaces of at most
         10^4 assignments; per-record Hungarian solves and best-first
         enumeration beyond that.
Both block-level paths check their result on the first record of the block
against the per-record engine (RankingProblem best-first counts; Hungarian
base, strong and weak scores) and raise RuntimeError on a disagreement.
A record counts as truncated when more than m_max configurations lie at or
under the threshold; every path enumerates or keeps m_max + 1 of them to
tell. The truncated fraction is in the JSON rows, not the CSV.
"""
from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
import platform
import time
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import __version__, synth
from .conformal import TOL, conformal_threshold
from .greedy import label_independent_nested_scores
from .labels import ExplicitSet
from .matching import MatchingProblem, matching_score, min_matching_cost, partial_matching_score
from .mbest import enumerate_until
from .ranking import (
    PsiSpec,
    RankingProblem,
    complete_prefix,
    levelset_counts_batch,
    listnet_train,
    predict_relevances,
    rank_scores_batch,
)
from .regression import interval_partial_score, interval_pessimistic_score

__all__ = ["ExperimentConfig", "TrialResult", "run", "CSV_COLUMNS"]

CSV_COLUMNS = [
    "trial",
    "method",
    "param",
    "strong_cov",
    "weak_cov",
    "avg_size",
    "p50_size",
    "p90_size",
    "threshold",
    "seconds",
]

_TASKS = ("classify", "rank", "match", "regress")
_DEFAULT_K = {"classify": 10, "rank": 7, "match": 6, "regress": 0}
# full-space scoring beats per-record best-first enumeration up to this size
_EXHAUSTIVE_SPACE_CAP = 10_000
# assignment totals per chunk of the full-space table (64 records at k = 6)
_TABLE_ENTRIES = 64 * 720
_METHODS = {
    "classify": ("wsc", "fsc", "gws", "pessimistic"),
    "rank": ("wsc", "fsc"),
    "match": ("wsc", "fsc"),
    "regress": ("wsc", "fsc", "pessimistic"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    task: str = "classify"
    alpha: float = 0.1
    n_trials: int = 20
    seed: int = 0
    n: int = 4000
    split: tuple[float, float, float] = (0.25, 0.25, 0.5)
    k: int | None = None
    d: int = 2
    sigma: float = 1.0  # classify/rank score noise
    noise: float = 0.25  # match cost noise
    mu: float = 0.05  # regress mean half-width
    min_weak_size: int = 1  # classify: lower bound on |W|
    min_half_width: float | None = None  # regress: lower bound on Z
    methods: tuple[str, ...] = ("wsc", "fsc")
    m_max: int = 20
    psi_c: float = 0.0  # rank: 0 = hinge, > 0 = exp-weighted
    out: str | None = None

    def __post_init__(self):
        if self.task not in _TASKS:
            raise ValueError(f"task must be one of {_TASKS}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if self.n_trials < 1 or self.n < 10 or self.m_max < 1:
            raise ValueError("n_trials >= 1, n >= 10, m_max >= 1 required")
        bad = [m for m in self.methods if m not in _METHODS[self.task]]
        if bad:
            raise ValueError(f"methods {bad} not available for task {self.task!r}")
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "split", tuple(self.split))

    @property
    def resolved_k(self) -> int:
        return self.k if self.k is not None else _DEFAULT_K[self.task]

    @property
    def param(self) -> float:
        return {"classify": self.sigma, "rank": self.sigma, "match": self.noise, "regress": self.mu}[
            self.task
        ]

    def psi(self) -> PsiSpec:
        return PsiSpec.hinge() if self.psi_c == 0 else PsiSpec.exp_weighted(self.psi_c)


@dataclass
class TrialResult:
    trial: int
    method: str
    param: float
    strong_cov: float
    weak_cov: float
    avg_size: float
    p50_size: float
    p90_size: float
    threshold: float
    seconds: float
    truncation_fraction: float = 0.0

    def csv_row(self) -> str:
        vals = [getattr(self, c) for c in CSV_COLUMNS]
        return ",".join(
            str(v) if isinstance(v, (int, str)) else repr(float(v)) for v in vals
        )


def _trial_seed(seed: int, trial: int) -> int:
    return int(np.random.SeedSequence([seed, trial]).generate_state(1)[0])


def _weak_mask(weak: Sequence[ExplicitSet], k: int) -> np.ndarray:
    mask = np.zeros((len(weak), k), dtype=bool)
    for i, w in enumerate(weak):
        mask[i, list(w.labels)] = True
    return mask


def _size_stats(sizes: np.ndarray) -> tuple[float, float, float]:
    if np.isinf(sizes).all():
        # quantile interpolation between infinities warns; the answer is plain
        return math.inf, math.inf, math.inf
    return (
        float(sizes.mean()),
        float(np.quantile(sizes, 0.5)),
        float(np.quantile(sizes, 0.9)),
    )


def _levelset_counts(
    problem, thresholds: Sequence[float], cap: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sizes of {y : score <= t} for several t on one problem, capped.

    One enumeration up to the largest threshold, of at most cap + 1
    configurations, serves every threshold. Returns min(size, cap) and a
    flag for sizes above cap.
    """
    result = enumerate_until(problem, max(thresholds), cap + 1)
    exact = np.array([bisect_right(result.scores, t) for t in thresholds])
    return np.minimum(exact, cap), exact > cap


def _check_first_record(task: str, fast, engine, tol: float = 0.0) -> None:
    """Guard of the block-level paths: on the block's first record they must
    agree with the per-record engine, within tol."""
    if any(abs(float(a) - float(b)) > tol for a, b in zip(fast, engine, strict=True)):
        raise RuntimeError(
            f"{task}: block-level result {fast} differs from the per-record engine's "
            f"{engine} on the first record of the block"
        )


def _calibrate(
    cfg: ExperimentConfig, cal_scores: dict[str, np.ndarray]
) -> dict[str, tuple[float, float]]:
    """Each method's threshold value and the seconds its calibration took."""
    calibrated = {}
    for method in cfg.methods:
        start = time.perf_counter()
        t = conformal_threshold(cal_scores[method], cfg.alpha)
        calibrated[method] = (t.value, time.perf_counter() - start)
    return calibrated


def _threshold_rows(
    cfg: ExperimentConfig,
    trial: int,
    calibrated: dict[str, tuple[float, float]],
    evaluate,
) -> list[TrialResult]:
    """Evaluate each calibrated method with the shared fn.

    evaluate(threshold_value, method) must return (strong_cov, weak_cov,
    sizes, truncation_fraction) on the test block. A row's seconds are its
    calibration plus its evaluation.
    """
    rows = []
    for method, (value, calibration_s) in calibrated.items():
        start = time.perf_counter()
        strong_cov, weak_cov, sizes, trunc = evaluate(value, method)
        avg, p50, p90 = _size_stats(sizes)
        rows.append(
            TrialResult(
                trial=trial,
                method=method,
                param=cfg.param,
                strong_cov=strong_cov,
                weak_cov=weak_cov,
                avg_size=avg,
                p50_size=p50,
                p90_size=p90,
                threshold=value,
                seconds=calibration_s + time.perf_counter() - start,
                truncation_fraction=trunc,
            )
        )
    return rows


# --- per-task trials ---------------------------------------------------------


def _classify_trial(cfg: ExperimentConfig, trial: int) -> list[TrialResult]:
    k = cfg.resolved_k
    seed = _trial_seed(cfg.seed, trial)
    data = synth.gen_multiclass(
        synth.MulticlassConfig(
            n=cfg.n, k=k, d=cfg.d, sigma=cfg.sigma, seed=seed,
            split=cfg.split, min_weak_size=cfg.min_weak_size,
        )
    )
    tr, ca, te = synth.three_way_split(cfg.n, cfg.split)
    mask_ca = _weak_mask(data.weak[ca], k)
    mask_te = _weak_mask(data.weak[te], k)

    need_probs = any(m in cfg.methods for m in ("wsc", "fsc", "pessimistic"))
    cal_scores: dict[str, np.ndarray] = {}
    score_ca = score_te = None
    if need_probs:
        w_model, _ = synth.train_multinomial_logistic(data.x[tr], data.y[tr], k)
        score_ca = synth.cumulative_probability_scores(
            synth.predict_class_probs(w_model, data.x[ca])
        )
        score_te = synth.cumulative_probability_scores(
            synth.predict_class_probs(w_model, data.x[te])
        )
        if "wsc" in cfg.methods:
            cal_scores["wsc"] = np.where(mask_ca, score_ca, np.inf).min(axis=1)
        if "fsc" in cfg.methods:
            cal_scores["fsc"] = score_ca[np.arange(score_ca.shape[0]), data.y[ca]]
        if "pessimistic" in cfg.methods:
            cal_scores["pessimistic"] = np.where(mask_ca, score_ca, -np.inf).max(axis=1)
    nested_ca = nested_te = None
    if "gws" in cfg.methods:
        w_marg, _ = synth.train_per_label_logistic(
            data.x[tr], _weak_mask(data.weak[tr], k).astype(float)
        )
        q_ca = synth.predict_label_marginals(w_marg, data.x[ca])
        q_te = synth.predict_label_marginals(w_marg, data.x[te])
        u_ca = np.random.default_rng(np.random.SeedSequence([seed, 101])).uniform(
            size=q_ca.shape[0]
        )
        u_te = np.random.default_rng(np.random.SeedSequence([seed, 102])).uniform(
            size=q_te.shape[0]
        )
        nested_ca = label_independent_nested_scores(q_ca, u_ca)
        nested_te = label_independent_nested_scores(q_te, u_te)
        cal_scores["gws"] = np.where(mask_ca, nested_ca, np.inf).min(axis=1)

    y_te = data.y[te]

    def evaluate(t_value: float, method: str):
        s_te = nested_te if method == "gws" else score_te
        member = s_te <= t_value
        strong = member[np.arange(member.shape[0]), y_te]
        weak = (member & mask_te).any(axis=1)
        sizes = member.sum(axis=1).astype(float)
        return float(strong.mean()), float(weak.mean()), sizes, 0.0

    return _threshold_rows(cfg, trial, _calibrate(cfg, cal_scores), evaluate)


def _rank_task(cfg: ExperimentConfig, seed: int):
    """Ranking data and ListNet fit: (strong, weak) scores on the calibration
    and test blocks, and a counter of the test block's level-set sizes."""
    data = synth.gen_ranking(
        synth.RankingSimConfig(n=cfg.n, k=cfg.resolved_k, d=cfg.d, sigma=cfg.sigma, seed=seed)
    )
    tr, ca, te = synth.three_way_split(cfg.n, cfg.split)
    psi = cfg.psi()
    weights, _ = listnet_train(data.x[tr], data.y[tr])

    def scored(block: slice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        rel = predict_relevances(weights, data.x[block])
        completed = [complete_prefix(rel[i], w) for i, w in enumerate(data.weak[block])]
        strong = rank_scores_batch(rel, np.array(data.y[block]), psi)
        return rel, strong, rank_scores_batch(rel, np.array(completed), psi)

    _, strong_ca, weak_ca = scored(ca)
    rel_te, strong_te, weak_te = scored(te)

    def count(thresholds: list[float]):
        counts, flags = levelset_counts_batch(rel_te, psi, thresholds, cfg.m_max)
        if len(counts):
            engine = _levelset_counts(RankingProblem(rel_te[0], psi), thresholds, cfg.m_max)
            _check_first_record("rank", [*counts[0], *flags[0]], [*engine[0], *engine[1]])
        return counts, flags

    return (strong_ca, weak_ca), (strong_te, weak_te), count


def _match_by_table(data, block: slice, cap: int):
    """Translated (strong, weak) scores of a block of matching records from
    one table of all k! assignment totals per chunk of records, and a
    counter of their level sets from each record's cap + 1 smallest
    translated totals. The first record's scores are checked against the
    Hungarian solves of _match_by_engine."""
    costs = data.costs[block]
    n, k = costs.shape[:2]
    perms = list(itertools.permutations(range(k)))
    column = {perm: j for j, perm in enumerate(perms)}
    truth = np.array([column[y] for y in data.y[block]])
    perms = np.array(perms)
    revealed = np.full((n, k), -1)
    for i, w in enumerate(data.weak[block]):
        for u, v in w.pairs:
            revealed[i, u] = v
    keep = min(cap + 1, perms.shape[0])
    strong, weak, smallest = np.empty(n), np.empty(n), np.empty((n, keep))
    step = max(1, _TABLE_ENTRIES // perms.shape[0])
    for start in range(0, n, step):
        rows = slice(start, start + step)
        chunk = costs[rows]
        totals = chunk[:, 0, perms[:, 0]]  # added row by row, like every matching score
        for u in range(1, k):
            totals += chunk[:, u, perms[:, u]]
        base = totals.min(axis=1)
        strong[rows] = totals[np.arange(totals.shape[0]), truth[rows]] - base
        fits = np.ones(totals.shape, dtype=bool)  # extends the revealed pairs
        for u in range(k):
            pin = revealed[rows, u, None]
            fits &= (perms[:, u] == pin) | (pin < 0)
        weak[rows] = np.where(fits, totals, np.inf).min(axis=1) - base
        totals -= base[:, None]
        if keep < perms.shape[0]:
            totals = np.partition(totals, keep - 1, axis=1)[:, :keep]
        smallest[rows] = totals
    if n:
        first = range(len(data.costs))[block][0]
        strong_ref, weak_ref, _ = _match_by_engine(data, slice(first, first + 1), cap)
        _check_first_record("match", [strong[0], weak[0]], [strong_ref[0], weak_ref[0]], TOL)

    def count(thresholds: list[float]):
        exact = (smallest[:, :, None] <= np.asarray(thresholds)).sum(axis=1)
        return np.minimum(exact, cap), exact > cap

    return strong, weak, count


def _match_by_engine(data, block: slice, cap: int):
    """Translated (strong, weak) scores of a block of matching records from
    per-record Hungarian solves, and a best-first level-set counter."""
    costs = data.costs[block]
    bases = [min_matching_cost(c) for c in costs]
    strong = [matching_score(c, y) - b for c, y, b in zip(costs, data.y[block], bases)]
    weak = [partial_matching_score(c, w) - b for c, w, b in zip(costs, data.weak[block], bases)]

    def count(thresholds: list[float]):
        per_record = [
            _levelset_counts(MatchingProblem(c, offset=b), thresholds, cap)
            for c, b in zip(costs, bases)
        ]
        counts, flags = zip(*per_record)
        return np.array(counts), np.array(flags)

    return np.asarray(strong), np.asarray(weak), count


def _match_task(cfg: ExperimentConfig, seed: int):
    """Matching data, translated by each record's optimal cost: (strong, weak)
    scores on the calibration and test blocks, and a counter of the test
    block's level-set sizes. Spaces of at most _EXHAUSTIVE_SPACE_CAP
    assignments are scored whole; larger ones go through the Hungarian
    solver and best-first enumeration per record."""
    k = cfg.resolved_k
    data = synth.gen_matching(cfg.n, k, cfg.noise, seed)
    _, ca, te = synth.three_way_split(cfg.n, cfg.split)
    scored = _match_by_table if math.factorial(k) <= _EXHAUSTIVE_SPACE_CAP else _match_by_engine
    strong_ca, weak_ca, _ = scored(data, ca, cfg.m_max)
    strong_te, weak_te, count = scored(data, te, cfg.m_max)
    return (strong_ca, weak_ca), (strong_te, weak_te), count


def _permutation_trial(cfg: ExperimentConfig, trial: int) -> list[TrialResult]:
    """A rank or match trial: calibrate on the weak or true-label scores, then
    count the test block's level sets once for all thresholds."""
    task = _rank_task if cfg.task == "rank" else _match_task
    (strong_ca, weak_ca), (strong_te, weak_te), count = task(cfg, _trial_seed(cfg.seed, trial))
    calibrated = _calibrate(cfg, {"wsc": weak_ca, "fsc": strong_ca})
    counts, capped = count([value for value, _ in calibrated.values()])

    def evaluate(t_value: float, method: str):
        col = list(calibrated).index(method)
        return (
            float((strong_te <= t_value).mean()),
            float((weak_te <= t_value).mean()),
            counts[:, col].astype(float),
            float(capped[:, col].mean()),
        )

    return _threshold_rows(cfg, trial, calibrated, evaluate)


def _regress_trial(cfg: ExperimentConfig, trial: int) -> list[TrialResult]:
    seed = _trial_seed(cfg.seed, trial)
    data = synth.gen_regression(
        cfg.n, cfg.d, cfg.mu, seed, min_half_width=cfg.min_half_width
    )
    tr, ca, te = synth.three_way_split(cfg.n, cfg.split)
    beta = synth.fit_ols(data.x[tr], data.y[tr])
    pred_ca = data.x[ca] @ beta
    pred_te = data.x[te] @ beta

    weak_ca_labels = data.weak[ca]
    weak_te_labels = data.weak[te]
    cal_scores: dict[str, np.ndarray] = {}
    if "wsc" in cfg.methods:
        cal_scores["wsc"] = np.array(
            [interval_partial_score(p, w) for p, w in zip(pred_ca, weak_ca_labels)]
        )
    if "fsc" in cfg.methods:
        cal_scores["fsc"] = np.abs(pred_ca - data.y[ca])
    if "pessimistic" in cfg.methods:
        cal_scores["pessimistic"] = np.array(
            [interval_pessimistic_score(p, w) for p, w in zip(pred_ca, weak_ca_labels)]
        )

    strong_te = np.abs(pred_te - data.y[te])
    weak_te = np.array(
        [interval_partial_score(p, w) for p, w in zip(pred_te, weak_te_labels)]
    )

    def evaluate(t_value: float, method: str):
        strong = strong_te <= t_value
        weak = weak_te <= t_value
        sizes = np.full(strong_te.size, 2.0 * t_value)
        return float(strong.mean()), float(weak.mean()), sizes, 0.0

    return _threshold_rows(cfg, trial, _calibrate(cfg, cal_scores), evaluate)


_TRIALS = {
    "classify": _classify_trial,
    "rank": _permutation_trial,
    "match": _permutation_trial,
    "regress": _regress_trial,
}


# --- output ------------------------------------------------------------------


def _write_outputs(cfg: ExperimentConfig, results: list[TrialResult]) -> None:
    assert cfg.out is not None
    path = cfg.out
    fresh = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", encoding="utf-8") as fh:
        if fresh:
            fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in results:
            fh.write(row.csv_row() + "\n")
    stem = path[: -len(".csv")] if path.endswith(".csv") else path
    with open(stem + ".jsonl", "a", encoding="utf-8") as fh:
        for row in results:
            fh.write(json.dumps(dataclasses.asdict(row)) + "\n")
    meta = {
        "config": dataclasses.asdict(cfg),
        "columns": CSV_COLUMNS,
        "score": {
            "classify": "cumulative_probability",
            "rank": "pairwise_discordance",
            "match": "translated_matching_cost",
            "regress": "absolute_residual",
        }[cfg.task],
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        "package_version": __version__,
        "trial_seeds": [_trial_seed(cfg.seed, t) for t in range(cfg.n_trials)],
        "notes": [
            "set sizes for rank/match are capped at m_max; see truncation_fraction in the jsonl rows",
            "seconds column excluded from determinism guarantees",
        ],
    }
    with open(stem + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run(cfg: ExperimentConfig) -> list[TrialResult]:
    """Run all trials of an experiment; write outputs when cfg.out is set."""
    if not cfg.methods:
        raise ValueError("at least one method required")
    results: list[TrialResult] = []
    trial_fn = _TRIALS[cfg.task]
    for trial in range(cfg.n_trials):
        results.extend(trial_fn(cfg, trial))
    if cfg.out is not None:
        _write_outputs(cfg, results)
    return results
