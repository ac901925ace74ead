"""End-to-end experiment harness over the synthetic generators.

One run = one task, one alpha, n_trials independent trials. One trial
(_trial) serves all four tasks: it generates a fresh dataset from a
trial-derived seed (synth._generate), splits it train/calibration/test,
fits each score family the methods read on the training block, scores the
calibration and the test block under each family, calibrates each method's
split-conformal threshold t on its calibration scores, counts each family's
test level sets {y : s(x, y) <= t} once at all its methods' thresholds, and
reports strong coverage (strong score <= t), weak coverage (weak score <= t)
and the set sizes. Rows land in a fixed-schema CSV (appended, never
overwritten) plus a JSON-lines twin carrying extra fields; a metadata JSON
echoes the configuration.

Methods, each one score of one family (_METHODS); a task is a fit and a
score, each of one family (_TASKS):
  wsc          main family, best-case (weak) scores   -> weak coverage
  fsc          main family, true-label scores         -> strong coverage
  pessimistic  main family, worst-case scores (classify/regress only)
  gws          gws family, its weak scores (classify only): greedy
               randomized sets from fitted label marginals, conformalized
               through the nested score

A row's seconds are its method's calibration plus its coverage and size
statistics. Model fitting and the level-set counting are shared across
methods and left out. Fits call the public trainers of synth and ranking
by name, so a tracer that wraps those names times them.

Every trial scores whole blocks of records: the generators hold each weak
label kind as an array block (synth), and one block-score function per task
turns a block's scores, relevances or costs plus its weak block into the
strong, weak and, where defined, pessimistic scores:
  classify  conformal.set_block_scores       a masked min and max
  rank      ranking.prefix_block_scores      the completed prefix
  match     matching.matching_block_scores   a DP over subsets of columns
  regress   regression.interval_block_scores a clamp
No per-record weak-label object is built on these paths, except for the
per-record engine checks below.

Level sets are counted block by block, for all thresholds at once:
  classify  labels at or under each threshold;
  rank      from the rankings within a Kendall distance of each record's
            best, and a bound on those outside it; a record with a score
            within the search's rounding margin of a threshold runs the
            best-first search (ranking.levelset_counts_batch);
  match     by branch and bound on the DP over subsets of columns: each
            record's partial assignments grow a row at a time while their
            total plus the cheapest completion stays within the threshold
            and a rounding margin (matching.matching_levelset_counts); above
            matching._DP_MAX_K = 12, matching scores and counts each record
            by Hungarian solves and best-first enumeration;
  regress   the interval width 2t.
The rank and match counts are capped at m_max (coverage columns stay exact).
Their block-level paths check their result on the first record of the
block against the per-record engine (RankingProblem best-first counts;
Hungarian base, strong and weak scores) and raise RuntimeError on a
disagreement. A record counts as truncated when more than m_max
configurations lie at or under the threshold; every path finds, enumerates
or keeps m_max + 1 of them to tell. The truncated fraction is in the JSON
rows and in run's printed summary, not the CSV.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
import platform
import sys
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, synth
from .conformal import TOL, conformal_threshold, set_block_scores
from .greedy import label_independent_nested_scores
from .labels import _as_int, _as_real, _strict_json
from .matching import (
    matching_block_scores,
    matching_levelset_counts,
    matching_score,
    min_matching_cost,
    partial_matching_score,
)
from .mbest import _levelset_counts
from .ranking import (
    PsiSpec,
    RankingProblem,
    levelset_counts_batch,
    listnet_train,
    predict_relevances,
    prefix_block_scores,
)
from .regression import interval_block_scores

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

# the run's own settings, in the form of synth._RANGES; k is checked here for
# every task, also for one whose generator does not read it
_RUN_RANGES = {
    "alpha": (lambda v, s: 0 < _as_real(v) < 1, "a number in (0, 1)"),
    "n_trials": (lambda v, s: _as_int(v) >= 1, "an integer >= 1"),
    "n": (lambda v, s: 10 <= _as_int(v) <= sys.maxsize, "an integer in [10, sys.maxsize]"),
    "m_max": (lambda v, s: _as_int(v) >= 1, "an integer >= 1"),
    "k": (lambda v, s: v is None or _as_int(v) >= 2, "None or an integer >= 2"),
    "methods": (
        lambda v, s: isinstance(v, (list, tuple)) and all(isinstance(m, str) for m in v)
        and 0 < len(set(v)) == len(v),
        "a list of distinct method names, at least one",
    ),
    "split": (
        lambda v, s: isinstance(v, (list, tuple)) and len(v) == 3
        and all(_as_real(f) >= 0 for f in v),
        "three real numbers >= 0",
    ),
    "out": (lambda v, s: v is None or isinstance(v, str), "a path or None"),
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
        if not isinstance(self.task, str) or self.task not in _TASKS:
            raise ValueError(f"task must be one of {tuple(_TASKS)}, not {self.task!r}")
        synth._check_settings(vars(self), _RUN_RANGES)
        bad = [m for m in self.methods if m not in _TASKS[self.task].methods]
        if bad:
            raise ValueError(f"methods {bad} not available for task {self.task!r}")
        self.psi()  # a bad psi_c is rejected here, before any trial runs
        # every generator setting, also those the task's generator does not read
        synth._check_settings(self._generator_settings(self.seed))
        _, ca, te = synth.three_way_split(self.n, self.split)
        if ca.start == ca.stop or te.start == te.stop:
            raise ValueError(
                f"split {tuple(self.split)} leaves the calibration or test block empty at n={self.n}"
            )
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "split", tuple(self.split))

    @property
    def resolved_k(self) -> int:
        return self.k if self.k is not None else _TASKS[self.task].default_k

    @property
    def param(self) -> float:
        return getattr(self, _TASKS[self.task].param)

    def psi(self) -> PsiSpec:
        c = _as_real(self.psi_c, "psi parameter 'c'")
        return PsiSpec.hinge() if c == 0 else PsiSpec.exp_weighted(c)

    def _generator_settings(self, seed: int) -> dict:
        """Every generator setting this config holds, with the given seed, and
        k resolved for a task whose generator reads k (left out otherwise)."""
        settings = {**vars(self), "seed": seed, "k": self.resolved_k}
        if "k" not in synth._TASK_DATA[self.task][1]:
            del settings["k"]
        return settings


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


def _size_stats(sizes: np.ndarray) -> tuple[float, float, float]:
    if np.isinf(sizes).all():
        # quantile interpolation between infinities warns; the answer is plain
        return math.inf, math.inf, math.inf
    p50, p90 = np.quantile(sizes, [0.5, 0.9])
    return float(sizes.mean()), float(p50), float(p90)


def _check_first_record(task: str, fast, engine, tol: float = 0.0) -> None:
    """Guard of the block-level paths: on the block's first record they must
    agree with the per-record engine, within tol."""
    if any(abs(float(a) - float(b)) > tol for a, b in zip(fast, engine, strict=True)):
        raise RuntimeError(
            f"{task}: block-level result {fast} differs from the per-record engine's "
            f"{engine} on the first record of the block"
        )


# --- per-task fits and scores --------------------------------------------------
#
# fit(cfg, family, data, tr) -> the family's model, fitted on the training block;
# score(cfg, family, model, data, block, stream) -> _Scored, where stream is
# the block's SeedSequence([trial seed, role]), which only gws draws from.

_METHODS = {
    "wsc": ("main", "weak"),
    "fsc": ("main", "strong"),
    "pessimistic": ("main", "pessimistic"),
    "gws": ("gws", "weak"),
}


class _Scored(NamedTuple):
    """One block scored under one family: its records' strong (true-label),
    weak (best-case) and pessimistic (worst-case; None where the task has no
    such score) scores, and the counter sizes(thresholds) -> (capped sizes,
    over-cap flags) of their level sets, one column per threshold."""

    strong: np.ndarray
    weak: np.ndarray
    pessimistic: np.ndarray | None
    sizes: Callable[[list[float]], tuple[np.ndarray, np.ndarray]]


def _classify_fit(cfg: ExperimentConfig, family: str, data, tr: slice):
    """A softmax fit, or for gws per-label logistic fits."""
    if family == "gws":
        return synth.train_per_label_logistic(data.x[tr], data.member[tr].astype(float))
    return synth.train_multinomial_logistic(data.x[tr], data.y[tr], cfg.resolved_k)


def _classify_score(cfg: ExperimentConfig, family: str, model, data, block: slice, stream) -> _Scored:
    """Cumulative-probability scores of the softmax fit, or for gws the nested
    greedy scores of the fitted label marginals; sizes count every label, none
    capped."""
    if family == "gws":
        q = synth.predict_label_marginals(model, data.x[block])
        draws = np.random.default_rng(stream).uniform(size=len(q))
        scores = label_independent_nested_scores(q, draws)
    else:
        probs = synth.predict_class_probs(model, data.x[block])
        scores = synth.cumulative_probability_scores(probs)

    def sizes(thresholds: list[float]):
        counts = (scores[:, :, None] <= np.asarray(thresholds)).sum(axis=1)
        return counts, np.zeros(counts.shape, dtype=bool)

    return _Scored(*set_block_scores(scores, data.y[block], data.member[block]), sizes)


def _rank_fit(cfg: ExperimentConfig, family: str, data, tr: slice):
    """A ListNet fit."""
    return listnet_train(data.x[tr], data.order[tr])


def _rank_score(cfg: ExperimentConfig, family: str, weights, data, block: slice, stream) -> _Scored:
    """Prefix-completion scores of the fitted relevances; sizes counted from
    Kendall balls across the block."""
    psi = cfg.psi()
    rel = predict_relevances(weights, data.x[block])
    strong, weak = prefix_block_scores(rel, data.order[block], data.lengths[block], psi)

    def sizes(thresholds: list[float]):
        counts, flags = levelset_counts_batch(rel, psi, thresholds, cfg.m_max)
        if len(counts):
            engine = _levelset_counts(RankingProblem(rel[0], psi), thresholds, cfg.m_max)
            _check_first_record("rank", [*counts[0], *flags[0]], [*engine[0], *engine[1]])
        return counts, flags

    return _Scored(strong, weak, None, sizes)


def _match_fit(cfg: ExperimentConfig, family: str, data, tr: slice):
    """No fit: the generator gives each record's costs."""
    return None


def _match_score(cfg: ExperimentConfig, family: str, model, data, block: slice, stream) -> _Scored:
    """Each record's scores translated by its optimal cost; sizes counted
    across the block by matching_levelset_counts."""
    costs = data.costs[block]
    strong, weak, base = matching_block_scores(costs, data.planted[block], data.revealed[block])
    if len(strong):
        ref = min_matching_cost(costs[0])
        engine = [matching_score(costs[0], data.y[block.start]) - ref,
                  partial_matching_score(costs[0], data.weak[block.start]) - ref]
        _check_first_record("match", [strong[0], weak[0]], engine, TOL)

    def sizes(thresholds: list[float]):
        return matching_levelset_counts(costs, base, thresholds, cfg.m_max)

    return _Scored(strong, weak, None, sizes)


def _regress_fit(cfg: ExperimentConfig, family: str, data, tr: slice):
    """An OLS fit."""
    return synth.fit_ols(data.x[tr], data.y[tr])


def _regress_score(cfg: ExperimentConfig, family: str, beta, data, block: slice, stream) -> _Scored:
    """Absolute-residual scores; sizes are the interval width 2t, the same for
    every record."""
    strong, weak, pessimistic = interval_block_scores(
        data.x[block] @ beta, data.y[block], data.lo[block], data.hi[block]
    )

    def sizes(thresholds: list[float]):
        widths = np.broadcast_to(2.0 * np.asarray(thresholds), (strong.size, len(thresholds)))
        return widths, np.zeros(widths.shape, dtype=bool)

    return _Scored(strong, weak, pessimistic, sizes)


@dataclass(frozen=True)
class _Task:
    """What the harness knows of a task besides its generator (synth._TASK_DATA):
    its fit and score, its default k, the methods it offers, the setting
    reported as the CSV's param, and the score named in the sidecar."""

    fit: Callable[..., object]
    score: Callable[..., _Scored]
    default_k: int
    methods: tuple[str, ...]
    param: str
    score_name: str


_TASKS = {
    "classify": _Task(_classify_fit, _classify_score, 10, ("wsc", "fsc", "gws", "pessimistic"),
                      "sigma", "cumulative_probability"),
    "rank": _Task(_rank_fit, _rank_score, 7, ("wsc", "fsc"), "sigma", "pairwise_discordance"),
    "match": _Task(_match_fit, _match_score, 6, ("wsc", "fsc"), "noise",
                   "translated_matching_cost"),
    "regress": _Task(_regress_fit, _regress_score, 0, ("wsc", "fsc", "pessimistic"), "mu",
                     "absolute_residual"),
}


# --- the trial -----------------------------------------------------------------


def _trial(cfg: ExperimentConfig, trial: int) -> list[TrialResult]:
    """One trial of any task: generate and split the data, fit each score
    family the methods read, score the calibration and the test block under
    each family, calibrate each method on its calibration scores, count each
    family's test level sets once at its methods' thresholds, and report each
    method's coverages and sizes on the test block."""
    seed = _trial_seed(cfg.seed, trial)
    task = _TASKS[cfg.task]
    data = synth._generate(cfg.task, cfg._generator_settings(seed))
    tr, ca, te = synth.three_way_split(cfg.n, cfg.split)
    families: dict[str, list[str]] = {}  # each family the methods read, with its methods
    for method in cfg.methods:
        families.setdefault(_METHODS[method][0], []).append(method)
    models = {f: task.fit(cfg, f, data, tr) for f in families}

    def scored(block: slice, role: int) -> dict[str, _Scored]:
        stream = np.random.SeedSequence([seed, role])
        return {f: task.score(cfg, f, models[f], data, block, stream) for f in families}

    cal, test = scored(ca, 101), scored(te, 102)
    thresholds, calibration_s = {}, {}
    for method in cfg.methods:
        family, score = _METHODS[method]
        scores = getattr(cal[family], score)
        start = time.perf_counter()
        thresholds[method] = conformal_threshold(scores, cfg.alpha).value
        calibration_s[method] = time.perf_counter() - start
    sized = {}
    for family, methods in families.items():
        counts, over = test[family].sizes([thresholds[m] for m in methods])
        for col, method in enumerate(methods):
            sized[method] = counts[:, col].astype(float), over[:, col]
    rows = []
    for method in cfg.methods:
        start = time.perf_counter()
        t = thresholds[method]
        block = test[_METHODS[method][0]]
        sizes, over = sized[method]
        avg, p50, p90 = _size_stats(sizes)
        rows.append(
            TrialResult(
                trial=trial,
                method=method,
                param=cfg.param,
                strong_cov=float((block.strong <= t).mean()),
                weak_cov=float((block.weak <= t).mean()),
                avg_size=avg,
                p50_size=p50,
                p90_size=p90,
                threshold=t,
                seconds=calibration_s[method] + time.perf_counter() - start,
                truncation_fraction=float(over.mean()),
            )
        )
    return rows


# --- output ------------------------------------------------------------------


def _write_outputs(cfg: ExperimentConfig, results: list[TrialResult]) -> None:
    assert cfg.out is not None
    path = cfg.out
    meta = {
        "config": dataclasses.asdict(cfg),
        "columns": CSV_COLUMNS,
        "score": _TASKS[cfg.task].score_name,
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        "package_version": __version__,
        "trial_seeds": [_trial_seed(cfg.seed, t) for t in range(cfg.n_trials)],
        "notes": [
            "set sizes for rank/match are capped at m_max; see truncation_fraction in the jsonl rows",
            "seconds column excluded from determinism guarantees",
        ],
    }
    # strict JSON, serialised before any file is touched
    meta_text = json.dumps(meta, indent=2, sort_keys=True, allow_nan=False) + "\n"
    jsonl_text = "".join(_strict_json(dataclasses.asdict(row)) + "\n" for row in results)
    fresh = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", encoding="utf-8") as fh:
        if fresh:
            fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in results:
            fh.write(row.csv_row() + "\n")
    stem = path[: -len(".csv")] if path.endswith(".csv") else path
    with open(stem + ".jsonl", "a", encoding="utf-8") as fh:
        fh.write(jsonl_text)
    with open(stem + ".meta.json", "w", encoding="utf-8") as fh:
        fh.write(meta_text)


def run(cfg: ExperimentConfig) -> list[TrialResult]:
    """Run all trials of an experiment; write outputs when cfg.out is set."""
    results: list[TrialResult] = []
    for trial in range(cfg.n_trials):
        results.extend(_trial(cfg, trial))
    if cfg.out is not None:
        _write_outputs(cfg, results)
    return results
