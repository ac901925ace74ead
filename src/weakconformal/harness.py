"""End-to-end experiment harness over the synthetic generators.

One run = one task, one alpha, n_trials independent trials. One trial
serves all four tasks. It generates a fresh dataset from a trial-derived
seed (synth._generate) and splits it train/calibration/test; the task
function fits whatever model the task needs on the training block and
scores both other blocks; the trial then calibrates each requested method's
split-conformal threshold t on its calibration scores, counts the test
block's level sets {y : s(x, y) <= t} once for all methods that share them,
and reports strong coverage (strong score <= t), weak coverage (weak score
<= t) and the set sizes. Rows land in a fixed-schema CSV (appended, never
overwritten) plus a JSON-lines twin carrying extra fields; a metadata JSON
echoes the configuration.

Methods:
  wsc          calibrate on best-case (weak) scores     -> weak coverage
  fsc          calibrate on true-label scores           -> strong coverage
  gws          greedy randomized sets from fitted label marginals,
               conformalized through the nested score (classify only)
  pessimistic  calibrate on worst-case scores (classify/regress only)

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
  match     matching.matching_block_scores   the pinned columns of the table
  regress   regression.interval_block_scores a clamp
No per-record weak-label object is built on these paths, except for the
per-record engine checks below and matchings of k >= 8.

Level sets are counted block by block, for all thresholds at once:
  classify  labels at or under each threshold;
  rank      from the rankings within a Kendall distance of each record's
            best, and a bound on those outside it; a record with a score
            within the search's rounding margin of a threshold runs the
            best-first search (ranking.levelset_counts_batch);
  match     one table of all k! assignment totals per chunk of records,
            which also gives the base, strong and weak scores, for spaces
            of at most 10^4 assignments; per-record Hungarian solves and
            best-first enumeration beyond that;
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
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import __version__, synth
from .conformal import TOL, conformal_threshold, set_block_scores
from .greedy import label_independent_nested_scores
from .labels import _as_int, _as_real, _strict_json
from .matching import (
    MatchingProblem,
    matching_block_scores,
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

# full-space scoring beats per-record best-first enumeration up to this size
_EXHAUSTIVE_SPACE_CAP = 10_000


# the run's own settings, in the form of synth._RANGES
_RUN_RANGES = {
    "alpha": (lambda v, s: 0 < _as_real(v) < 1, "a number in (0, 1)"),
    "n_trials": (lambda v, s: _as_int(v) >= 1, "an integer >= 1"),
    "n": (lambda v, s: _as_int(v) >= 10, "an integer >= 10"),
    "m_max": (lambda v, s: _as_int(v) >= 1, "an integer >= 1"),
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
            raise ValueError(f"task must be one of {tuple(_TASKS)}")
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
        return PsiSpec.hinge() if self.psi_c == 0 else PsiSpec.exp_weighted(self.psi_c)

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
    return (
        float(sizes.mean()),
        float(np.quantile(sizes, 0.5)),
        float(np.quantile(sizes, 0.9)),
    )


def _check_first_record(task: str, fast, engine, tol: float = 0.0) -> None:
    """Guard of the block-level paths: on the block's first record they must
    agree with the per-record engine, within tol."""
    if any(abs(float(a) - float(b)) > tol for a, b in zip(fast, engine, strict=True)):
        raise RuntimeError(
            f"{task}: block-level result {fast} differs from the per-record engine's "
            f"{engine} on the first record of the block"
        )


# --- per-task data -----------------------------------------------------------
#
# A task function fits and scores a trial's dataset, given the trial seed and
# the train, calibration and test slices. It returns two dicts keyed by
# method: the calibration scores, and the test block, a triple of the test
# records' strong scores, their weak scores and a counter
# sizes(thresholds) -> (capped sizes, over-cap flags) of their level sets,
# one column per threshold. Methods with the same score share one block
# object, whose level sets are then counted once for all their thresholds.


def _label_set_block(scores: np.ndarray, y: np.ndarray, member: np.ndarray):
    """Test block of label-set records: sizes count every label, none capped."""

    def sizes(thresholds: list[float]):
        counts = (scores[:, :, None] <= np.asarray(thresholds)).sum(axis=1)
        return counts, np.zeros(counts.shape, dtype=bool)

    strong, weak, _ = set_block_scores(scores, y, member)
    return strong, weak, sizes


def _classify_task(cfg: ExperimentConfig, seed: int, data, tr: slice, ca: slice, te: slice):
    """Multiclass data; cumulative-probability scores of a softmax fit for
    wsc, fsc and pessimistic, nested greedy scores of per-label fits for gws.
    Only the fits some method needs are made."""
    k = cfg.resolved_k
    y_ca, y_te, mask_ca, mask_te = data.y[ca], data.y[te], data.member[ca], data.member[te]
    cal, test = {}, {}
    if any(m in cfg.methods for m in ("wsc", "fsc", "pessimistic")):
        w_model = synth.train_multinomial_logistic(data.x[tr], data.y[tr], k)

        def scored(block: slice) -> np.ndarray:
            probs = synth.predict_class_probs(w_model, data.x[block])
            return synth.cumulative_probability_scores(probs)

        strong, weak, pessimistic = set_block_scores(scored(ca), y_ca, mask_ca)
        cal.update(wsc=weak, fsc=strong, pessimistic=pessimistic)
        shared = _label_set_block(scored(te), y_te, mask_te)
        test.update(wsc=shared, fsc=shared, pessimistic=shared)
    if "gws" in cfg.methods:
        w_marg = synth.train_per_label_logistic(data.x[tr], data.member[tr].astype(float))

        def nested(block: slice, role: int) -> np.ndarray:
            q = synth.predict_label_marginals(w_marg, data.x[block])
            rng = np.random.default_rng(np.random.SeedSequence([seed, role]))
            return label_independent_nested_scores(q, rng.uniform(size=q.shape[0]))

        cal["gws"] = set_block_scores(nested(ca, 101), y_ca, mask_ca)[1]
        test["gws"] = _label_set_block(nested(te, 102), y_te, mask_te)
    return cal, test


def _rank_task(cfg: ExperimentConfig, seed: int, data, tr: slice, ca: slice, te: slice):
    """Ranking data and a ListNet fit; prefix-completion scores, and level
    sets counted from Kendall balls across the test block."""
    psi = cfg.psi()
    weights = listnet_train(data.x[tr], data.order[tr])

    def scored(block: slice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        rel = predict_relevances(weights, data.x[block])
        return (rel, *prefix_block_scores(rel, data.order[block], data.lengths[block], psi))

    _, strong_ca, weak_ca = scored(ca)
    rel_te, strong_te, weak_te = scored(te)

    def sizes(thresholds: list[float]):
        counts, flags = levelset_counts_batch(rel_te, psi, thresholds, cfg.m_max)
        if len(counts):
            engine = _levelset_counts(RankingProblem(rel_te[0], psi), thresholds, cfg.m_max)
            _check_first_record("rank", [*counts[0], *flags[0]], [*engine[0], *engine[1]])
        return counts, flags

    shared = (strong_te, weak_te, sizes)
    return {"wsc": weak_ca, "fsc": strong_ca}, {"wsc": shared, "fsc": shared}


def _match_by_table(data, block: slice, cap: int):
    """Translated (strong, weak) scores of a block of matching records from
    matching_block_scores' table of all k! assignment totals, and a counter
    of their level sets from each record's cap + 1 smallest translated
    totals. The first record's scores are checked against the Hungarian
    solves of _match_by_engine."""
    strong, weak, smallest = matching_block_scores(
        data.costs[block], data.planted[block], data.revealed[block], cap + 1
    )
    if len(strong):
        first = range(len(data.costs))[block][0]
        strong_ref, weak_ref, _ = _match_by_engine(data, slice(first, first + 1), cap)
        _check_first_record("match", [strong[0], weak[0]], [strong_ref[0], weak_ref[0]], TOL)

    def sizes(thresholds: list[float]):
        exact = (smallest[:, :, None] <= np.asarray(thresholds)).sum(axis=1)
        return np.minimum(exact, cap), exact > cap

    return strong, weak, sizes


def _match_by_engine(data, block: slice, cap: int):
    """Translated (strong, weak) scores of a block of matching records from
    per-record Hungarian solves, and a best-first level-set counter."""
    costs = data.costs[block]
    bases = [min_matching_cost(c) for c in costs]
    strong = [matching_score(c, y) - b for c, y, b in zip(costs, data.y[block], bases)]
    weak = [partial_matching_score(c, w) - b for c, w, b in zip(costs, data.weak[block], bases)]

    def sizes(thresholds: list[float]):
        per_record = [
            _levelset_counts(MatchingProblem(c, offset=b), thresholds, cap)
            for c, b in zip(costs, bases)
        ]
        counts, flags = zip(*per_record)
        return np.array(counts), np.array(flags)

    return np.asarray(strong), np.asarray(weak), sizes


def _match_task(cfg: ExperimentConfig, seed: int, data, tr: slice, ca: slice, te: slice):
    """Matching data, each record's scores translated by its optimal cost.
    Spaces of at most _EXHAUSTIVE_SPACE_CAP assignments are scored whole;
    larger ones go through the Hungarian solver and best-first enumeration
    per record."""
    small = math.factorial(cfg.resolved_k) <= _EXHAUSTIVE_SPACE_CAP
    scored = _match_by_table if small else _match_by_engine
    strong_ca, weak_ca, _ = scored(data, ca, cfg.m_max)
    shared = scored(data, te, cfg.m_max)
    return {"wsc": weak_ca, "fsc": strong_ca}, {"wsc": shared, "fsc": shared}


def _regress_task(cfg: ExperimentConfig, seed: int, data, tr: slice, ca: slice, te: slice):
    """Interval data and an OLS fit; absolute-residual scores, and intervals
    of width 2t, the same for every record."""
    beta = synth.fit_ols(data.x[tr], data.y[tr])
    strong_ca, weak_ca, pessimistic_ca = interval_block_scores(
        data.x[ca] @ beta, data.y[ca], data.lo[ca], data.hi[ca]
    )
    strong_te, weak_te, _ = interval_block_scores(
        data.x[te] @ beta, data.y[te], data.lo[te], data.hi[te]
    )

    def sizes(thresholds: list[float]):
        widths = np.broadcast_to(2.0 * np.asarray(thresholds), (strong_te.size, len(thresholds)))
        return widths, np.zeros(widths.shape, dtype=bool)

    shared = (strong_te, weak_te, sizes)
    cal = {"wsc": weak_ca, "fsc": strong_ca, "pessimistic": pessimistic_ca}
    return cal, {"wsc": shared, "fsc": shared, "pessimistic": shared}


@dataclass(frozen=True)
class _Task:
    """What the harness knows of a task besides its generator (synth._TASK_DATA):
    the function that fits and scores a trial's blocks, its default k, the methods
    it offers, the setting reported as the CSV's param, and its sidecar score."""

    blocks: Callable[..., tuple[dict, dict]]
    default_k: int
    methods: tuple[str, ...]
    param: str
    score: str


_TASKS = {
    "classify": _Task(
        _classify_task, 10, ("wsc", "fsc", "gws", "pessimistic"), "sigma", "cumulative_probability"
    ),
    "rank": _Task(_rank_task, 7, ("wsc", "fsc"), "sigma", "pairwise_discordance"),
    "match": _Task(_match_task, 6, ("wsc", "fsc"), "noise", "translated_matching_cost"),
    "regress": _Task(_regress_task, 0, ("wsc", "fsc", "pessimistic"), "mu", "absolute_residual"),
}


# --- the trial -----------------------------------------------------------------


def _trial(cfg: ExperimentConfig, trial: int) -> list[TrialResult]:
    """One trial of any task: generate and split the data, fit and score it,
    calibrate each method on its calibration scores, count each test block's
    level sets once at its methods' thresholds, and report each method's
    coverages and sizes on the test block."""
    seed = _trial_seed(cfg.seed, trial)
    data = synth._generate(cfg.task, cfg._generator_settings(seed))
    split = synth.three_way_split(cfg.n, cfg.split)
    cal, test = _TASKS[cfg.task].blocks(cfg, seed, data, *split)
    thresholds, calibration_s = {}, {}
    for method in cfg.methods:
        start = time.perf_counter()
        thresholds[method] = conformal_threshold(cal[method], cfg.alpha).value
        calibration_s[method] = time.perf_counter() - start
    sharing: dict[int, list[str]] = {}
    for method in cfg.methods:
        sharing.setdefault(id(test[method]), []).append(method)
    sized = {}
    for methods in sharing.values():
        _, _, sizes = test[methods[0]]
        counts, over = sizes([thresholds[m] for m in methods])
        for col, method in enumerate(methods):
            sized[method] = counts[:, col].astype(float), over[:, col]
    rows = []
    for method in cfg.methods:
        start = time.perf_counter()
        t = thresholds[method]
        strong, weak, _ = test[method]
        sizes, over = sized[method]
        avg, p50, p90 = _size_stats(sizes)
        rows.append(
            TrialResult(
                trial=trial,
                method=method,
                param=cfg.param,
                strong_cov=float((strong <= t).mean()),
                weak_cov=float((weak <= t).mean()),
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
        "score": _TASKS[cfg.task].score,
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
    if not cfg.methods:
        raise ValueError("at least one method required")
    results: list[TrialResult] = []
    for trial in range(cfg.n_trials):
        results.extend(_trial(cfg, trial))
    if cfg.out is not None:
        _write_outputs(cfg, results)
    return results
