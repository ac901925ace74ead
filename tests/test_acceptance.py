"""Release-gate acceptance suite.

Each check prints exactly one PASS/FAIL line (bypassing capture) so a plain
pytest run doubles as a checklist. The first two checks share one batch of
full-scale coverage experiments; everything else builds its own fixtures.
"""
import math
import time
from itertools import permutations

import numpy as np
import pytest
from scipy import stats

from weakconformal import synth
from weakconformal.conformal import conformal_threshold
from weakconformal.greedy import (
    DiscreteWeakDistribution,
    brute_force_optimal,
    greedy_sequence,
    greedy_set,
    set_from_sequence,
    size_profile,
    wolsey_constant,
)
from weakconformal.harness import ExperimentConfig, run
from weakconformal.matching import (
    MatchingProblem,
    hungarian,
    matching_score,
    min_matching_cost,
    partial_matching_score,
)
from weakconformal.mbest import enumerate_until, m_best
from weakconformal.ranking import (
    PsiSpec,
    RankingProblem,
    _softmax,
    listnet_loss_grad,
    partial_rank_score,
    rank_score,
    relevance_targets,
)
from weakconformal.synth import logistic_loss_grad, multinomial_loss_grad


def _check(capsys, num, label, ok, detail=""):
    with capsys.disabled():
        print(f"\n[acceptance {num:02d}] {'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


# --- shared full-scale coverage runs -------------------------------------------

N_FULL = 4_000  # split (.25, .25, .5) -> 1000 train / 1000 calibrate / 2000 test
COVERAGE_SETUPS = [
    ("classify", {"k": 10}),
    ("rank", {"k": 7}),
    # at low cost noise the zero-score atom dominates the weak calibration
    # scores and the coverage band degenerates; noise 1.0 keeps the atom mass
    # comfortably below the target level so the band applies
    ("match", {"k": 6, "noise": 1.0}),
    ("regress", {"mu": 0.05}),
]
ALPHAS = (0.05, 0.1)


@pytest.fixture(scope="session")
def coverage_runs():
    results = {}
    start = time.perf_counter()
    for i, (task, extra) in enumerate(COVERAGE_SETUPS):
        for j, alpha in enumerate(ALPHAS):
            cfg = ExperimentConfig(
                task=task,
                alpha=alpha,
                n_trials=20,
                seed=500 + 10 * i + j,
                n=N_FULL,
                split=(0.25, 0.25, 0.5),
                methods=("wsc", "fsc"),
                **extra,
            )
            results[(task, alpha)] = run(cfg)
    return results, time.perf_counter() - start


def test_01_weak_coverage_band(coverage_runs, capsys):
    results, elapsed = coverage_runs
    n_cal = 1000
    worst = ""
    ok = elapsed < 300.0
    if not ok:
        worst = f"runtime {elapsed:.0f}s over budget"
    for (task, alpha), rows in results.items():
        covs = [r.weak_cov for r in rows if r.method == "wsc"]
        assert len(covs) == 20
        mean = float(np.mean(covs))
        lo = 1 - alpha - 0.01
        hi = 1 - alpha + 1.0 / (n_cal + 1) + 0.01
        if not lo <= mean <= hi:
            ok = False
            worst += f" {task}@{alpha}: {mean:.4f} outside [{lo:.4f}, {hi:.4f}]"
    _check(
        capsys, 1, "weak-coverage band, all tasks and levels",
        ok, worst or f"8 runs in band, {elapsed:.0f}s",
    )


def test_02_weak_thresholds_dominated_and_sets_nested(coverage_runs, capsys):
    results, _ = coverage_runs
    violations = 0
    for rows in results.values():
        wsc = {r.trial: r.threshold for r in rows if r.method == "wsc"}
        fsc = {r.trial: r.threshold for r in rows if r.method == "fsc"}
        violations += sum(1 for t in wsc if wsc[t] > fsc[t] + 1e-12)

    # explicit set-inclusion spot checks, one small run per task
    nested = True

    data = synth.gen_multiclass(n=300, k=6, d=2, seed=61)
    scores = data.oracle_scores
    mask = np.zeros((300, 6), dtype=bool)
    for i, w in enumerate(data.weak):
        mask[i, list(w.labels)] = True
    partial = np.where(mask, scores, np.inf).min(axis=1)
    strong = scores[np.arange(300), data.y]
    t_w = conformal_threshold(partial[:150], 0.1).value
    t_f = conformal_threshold(strong[:150], 0.1).value
    sets_w = scores[150:] <= t_w
    sets_f = scores[150:] <= t_f
    nested &= bool(np.all(sets_f | ~sets_w))

    rd = synth.gen_regression(n=200, d=2, mu=0.05, seed=62)
    resid = np.abs(rd.y)  # zero predictor keeps the check self-contained
    part = np.array(
        [min(abs(w.lo), abs(w.hi)) if not (w.lo <= 0 <= w.hi) else 0.0 for w in rd.weak]
    )
    tw = conformal_threshold(part[:100], 0.1).value
    tf = conformal_threshold(resid[:100], 0.1).value
    nested &= tw <= tf + 1e-12  # same centers, so interval inclusion is width order

    psi = PsiSpec.hinge()
    rk = synth.gen_ranking(n=120, k=4, seed=63)
    rel = rk.oracle_scores
    strong_r = np.array([rank_score(rel[i], rk.y[i], psi) for i in range(60)])
    weak_r = np.array([partial_rank_score(rel[i], rk.weak[i], psi) for i in range(60)])
    trw = conformal_threshold(weak_r, 0.2).value
    trf = conformal_threshold(strong_r, 0.2).value
    for i in range(60, 70):
        prob = RankingProblem(rel[i], psi)
        inner = {tuple(c) for c in enumerate_until(prob, trw, cap=200).configs}
        outer = {tuple(c) for c in enumerate_until(prob, trf, cap=200).configs}
        nested &= inner <= outer

    md = synth.gen_matching(n=120, k=4, noise=1.0, seed=64)
    bases = np.array([min_matching_cost(c) for c in md.costs])
    strong_m = np.array(
        [matching_score(md.costs[i], md.y[i]) - bases[i] for i in range(60)]
    )
    weak_m = np.array(
        [partial_matching_score(md.costs[i], md.weak[i]) - bases[i] for i in range(60)]
    )
    tmw = conformal_threshold(weak_m, 0.2).value
    tmf = conformal_threshold(strong_m, 0.2).value
    for i in range(60, 70):
        prob = MatchingProblem(md.costs[i], offset=bases[i])
        inner = {tuple(c) for c in enumerate_until(prob, tmw, cap=100).configs}
        outer = {tuple(c) for c in enumerate_until(prob, tmf, cap=100).configs}
        nested &= inner <= outer

    ok = violations == 0 and nested
    _check(
        capsys, 2, "weak thresholds below strong, sets nested",
        ok, f"{violations} threshold violations, inclusion {'held' if nested else 'broke'}",
    )


# --- pinned three-label example -------------------------------------------------

GOLDEN_ATOMS = [
    ((0, 1), 0.3),
    ((0, 2), 0.25),
    ((1,), 0.2),
    ((2,), 0.15),
    ((0,), 0.1),
]


def test_03_three_label_example_goldens(capsys):
    dist = DiscreteWeakDistribution.from_sets(3, GOLDEN_ATOMS)
    rs = greedy_set(dist, 0.9)
    ok = (
        rs.inner == frozenset({0, 1})
        and rs.outer == frozenset({0, 1, 2})
        and abs(rs.t - 1.0 / 3.0) <= 1e-12
    )
    value, mixture = brute_force_optimal(dist, 0.9)
    ok &= abs(value - 2.0) <= 1e-12
    ok &= len(mixture) == 1 and mixture[0][0] == frozenset({1, 2})
    _check(
        capsys, 3, "pinned 3-label example",
        ok, f"t={rs.t:.12f}, optimum {value} via {sorted(mixture[0][0])}",
    )


# --- greedy optimality and bound -------------------------------------------------


def _random_general_dist(rng, k):
    m = int(rng.integers(1, 2 * k))
    seen = {}
    for _ in range(m):
        size = int(rng.integers(1, k + 1))
        s = tuple(sorted(int(v) for v in rng.choice(k, size=size, replace=False)))
        seen[s] = seen.get(s, 0.0) + 1.0
    total = sum(seen.values())
    return DiscreteWeakDistribution.from_sets(
        k, [(s, v / total) for s, v in seen.items()]
    )


def _random_tree_dist(rng, k):
    labels = [int(v) for v in rng.permutation(k)]
    nodes = []

    def split(seg):
        nodes.append(tuple(sorted(seg)))
        if len(seg) > 1:
            cut = int(rng.integers(1, len(seg)))
            split(seg[:cut])
            split(seg[cut:])

    split(labels)
    m = int(rng.integers(1, len(nodes) + 1))
    chosen = [nodes[i] for i in rng.choice(len(nodes), size=m, replace=False)]
    w = np.maximum(rng.dirichlet(np.ones(m)), 1e-9)
    w /= w.sum()
    return DiscreteWeakDistribution.from_sets(k, list(zip(chosen, w)))


def _random_independent_dist(rng, k):
    q = rng.uniform(0.05, 0.95, size=k)
    return DiscreteWeakDistribution.from_marginals(k, q)


def test_04_greedy_is_optimal_on_structured_distributions(capsys):
    rng = np.random.default_rng(202)
    failures = 0
    worst = 0.0
    for maker in (_random_tree_dist, _random_independent_dist):
        for _ in range(500):
            k = int(rng.integers(2, 9))
            dist = maker(rng, k)
            seq = greedy_sequence(dist)
            profile = size_profile(dist)
            for eta in rng.uniform(0.02, 0.999, size=10):
                got = set_from_sequence(seq, float(eta)).expected_size
                opt = profile.optimal_value(float(eta))
                gap = abs(got - opt)
                worst = max(worst, gap)
                if gap > 1e-9:
                    failures += 1
    _check(
        capsys, 4, "greedy equals optimum on tree/independent structure",
        failures == 0, f"{failures} failures over 10000 levels, worst gap {worst:.2e}",
    )


def test_05_greedy_outer_within_logarithmic_cover_bound(capsys):
    rng = np.random.default_rng(203)
    violations = 0
    for _ in range(1000):
        k = int(rng.integers(2, 9))
        dist = _random_general_dist(rng, k)
        profile = size_profile(dist)
        for eta in rng.uniform(0.02, 0.999, size=2):
            eta = float(eta)
            outer = len(set_from_sequence(greedy_sequence(dist), eta).outer)
            const = wolsey_constant(dist, eta)
            cover = profile.min_cover_size(eta)
            bound = (1.0 + math.log(const)) * cover if math.isfinite(const) else math.inf
            if outer > bound + 1e-9:
                violations += 1
    _check(
        capsys, 5, "greedy outer set within (1 + log K) of smallest cover",
        violations == 0, f"{violations} violations over 2000 draws",
    )


# --- enumeration engines ---------------------------------------------------------


def _matches_exhaustive(problem, space, tol=1e-9):
    exact = sorted((problem.score(c), tuple(c)) for c in space)
    result = m_best(problem, len(exact))
    if len(result.configs) != len(exact):
        return False
    scores = [s for s, _ in exact]
    if any(abs(g - w) > tol for g, w in zip(result.scores, scores)):
        return False
    got = [tuple(c) for c in result.configs]
    i = 0
    while i < len(exact):  # compare tie groups as sets
        j = i
        while j < len(exact) and scores[j] - scores[i] <= tol:
            j += 1
        if set(got[i:j]) != {c for _, c in exact[i:j]}:
            return False
        i = j
    return True


def test_06_enumeration_matches_exhaustive_ordering(capsys):
    rng = np.random.default_rng(204)
    perms5 = list(permutations(range(5)))
    perms4 = list(permutations(range(4)))
    bad = 0
    for psi in (PsiSpec.hinge(), PsiSpec.exp_weighted(1.0)):
        for _ in range(200):
            rel = rng.normal(size=5)
            if not _matches_exhaustive(RankingProblem(rel, psi), perms5):
                bad += 1
    for _ in range(200):
        costs = rng.normal(size=(4, 4))
        if not _matches_exhaustive(MatchingProblem(costs), perms4):
            bad += 1
    _check(
        capsys, 6, "best-first enumeration equals exhaustive sort",
        bad == 0, f"{bad} mismatches over 600 instances",
    )


def test_07_assignment_solver_matches_brute_force(capsys):
    rng = np.random.default_rng(205)
    bad = 0
    for trial in range(1000):
        k = int(rng.integers(2, 7))
        if trial % 2:
            costs = rng.normal(size=(k, k))
        else:
            costs = rng.integers(0, 5, size=(k, k)).astype(float)  # heavy ties
        _, got = hungarian(costs)
        want = min(sum(costs[i, p[i]] for i in range(k)) for p in permutations(range(k)))
        if abs(got - want) > 1e-9:
            bad += 1
    _check(
        capsys, 7, "assignment solver equals brute-force minimum",
        bad == 0, f"{bad} mismatches over 1000 matrices",
    )


# --- distributional checks -------------------------------------------------------


def test_08_partial_nested_score_is_uniform(capsys):
    passes = 0
    stats_seen = []
    for seed in range(20):
        rng = np.random.default_rng(10_000 + seed)
        k = int(rng.integers(3, 9))
        dist = _random_general_dist(rng, k)
        seq = greedy_sequence(dist)
        cum = np.asarray(seq.cum_coverage)
        lo = np.concatenate(([0.0], cum[:-1]))
        pos = {y: i for i, y in enumerate(seq.order)}
        atoms = dist.atom_sets()
        first = np.array([min(pos[y] for y in labels) for labels, _ in atoms])
        probs = np.array([p for _, p in atoms])
        idx = rng.choice(len(atoms), size=5000, p=probs / probs.sum())
        u = rng.uniform(size=5000)
        j = first[idx]
        # the earliest greedy position in the weak set owns the minimum score
        samples = lo[j] + u * (cum[j] - lo[j])
        ks = stats.kstest(samples, "uniform").statistic
        stats_seen.append(ks)
        passes += ks < 0.0230
    _check(
        capsys, 8, "partial nested score uniform under the true law",
        passes >= 18, f"{passes}/20 seeds under KS 0.0230, max {max(stats_seen):.4f}",
    )


# --- size lower bounds and qualitative behavior ----------------------------------


def test_09_pessimistic_sets_inherit_weak_label_size(capsys):
    rows = run(
        ExperimentConfig(
            task="classify", alpha=0.1, n_trials=10, seed=77, n=2000,
            k=10, min_weak_size=3, methods=("pessimistic",),
        )
    )
    class_size = float(np.mean([r.avg_size for r in rows]))
    rows = run(
        ExperimentConfig(
            task="regress", alpha=0.1, n_trials=10, seed=78, n=2000,
            mu=0.1, min_half_width=0.1, methods=("pessimistic",),
        )
    )
    band_len = float(np.mean([r.avg_size for r in rows]))
    ok = class_size >= 3 * 0.9 - 0.05 and band_len >= 0.2 * 0.9 - 0.005
    _check(
        capsys, 9, "strongly-valid sets built from weak data stay large",
        ok, f"class size {class_size:.2f} >= 2.65, interval length {band_len:.3f} >= 0.175",
    )


def test_10_high_noise_size_gap(capsys):
    rows = run(
        ExperimentConfig(
            task="classify", alpha=0.1, n_trials=10, seed=79, n=N_FULL,
            k=10, sigma=100.0, methods=("wsc", "fsc"),
        )
    )
    wsc = [r for r in rows if r.method == "wsc"]
    fsc = [r for r in rows if r.method == "fsc"]
    ratio = float(np.mean([r.avg_size for r in fsc]) / np.mean([r.avg_size for r in wsc]))
    strong = float(np.mean([r.strong_cov for r in wsc]))
    weak = float(np.mean([r.weak_cov for r in wsc]))
    ok = ratio >= 1.5 and strong < 0.9 and weak >= 0.89
    _check(
        capsys, 10, "weak calibration shrinks sets at high score noise",
        ok, f"size ratio {ratio:.2f}, strong {strong:.3f} < 0.9 <= weak {weak:.3f} + .01",
    )


def test_11_noiseless_matching_yields_singletons(capsys):
    rows = run(
        ExperimentConfig(
            task="match", alpha=0.02, n_trials=5, seed=80, n=2000,
            k=6, noise=0.0, methods=("wsc", "fsc"),
        )
    )
    worst = max(r.avg_size for r in rows)
    _check(
        capsys, 11, "noiseless planted matching gives singleton sets",
        worst <= 1.05, f"largest average size {worst:.3f} <= 1.05",
    )


# --- trainer gradients -----------------------------------------------------------


def _rel_err(analytic, numeric):
    return float(
        np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
    )


def _central_diff(fn, weights, eps=1e-6):
    grad = np.zeros_like(weights)
    it = np.nditer(weights, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        wp, wm = weights.copy(), weights.copy()
        wp[idx] += eps
        wm[idx] -= eps
        grad[idx] = (fn(wp) - fn(wm)) / (2 * eps)
    return grad


def test_12_trainer_gradients_match_finite_differences(capsys):
    rng = np.random.default_rng(206)
    worst = 0.0
    for _ in range(50):
        n, k, d = int(rng.integers(3, 9)), int(rng.integers(2, 6)), int(rng.integers(1, 4))
        x = rng.normal(size=(n, d))
        w = rng.normal(size=(k, d))

        rankings = [tuple(rng.permutation(k).tolist()) for _ in range(n)]
        target_p = _softmax(relevance_targets(rankings, k))
        _, g = listnet_loss_grad(w, x, target_p)
        worst = max(worst, _rel_err(g, _central_diff(
            lambda v: listnet_loss_grad(v, x, target_p)[0], w)))

        targets = (rng.uniform(size=(n, k)) < 0.5).astype(float)
        _, g = logistic_loss_grad(w, x, targets)
        worst = max(worst, _rel_err(g, _central_diff(
            lambda v: logistic_loss_grad(v, x, targets)[0], w)))

        y = rng.integers(0, k, size=n)
        _, g = multinomial_loss_grad(w, x, y)
        worst = max(worst, _rel_err(g, _central_diff(
            lambda v: multinomial_loss_grad(v, x, y)[0], w)))
    _check(
        capsys, 12, "trainer gradients match central differences",
        worst <= 1e-5, f"worst relative error {worst:.2e} over 150 checks",
    )
