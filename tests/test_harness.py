import json
import math

import numpy as np
import pytest

from weakconformal.harness import CSV_COLUMNS, ExperimentConfig, TrialResult, run


def _by_method(results):
    out = {}
    for r in results:
        out.setdefault(r.method, []).append(r)
    return out


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(task="segment")
    with pytest.raises(ValueError):
        ExperimentConfig(alpha=0.0)
    with pytest.raises(ValueError):
        ExperimentConfig(task="rank", methods=("wsc", "pessimistic"))
    with pytest.raises(ValueError):
        ExperimentConfig(n=5)


def test_config_defaults():
    cfg = ExperimentConfig(task="rank")
    assert cfg.resolved_k == 7
    assert ExperimentConfig(task="match", k=4).resolved_k == 4
    assert ExperimentConfig(task="match", noise=0.7).param == 0.7
    assert ExperimentConfig(task="regress", mu=0.2).param == 0.2


@pytest.mark.parametrize(
    "task,kwargs",
    [
        ("classify", {"methods": ("wsc", "fsc", "gws", "pessimistic")}),
        ("rank", {"k": 4, "m_max": 10}),
        ("match", {"k": 4, "noise": 1.0}),
        ("regress", {"methods": ("wsc", "fsc", "pessimistic")}),
    ],
)
def test_small_run_each_task(task, kwargs):
    cfg = ExperimentConfig(task=task, n=120, n_trials=2, seed=5, alpha=0.2, **kwargs)
    results = run(cfg)
    assert len(results) == 2 * len(cfg.methods)
    for r in results:
        assert 0.0 <= r.strong_cov <= 1.0
        assert 0.0 <= r.weak_cov <= 1.0
        assert r.weak_cov >= r.strong_cov - 1e-12
        assert r.avg_size >= 0.0
        assert r.seconds >= 0.0
        assert r.param == cfg.param
    per = _by_method(results)
    assert set(per) == set(cfg.methods)


def test_weak_threshold_never_above_strong():
    for task in ("classify", "rank", "match", "regress"):
        cfg = ExperimentConfig(
            task=task, n=200, n_trials=3, seed=11, alpha=0.2, k=4 if task != "regress" else None
        )
        per = _by_method(run(cfg))
        for w, f in zip(per["wsc"], per["fsc"]):
            assert w.trial == f.trial
            assert w.threshold <= f.threshold + 1e-12


def test_run_deterministic_except_timing():
    cfg = ExperimentConfig(task="classify", n=150, n_trials=2, seed=3, alpha=0.2, k=4)
    a = run(cfg)
    b = run(cfg)
    for ra, rb in zip(a, b):
        for col in CSV_COLUMNS:
            if col == "seconds":
                continue
            assert getattr(ra, col) == getattr(rb, col), col


def test_csv_jsonl_meta_outputs(tmp_path):
    out = tmp_path / "trials.csv"
    cfg = ExperimentConfig(
        task="regress", n=120, n_trials=2, seed=9, alpha=0.2, out=str(out)
    )
    results = run(cfg)

    lines = out.read_text().strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(results)
    first = lines[1].split(",")
    assert len(first) == len(CSV_COLUMNS)
    assert first[0] == "0" and first[1] in cfg.methods

    jpath = out.with_suffix(".jsonl")
    rows = [json.loads(s) for s in jpath.read_text().strip().split("\n")]
    assert len(rows) == len(results)
    assert all("truncation_fraction" in r for r in rows)
    assert rows[0]["method"] == results[0].method
    assert rows[0]["threshold"] == pytest.approx(results[0].threshold)

    meta = json.loads((tmp_path / "trials.meta.json").read_text())
    assert meta["config"]["task"] == "regress"
    assert meta["config"]["seed"] == 9
    assert meta["columns"] == CSV_COLUMNS

    # a second run appends data rows without repeating the header
    run(cfg)
    lines2 = out.read_text().strip().split("\n")
    assert len(lines2) == 1 + 2 * len(results)
    assert lines2.count(",".join(CSV_COLUMNS)) == 1


def test_csv_row_format():
    r = TrialResult(
        trial=1,
        method="wsc",
        param=0.5,
        strong_cov=0.9,
        weak_cov=0.95,
        avg_size=2.0,
        p50_size=2.0,
        p90_size=3.0,
        threshold=0.4,
        seconds=0.01,
    )
    row = r.csv_row().split(",")
    assert row[0] == "1"
    assert row[1] == "wsc"
    assert float(row[8]) == pytest.approx(0.4)


def test_infinite_threshold_when_alpha_tiny():
    # k = ceil((n_cal + 1)(1 - alpha)) > n_cal forces an infinite cutoff
    cfg = ExperimentConfig(
        task="regress", n=40, n_trials=1, seed=2, alpha=0.001, methods=("fsc",)
    )
    (r,) = run(cfg)
    assert math.isinf(r.threshold)
    assert r.strong_cov == 1.0
    assert math.isinf(r.avg_size)


def test_classify_gws_and_pessimistic_sizes_bracket():
    cfg = ExperimentConfig(
        task="classify",
        n=400,
        n_trials=2,
        seed=17,
        alpha=0.2,
        k=5,
        methods=("wsc", "fsc", "pessimistic"),
    )
    per = _by_method(run(cfg))
    for t in range(2):
        assert per["wsc"][t].threshold <= per["fsc"][t].threshold + 1e-12
        assert per["fsc"][t].threshold <= per["pessimistic"][t].threshold + 1e-12


def test_match_levelset_counts_match_engine():
    # the harness counts small assignment spaces by scoring every permutation;
    # that must agree with best-first enumeration at the same thresholds
    from itertools import permutations

    from weakconformal.matching import MatchingProblem, min_matching_cost
    from weakconformal.mbest import enumerate_until

    rng = np.random.default_rng(23)
    perms = np.array(list(permutations(range(4))))
    rows = np.arange(4)
    for _ in range(25):
        costs = rng.normal(size=(4, 4))
        base = min_matching_cost(costs)
        all_scores = costs[rows, perms].sum(axis=1) - base
        for t in rng.uniform(0.0, 3.0, size=3):
            fast = int((all_scores <= t).sum())
            engine = len(enumerate_until(MatchingProblem(costs, offset=base), float(t), cap=50).configs)
            assert fast == engine


def test_rank_sizes_counted_in_permutation_space():
    cfg = ExperimentConfig(task="rank", n=150, n_trials=1, seed=8, alpha=0.2, k=4)
    results = run(cfg)
    for r in results:
        if math.isfinite(r.avg_size):
            assert r.avg_size <= math.factorial(4)
            assert r.avg_size >= 1.0 or r.strong_cov == 0.0


def test_match_trial_on_the_engine_equals_exhaustive_count():
    # 8! > 10^4 sends the harness through best-first enumeration per record;
    # its capped counts must equal a count over every assignment, each summed
    # in row order like the translated scores
    from itertools import permutations

    from weakconformal import synth
    from weakconformal.harness import _trial_seed
    from weakconformal.matching import min_matching_cost

    k, m_max = 8, 6
    cfg = ExperimentConfig(task="match", k=k, n=48, n_trials=2, seed=5, alpha=0.2,
                           noise=1.0, m_max=m_max)
    perms = np.array(list(permutations(range(k))))
    saw_capped = saw_uncapped = False
    for trial, rows in enumerate(zip(*_by_method(run(cfg)).values())):
        data = synth.gen_matching(cfg.n, k, cfg.noise, _trial_seed(cfg.seed, trial))
        _, _, te = synth.three_way_split(cfg.n, cfg.split)
        thresholds = np.array([r.threshold for r in rows])
        exact = []
        for costs in data.costs[te]:
            scores = np.cumsum(costs[np.arange(k), perms], axis=1)[:, -1] - min_matching_cost(costs)
            exact.append((scores[None, :] <= thresholds[:, None]).sum(axis=1))
        exact = np.array(exact)
        sizes = np.minimum(exact, m_max).astype(float)
        for col, r in enumerate(rows):
            assert r.avg_size == sizes[:, col].mean()
            assert r.p50_size == np.quantile(sizes[:, col], 0.5)
            assert r.p90_size == np.quantile(sizes[:, col], 0.9)
            # the engine stops at the cap, so a full cap counts as truncated
            assert r.truncation_fraction == (exact[:, col] >= m_max).mean()
        saw_capped |= bool((exact > m_max).any())
        saw_uncapped |= bool((exact < m_max).any())
    assert saw_capped and saw_uncapped
