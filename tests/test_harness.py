import json
import math
import platform
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import weakconformal
from weakconformal import harness, matching, ranking, synth
from weakconformal.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    TrialResult,
    _size_stats,
    _trial_seed,
    run,
)
from weakconformal.ranking import listnet_train, predict_relevances, rank_score


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
    # generator settings out of range, which once failed only inside the first trial
    for kwargs, named in [
        ({"task": "classify", "k": 1}, "k"),
        ({"task": "match", "k": 1}, "k"),
        ({"task": "classify", "d": 0}, "d"),
        ({"task": "classify", "min_weak_size": 11}, "min_weak_size"),
        # run settings of the wrong type, which once ran or failed mid-trial
        ({"m_max": 2.5}, "m_max"),
        ({"m_max": True}, "m_max"),
        ({"n_trials": True}, "n_trials"),
        ({"n_trials": 1.5}, "n_trials"),
    ]:
        with pytest.raises(ValueError, match=f"^{named} must be"):
            ExperimentConfig(**kwargs)


def test_trials_fit_through_the_public_trainers(monkeypatch):
    # the trials once fit through private twins, which a tracer of public names missed
    calls = {}
    trainers = [(synth, "train_multinomial_logistic"), (synth, "train_per_label_logistic"),
                (ranking, "listnet_train")]
    for home, name in trainers:
        fn = getattr(home, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)

        for module in (synth, ranking, harness):
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counted)
    run(ExperimentConfig(task="classify", methods=("wsc", "gws"), n=120, n_trials=1))
    run(ExperimentConfig(task="rank", k=4, n=120, n_trials=1))
    assert calls == {name: 1 for _, name in trainers}


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
    assert meta["python_version"] == platform.python_version()
    assert meta["package_version"] == weakconformal.__version__
    assert meta["trial_seeds"] == [_trial_seed(9, 0), _trial_seed(9, 1)]

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
    # the harness counts assignment spaces by branch and bound on the subset
    # DP; that must agree with best-first enumeration at the same thresholds
    from weakconformal.matching import MatchingProblem, matching_levelset_counts, min_matching_cost
    from weakconformal.mbest import enumerate_until

    rng = np.random.default_rng(23)
    for _ in range(25):
        costs = rng.normal(size=(4, 4))
        base = min_matching_cost(costs)
        for t in rng.uniform(0.0, 3.0, size=3):
            fast = int(matching_levelset_counts(costs[None], [base], [t], 50)[0][0, 0])
            engine = len(enumerate_until(MatchingProblem(costs, offset=base), float(t), cap=50).configs)
            assert fast == engine


def test_rank_sizes_counted_in_permutation_space():
    cfg = ExperimentConfig(task="rank", n=150, n_trials=1, seed=8, alpha=0.2, k=4)
    results = run(cfg)
    for r in results:
        if math.isfinite(r.avg_size):
            assert r.avg_size <= math.factorial(4)
            assert r.avg_size >= 1.0 or r.strong_cov == 0.0


def test_match_trial_on_the_engine_equals_exhaustive_count(monkeypatch):
    # with the subset DP's cut lowered below k = 8 the harness scores and counts
    # through per-record Hungarian solves and best-first enumeration; its capped
    # counts, and those of the default subset DP path, must equal a count over
    # every assignment, each summed in row order like the translated scores
    from weakconformal import synth
    from weakconformal.harness import _trial_seed
    from weakconformal.matching import min_matching_cost

    k, m_max = 8, 6
    cfg = ExperimentConfig(task="match", k=k, n=48, n_trials=2, seed=5, alpha=0.2,
                           noise=1.0, m_max=m_max)
    perms = np.array(list(permutations(range(k))))
    default = run(cfg)
    monkeypatch.setattr(matching, "_DP_MAX_K", 7)
    results = run(cfg)
    assert [r.csv_row().rsplit(",", 1)[0] for r in results] == \
        [r.csv_row().rsplit(",", 1)[0] for r in default]
    saw_capped = saw_uncapped = False
    for trial, rows in enumerate(zip(*_by_method(results).values())):
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
            # truncated means more than m_max members, as on the exhaustive path
            assert r.truncation_fraction == (exact[:, col] > m_max).mean()
        saw_capped |= bool((exact > m_max).any())
        saw_uncapped |= bool((exact < m_max).any())
    assert saw_capped and saw_uncapped


def test_match_engine_path_gives_the_subset_dp_rows(monkeypatch):
    # above matching._DP_MAX_K every record goes through the per-record engine;
    # lowered below k = 5 it must give the rows of the default path
    def rows():
        results = run(ExperimentConfig(task="match", k=5, n=200, n_trials=2, seed=4, noise=1.0))
        return [(r.csv_row().rsplit(",", 1)[0], r.truncation_fraction) for r in results]

    default = rows()
    monkeypatch.setattr(matching, "_DP_MAX_K", 4)
    assert rows() == default


# every CSV value except seconds, recorded before the rank and match trials
# moved to block-level counting (classify and regress: before the four tasks
# shared one trial); the same seed must keep giving them
GOLDEN_ROWS = [
    ((dict(task="rank", k=7, alpha=0.3, m_max=50), 0), [
        "0,wsc,1.0,0.16,0.68,34.805,40.0,50.0,0.8409060144671578",
        "0,fsc,1.0,0.71,0.97,50.0,50.0,50.0,3.859920785724344",
        "1,wsc,1.0,0.39,0.815,46.85,50.0,50.0,1.6348464808611283",
        "1,fsc,1.0,0.775,0.97,50.0,50.0,50.0,3.931636504195311",
    ]),
    ((dict(task="rank", k=7, alpha=0.3, m_max=50), 1), [
        "0,wsc,1.0,0.13,0.68,35.77,43.0,50.0,0.976332977381146",
        "0,fsc,1.0,0.7,0.95,49.99,50.0,50.0,3.7752763141584422",
        "1,wsc,1.0,0.28,0.775,39.045,48.5,50.0,1.088398762632563",
        "1,fsc,1.0,0.685,0.955,50.0,50.0,50.0,3.264615612175095",
    ]),
    ((dict(task="rank", k=7, alpha=0.3, m_max=50, psi_c=1.0), 0), [
        "0,wsc,1.0,0.075,0.685,23.425,16.0,50.0,0.5336084432338353",
        "0,fsc,1.0,0.665,0.98,49.78,50.0,50.0,6.623575176155945",
        "1,wsc,1.0,0.295,0.775,42.95,50.0,50.0,1.511671796079263",
        "1,fsc,1.0,0.81,0.985,50.0,50.0,50.0,6.910823885404195",
    ]),
    ((dict(task="rank", k=7, alpha=0.3, m_max=50, psi_c=1.0), 1), [
        "0,wsc,1.0,0.095,0.675,27.91,24.0,50.0,0.8278708338241341",
        "0,fsc,1.0,0.715,0.96,49.87,50.0,50.0,6.467652004633743",
        "1,wsc,1.0,0.195,0.78,28.735,26.5,50.0,0.8406857733564861",
        "1,fsc,1.0,0.645,0.96,49.255,50.0,50.0,5.350494869079636",
    ]),
    ((dict(task="match", k=6, noise=1.0), 0), [
        "0,wsc,1.0,0.59,0.84,16.18,20.0,20.0,2.395581552917516",
        "0,fsc,1.0,0.835,0.975,19.97,20.0,20.0,4.466222121812085",
        "1,wsc,1.0,0.74,0.93,18.605,20.0,20.0,2.937155778123887",
        "1,fsc,1.0,0.935,0.99,19.96,20.0,20.0,4.804539674355166",
    ]),
    ((dict(task="match", k=6, noise=1.0), 1), [
        "0,wsc,1.0,0.605,0.91,15.63,20.0,20.0,2.343707935375786",
        "0,fsc,1.0,0.925,0.99,19.945,20.0,20.0,4.380440132398908",
        "1,wsc,1.0,0.58,0.885,15.79,20.0,20.0,2.3398487019844003",
        "1,fsc,1.0,0.78,0.955,19.5,20.0,20.0,3.684877373848641",
    ]),
    ((dict(task="classify", k=6, alpha=0.2, methods=("wsc", "fsc", "gws", "pessimistic")), 0), [
        "0,wsc,1.0,0.515,0.755,1.705,2.0,3.0,0.7584486342349609",
        "0,fsc,1.0,0.81,0.95,3.17,3.0,5.0,0.9415618247828152",
        "0,gws,1.0,0.435,0.755,1.19,1.0,2.0,0.7992113794650741",
        "0,pessimistic,1.0,0.985,0.995,5.865,6.0,6.0,1.0",
        "1,wsc,1.0,0.725,0.88,2.42,3.0,4.0,0.8943845415745622",
        "1,fsc,1.0,0.85,0.945,3.165,3.0,5.0,0.9480787909478647",
        "1,gws,1.0,0.44,0.79,1.235,1.0,2.0,0.8136523965327553",
        "1,pessimistic,1.0,0.995,1.0,5.9,6.0,6.0,1.0",
    ]),
    ((dict(task="classify", k=6, alpha=0.2, methods=("wsc", "fsc", "gws", "pessimistic"),
           min_weak_size=3), 1), [
        "0,wsc,1.0,0.48,0.81,1.645,2.0,3.0,0.7477008712682419",
        "0,fsc,1.0,0.84,0.98,3.405,4.0,5.0,0.9357854489175818",
        "0,gws,1.0,0.37,0.76,0.885,1.0,1.0,0.7617891412544423",
        "0,pessimistic,1.0,0.99,1.0,5.865,6.0,6.0,1.0",
        "1,wsc,1.0,0.525,0.845,1.515,2.0,3.0,0.719851687934054",
        "1,fsc,1.0,0.765,0.975,2.64,3.0,4.0,0.8932912881739561",
        "1,gws,1.0,0.42,0.81,0.935,1.0,1.0,0.8311979396041798",
        "1,pessimistic,1.0,1.0,1.0,5.885,6.0,6.0,1.0",
    ]),
    ((dict(task="regress", alpha=0.2, methods=("wsc", "fsc", "pessimistic")), 0), [
        "0,wsc,0.05,0.72,0.76,1.0619616731798232,1.0619616731798232,1.0619616731798232,"
        "0.5309808365899116",
        "0,fsc,0.05,0.765,0.79,1.1639477568453607,1.163947756845361,1.163947756845361,"
        "0.5819738784226804",
        "0,pessimistic,0.05,0.785,0.815,1.2659338405108986,1.2659338405108986,1.2659338405108986,"
        "0.6329669202554493",
        "1,wsc,0.05,0.75,0.805,1.2126973087300925,1.2126973087300925,1.2126973087300925,"
        "0.6063486543650463",
        "1,fsc,0.05,0.8,0.835,1.3122218280935485,1.3122218280935485,1.3122218280935485,"
        "0.6561109140467742",
        "1,pessimistic,0.05,0.835,0.855,1.406650062424505,1.4066500624245053,1.4066500624245053,"
        "0.7033250312122526",
    ]),
]


@pytest.mark.parametrize("setup,expected", GOLDEN_ROWS)
def test_same_seed_same_csv_values(setup, expected):
    kwargs, seed = setup
    rows = run(ExperimentConfig(n=400, n_trials=2, seed=seed, **kwargs))
    assert [r.csv_row().rsplit(",", 1)[0] for r in rows] == expected


def test_truncation_means_more_than_m_max_members():
    # k = 2 has two rankings; with m_max = 1 a record is truncated only when
    # both score at or under the threshold
    cfg = ExperimentConfig(task="rank", k=2, n=60, m_max=1, n_trials=1, seed=1)
    results = run(cfg)
    data = synth.gen_ranking(n=60, k=2, d=cfg.d, sigma=cfg.sigma, seed=_trial_seed(1, 0))
    tr, _, te = synth.three_way_split(cfg.n, cfg.split)
    rel = predict_relevances(listnet_train(data.x[tr], data.y[tr]), data.x[te])
    psi = cfg.psi()
    for r in results:
        both = [max(rank_score(row, (0, 1), psi), rank_score(row, (1, 0), psi)) <= r.threshold
                for row in rel]
        assert r.truncation_fraction == np.mean(both)
        assert r.truncation_fraction < 1.0


def _probe_thresholds(rng, scores):
    """Thresholds at a score, between two distinct ones, below 0 and at +inf."""
    distinct = np.unique(scores)
    at = float(rng.choice(distinct))
    between = float(rng.choice((distinct[:-1] + distinct[1:]) / 2)) if distinct.size > 1 else at + 0.25
    return [at, between, -0.5, math.inf]


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(2, 7),
    integer_costs=st.booleans(),
    cap=st.integers(1, 25),
    seed=st.integers(0, 2**32 - 1),
)
def test_assignment_table_equals_hungarian_and_engine(k, integer_costs, cap, seed):
    # the subset DP's table must give the scores of min_matching_cost,
    # matching_score and partial_matching_score, and the level-set counts of
    # best-first enumeration, on continuous and heavily tied costs
    rng = np.random.default_rng(seed)
    n = 4
    costs = rng.integers(0, 5, size=(n, k, k)) if integer_costs else rng.normal(size=(n, k, k))
    costs = costs.astype(float)
    truth = np.array([rng.permutation(k) for _ in range(n)])
    revealed = np.full((n, k), -1)
    for i in range(n):
        agents = rng.choice(k, size=int(rng.integers(0, k + 1)), replace=False)
        revealed[i, agents] = truth[i, agents]

    def block_path():
        strong, weak, base = matching.matching_block_scores(costs, truth, revealed)
        return strong, weak, lambda t: matching.matching_levelset_counts(costs, base, t, cap)

    strong, weak_scores, count = block_path()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matching, "_DP_MAX_K", 0)  # per-record Hungarian solves and enumeration
        strong_ref, weak_ref, count_ref = block_path()
        totals = costs[0][np.arange(k), np.array(list(permutations(range(k))))].sum(axis=1)
        thresholds = _probe_thresholds(rng, totals - totals.min())
        counts_ref, flags_ref = count_ref(thresholds)
    assert strong.tolist() == strong_ref.tolist()
    assert weak_scores.tolist() == weak_ref.tolist()
    counts, flags = count(thresholds)
    assert counts.tolist() == counts_ref.tolist()
    assert flags.tolist() == flags_ref.tolist()


def test_block_counters_are_checked_against_the_engine_on_the_first_record(monkeypatch):
    # a block-level result that disagrees with the per-record engine on the
    # block's first record stops the trial instead of reaching the CSV
    import weakconformal.harness as harness

    batch, min_cost = harness.levelset_counts_batch, harness.min_matching_cost

    def undercounted(rel, psi, thresholds, cap):
        counts, flags = batch(rel, psi, thresholds, cap)
        return counts - 1, flags

    monkeypatch.setattr(harness, "levelset_counts_batch", undercounted)
    with pytest.raises(RuntimeError, match="rank: block-level result"):
        run(ExperimentConfig(task="rank", k=4, n=80, n_trials=1, seed=2, m_max=3))
    # the table's base is its own minimum; the engine's comes from the solver
    monkeypatch.setattr(harness, "min_matching_cost", lambda costs: min_cost(costs) - 1.0)
    with pytest.raises(RuntimeError, match="match: block-level result"):
        run(ExperimentConfig(task="match", k=4, n=80, n_trials=1, seed=2))


def test_size_stats_equal_two_quantile_calls():
    # one np.quantile call for both quantiles reads what two calls read
    rng = np.random.default_rng(44)
    for _ in range(2000):
        n = int(rng.integers(1, 60))
        sizes = rng.integers(0, 30, size=n).astype(float)
        if rng.random() < 0.5:
            sizes[rng.random(n) < rng.random()] = math.inf
        with np.errstate(invalid="ignore"):
            got = _size_stats(sizes)
            if np.isinf(sizes).all():
                ref = (math.inf, math.inf, math.inf)
            else:
                ref = (float(sizes.mean()), float(np.quantile(sizes, 0.5)),
                       float(np.quantile(sizes, 0.9)))
        assert np.array(got).tobytes() == np.array(ref).tobytes()
