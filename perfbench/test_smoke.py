"""Smoke tests of the benchmark at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""
import dataclasses
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import weakconformal as wc  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
NAMES = [w["name"] for w in SPEC["workloads"]]


def _tiny(name, tmp_path, trace):
    return bench.run_workload(name, seed=0, seconds=0.2, trace=trace,
                              scratch_root=str(tmp_path / "scratch"),
                              sizes=workloads.TINY, setup_reps=1)


@pytest.mark.parametrize("name", NAMES)
def test_every_end_to_end_metric_is_emitted(name, tmp_path):
    res = _tiny(name, tmp_path, trace=False)
    metrics = bench.end_to_end(res)
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        value, unit = metrics[m["name"]]
        assert unit == m["unit"] and value > 0
    assert res["run"].failed == 0, res["run"].failures
    assert bench.workload_extras(res)["fail_frac"][0] == 0.0
    assert not os.path.exists(tmp_path / "scratch")  # temporary outputs are cleaned up


@pytest.mark.parametrize("name", NAMES)
def test_every_per_layer_metric_is_emitted(name, tmp_path):
    res = _tiny(name, tmp_path, trace=True)
    metrics = bench.per_layer(res)
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    for m in SPEC["per_layer"]:
        assert metrics[m["name"]][1] == m["unit"]
    assert res["tracer"].ops > 0 and not res["tracer"].hook_errors
    assert res["run"].failed == 0, res["run"].failures


def test_gate_trace_counts_layers(tmp_path):
    metrics = bench.per_layer(_tiny("gate", tmp_path, trace=True))
    assert metrics["matching.split_calls"][0] == 0
    assert metrics["matching.hungarian_calls"][0] > 0
    assert metrics["ranking.split_calls"][0] > 0
    assert metrics["mbest.enumerators"][0] > 0


def test_tracer_restores_the_package():
    originals = (wc.m_best, wc.harness.run, wc.harness.conformal_threshold,
                 wc.MatchingProblem.split, vars(wc.DiscreteWeakDistribution)["from_marginals"])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert wc.m_best is not originals[0]
        assert wc.harness.conformal_threshold is not originals[2]
    finally:
        tracer.remove()
    assert originals == (wc.m_best, wc.harness.run, wc.harness.conformal_threshold,
                         wc.MatchingProblem.split,
                         vars(wc.DiscreteWeakDistribution)["from_marginals"])


def _first_op(wl, kind):
    return next(thunk() for k, thunk in wl.ops(1) if k == kind)


def test_checker_flags_out_of_order_scores(tmp_path):
    wl = workloads.EnumDeep(0, workloads.TINY, str(tmp_path), {})
    op = _first_op(wl, wl.kinds[0])
    assert wl.check(op) == []
    spec, out = op.out
    out.best.scores.reverse()
    problems = wl.check(op)
    assert any("nondecreasing" in p for p in problems)


def test_checker_flags_coverage_above_one(tmp_path):
    wl = workloads.Gate(0, workloads.TINY, str(tmp_path), {})
    op = _first_op(wl, "round")
    path = os.path.join(op.out.out_dir, "classify.csv")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    cols = wc.CSV_COLUMNS
    cells = lines[1].split(",")
    cells[cols.index("weak_cov")] = "1.5"
    lines[1] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    problems = wl.check(op)
    assert any("strong <= weak <= 1" in p for p in problems)
    assert not os.path.exists(op.out.out_dir)


def test_checker_flags_missed_level_and_survives_garbage(tmp_path):
    wl = workloads.GreedyExact(0, workloads.TINY, str(tmp_path), {})
    op = _first_op(wl, wl.kinds[0])
    assert wl.check(op) == []
    spec, out = op.out
    out.sets[0] = dataclasses.replace(out.sets[0], t=out.sets[0].t / 2 + 0.01)
    assert any("covers" in p for p in wl.check(op))
    garbage = workloads.Op(wl.kinds[0], None)
    problems = wl.check(garbage)
    assert len(problems) == 1 and "checker raised" in problems[0]


def test_layer_map_covers_every_per_layer_metric():
    with open(os.path.join(HERE, "layer_map.json"), encoding="utf-8") as fh:
        layer_map = json.load(fh)
    mapped = [m for entry in layer_map["map"] for m in entry["per_layer"]]
    assert sorted(mapped) == sorted(m["name"] for m in SPEC["per_layer"])
    workloads_named = {w for entry in layer_map["map"] for w in entry["moves"]}
    assert workloads_named <= set(NAMES)


def test_tail_has_ten_samples_beyond():
    lat = [float(i) for i in range(100)]
    value, pct, beyond = bench.tail(lat)
    assert pct == 90.0 and beyond == 10
    value, pct, beyond = bench.tail(lat[:12])
    assert pct == 50.0  # too few samples for a tail: the median
