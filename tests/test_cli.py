import contextlib
import dataclasses
import io
import json
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from weakconformal.cli import main
from weakconformal.harness import ExperimentConfig


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _strict(text):
    """text parsed as strict JSON: a bare Infinity or NaN token fails."""

    def reject(token):
        raise ValueError(f"not strict JSON: {token}")

    return json.loads(text, parse_constant=reject)


# --- calibrate ---------------------------------------------------------------


def test_calibrate_from_file(tmp_path, capsys):
    scores = tmp_path / "scores.txt"
    scores.write_text("0.1\n0.5\n0.3\n0.9\n0.2\n0.7\n0.4\n0.8\n0.6\n")
    code, out, err = _run(capsys, "calibrate", "--scores", str(scores), "--alpha", "0.2")
    assert code == 0 and err == ""
    assert float(out.strip()) == pytest.approx(0.8)


def test_calibrate_from_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("0.4 0.1 0.3 0.2\n"))
    code, out, _ = _run(capsys, "calibrate", "--scores", "-", "--alpha", "0.25")
    assert code == 0
    assert float(out.strip()) == pytest.approx(0.4)


def test_calibrate_infinite_threshold(capsys, tmp_path):
    scores = tmp_path / "s.txt"
    scores.write_text("0.5\n0.6\n")
    code, out, _ = _run(capsys, "calibrate", "--scores", str(scores), "--alpha", "0.05")
    assert code == 0
    assert math.isinf(float(out.strip()))


def test_calibrate_empty_file_is_error(tmp_path, capsys):
    scores = tmp_path / "s.txt"
    scores.write_text("")
    code, out, err = _run(capsys, "calibrate", "--scores", str(scores), "--alpha", "0.1")
    assert code == 1 and out == ""
    assert "empty" in json.loads(err)["error"]


# --- mbest -------------------------------------------------------------------


def test_mbest_matching_json(tmp_path, capsys):
    payload = {"costs": [[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]]}
    path = tmp_path / "costs.json"
    path.write_text(json.dumps(payload))
    code, out, _ = _run(capsys, "mbest", "--input", str(path), "--m", "3")
    assert code == 0
    result = json.loads(out)
    assert result["configs"][0] == [1, 0, 2]
    assert result["scores"][0] == pytest.approx(5.0)
    assert result["scores"] == sorted(result["scores"])
    assert result["truncated"] is False


def test_mbest_ranking_threshold(tmp_path, capsys):
    payload = {"relevances": [3.0, 1.0, 2.0], "psi": {"kind": "hinge"}}
    path = tmp_path / "rel.json"
    path.write_text(json.dumps(payload))
    code, out, _ = _run(capsys, "mbest", "--input", str(path), "--threshold", "1.0")
    assert code == 0
    result = json.loads(out)
    assert result["configs"][0] == [0, 2, 1]
    assert result["scores"][0] == 0.0
    assert all(s <= 1.0 for s in result["scores"])


def test_mbest_cost_csv(tmp_path, capsys):
    path = tmp_path / "costs.csv"
    path.write_text("3\n4,1,3\n2,0,5\n3,2,2\n")
    code, out, _ = _run(capsys, "mbest", "--input", str(path), "--m", "1")
    assert code == 0
    result = json.loads(out)
    assert result["configs"] == [[1, 0, 2]]


def test_mbest_bad_payload(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"weights": [1, 2]}))
    code, _, err = _run(capsys, "mbest", "--input", str(path), "--m", "1")
    assert code == 1
    assert "relevances" in json.loads(err)["error"]


@pytest.mark.parametrize(
    "payload, field",
    [
        (5, "relevances"),
        ({"relevances": [1.0, 2.0], "psi": "hinge"}, "psi"),
        ({"relevances": [1.0, 2.0], "psi": {"kind": "hinge", "c": "x"}}, "psi"),
        ({"costs": [[1.0, 2.0], [3.0]]}, "costs"),
        ({"costs": [[1.0, 2.0]]}, "costs"),
        ({"relevances": [[1, 2], [3, 4]]}, "relevances"),
        # scores that are not finite: exp(-c a) overflows; a finite weight
        # times a finite gap overflows; the gap itself overflows; two finite
        # pair terms sum past the largest float
        ({"relevances": [-400, 1, 2], "psi": {"kind": "exp_weighted", "c": 2}}, "relevances"),
        ({"relevances": [-350, 1e5], "psi": {"kind": "exp_weighted", "c": 2}}, "relevances"),
        ({"relevances": [-1e308, 1e308]}, "relevances"),
        ({"relevances": [-350, 1e4, 1e4], "psi": {"kind": "exp_weighted", "c": 2}}, "relevances"),
        # a c that is not finite is the psi's fault, not the relevances'
        ({"relevances": [0.1, 0.5, 0.9], "psi": {"kind": "exp_weighted", "c": math.nan}}, "psi"),
        # strings and booleans were read as numbers: "0.3" as 0.3, true as 1.0
        ({"relevances": ["0.3", "1.2", "-0.4"]}, "relevances"),
        ({"relevances": [True, False, 0.5]}, "relevances"),
        ({"costs": [["1", "2"], ["3", "0"]]}, "costs"),
        ({"relevances": [0.1, 0.5, 0.9], "psi": {"kind": "exp_weighted", "c": "0.5"}}, "psi"),
        ({"relevances": [0.1, 0.5, 0.9], "psi": {"kind": "exp_weighted", "c": True}}, "psi"),
        # an integer past the largest float was an OverflowError traceback
        ({"relevances": [10**400, 2, 3]}, "relevances"),
        ({"relevances": [0.1, 0.5, 0.9], "psi": {"kind": "exp_weighted", "c": 10**400}}, "psi"),
    ],
)
@pytest.mark.filterwarnings("error")  # a warning would be a second line on stderr
def test_mbest_malformed_payload_is_one_named_error(tmp_path, capsys, payload, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, out, err = _run(capsys, "mbest", "--input", str(path), "--m", "1")
    assert code == 1 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    message = json.loads(lines[0])["error"]
    assert repr(field) in message
    assert "inhomogeneous" not in message


def _cost_limit(k):
    # the largest cost magnitude whose totals and solver potentials stay finite
    return sys.float_info.max / (4 * k * (k + 2))


@pytest.mark.filterwarnings("error")
def test_mbest_rejects_costs_that_could_overflow(tmp_path, capsys):
    # 1e308 entries printed "scores": [Infinity, Infinity] and exited 0
    path = tmp_path / "costs.json"
    for costs in ([[1e308, 1e308], [1e308, 1e308]],
                  [[math.nextafter(_cost_limit(2), math.inf), 0.0], [0.0, 0.0]]):
        path.write_text(json.dumps({"costs": costs}))
        code, out, err = _run(capsys, "mbest", "--input", str(path), "--m", "2")
        assert code == 1 and out == ""
        message = json.loads(err)["error"]
        assert "'costs'" in message and "overflow" in message
    path.write_text(json.dumps({"costs": [[_cost_limit(2), -_cost_limit(2)], [0.0, 0.0]]}))
    code, out, _ = _run(capsys, "mbest", "--input", str(path), "--m", "2")
    assert code == 0
    assert _strict(out)["scores"] == [-_cost_limit(2), _cost_limit(2)]


def test_mbest_rejects_a_nan_threshold(tmp_path, capsys):
    # a NaN threshold admits nothing: it printed an empty set and exited 0
    path = tmp_path / "rel.json"
    path.write_text(json.dumps({"relevances": [3.0, 1.0, 2.0]}))
    code, out, err = _run(capsys, "mbest", "--input", str(path), "--threshold", "nan")
    assert code == 1 and out == ""
    assert "threshold" in json.loads(err)["error"]


# --- gen / eval round trip -----------------------------------------------------


def test_gen_then_eval_roundtrip(tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    code, out, _ = _run(
        capsys,
        "gen", "--task", "classify", "--n", "40", "--k", "4", "--seed", "3",
        "--out", str(data),
    )
    assert code == 0
    assert json.loads(out)["n"] == 40

    # trivial full-label sets cover everything
    sets = tmp_path / "sets.jsonl"
    with open(sets, "w") as fh:
        for _ in range(40):
            fh.write(json.dumps({"kind": "set", "labels": [0, 1, 2, 3], "k": 4}) + "\n")
    code, out, _ = _run(capsys, "eval", "--sets", str(sets), "--data", str(data))
    assert code == 0
    report = json.loads(out)
    assert report["n"] == 40
    assert report["strong_coverage"] == 1.0
    assert report["weak_coverage"] == 1.0
    assert report["avg_size"] == 4.0
    assert report["size_histogram"] == {"4": 40}


def test_gen_regress_eval_intervals(tmp_path, capsys):
    data = tmp_path / "reg.jsonl"
    code, _, _ = _run(
        capsys, "gen", "--task", "regress", "--n", "25", "--seed", "1",
        "--out", str(data),
    )
    assert code == 0
    sets = tmp_path / "sets.jsonl"
    with open(sets, "w") as fh:
        for _ in range(25):
            fh.write(json.dumps({"kind": "interval", "lo": -50.0, "hi": 50.0}) + "\n")
    code, out, _ = _run(capsys, "eval", "--sets", str(sets), "--data", str(data))
    assert code == 0
    report = json.loads(out)
    assert report["strong_coverage"] == 1.0
    assert report["avg_size"] == pytest.approx(100.0)


def test_eval_reports_an_infinite_size_as_strict_json(tmp_path, capsys):
    data = tmp_path / "reg.jsonl"
    assert _run(capsys, "gen", "--task", "regress", "--n", "5", "--out", str(data))[0] == 0
    sets = tmp_path / "sets.jsonl"
    sets.write_text('{"kind": "interval", "lo": 0.0, "hi": 1e999}\n' * 5)  # hi reads as inf
    code, out, _ = _run(capsys, "eval", "--sets", str(sets), "--data", str(data))
    assert code == 0
    assert _strict(out)["avg_size"] == "inf"


def test_eval_configs_kind(tmp_path, capsys):
    data = tmp_path / "match.jsonl"
    _run(capsys, "gen", "--task", "match", "--n", "10", "--k", "3", "--noise", "0.0",
         "--seed", "2", "--out", str(data))
    records = [json.loads(s) for s in data.read_text().strip().split("\n")]
    sets = tmp_path / "sets.jsonl"
    with open(sets, "w") as fh:
        for rec in records:
            fh.write(json.dumps({"kind": "configs", "configs": [rec["y"]]}) + "\n")
    code, out, _ = _run(capsys, "eval", "--sets", str(sets), "--data", str(data))
    assert code == 0
    report = json.loads(out)
    assert report["strong_coverage"] == 1.0
    assert report["avg_size"] == 1.0


def test_eval_bad_set_line_reports_line_number(tmp_path, capsys):
    data = tmp_path / "d.jsonl"
    _run(capsys, "gen", "--task", "classify", "--n", "2", "--k", "3", "--seed", "0",
         "--out", str(data))
    sets = tmp_path / "sets.jsonl"
    sets.write_text(
        json.dumps({"kind": "set", "labels": [0], "k": 3})
        + "\n"
        + json.dumps({"kind": "blob"})
        + "\n"
    )
    code, _, err = _run(capsys, "eval", "--sets", str(sets), "--data", str(data))
    assert code == 1
    payload = json.loads(err)
    assert payload["line"] == 2


def test_eval_set_missing_field_reports_field_and_line(tmp_path, capsys):
    data = tmp_path / "d.jsonl"
    _run(capsys, "gen", "--task", "classify", "--n", "1", "--k", "3", "--seed", "0",
         "--out", str(data))
    sets = tmp_path / "sets.jsonl"
    sets.write_text(json.dumps({"kind": "set", "labels": [0, 1]}) + "\n")
    code, _, err = _run(capsys, "eval", "--sets", str(sets), "--data", str(data))
    assert code == 1
    payload = json.loads(err)
    assert payload["line"] == 1
    assert "'k'" in payload["error"]


@pytest.mark.parametrize(
    "command, text, located",
    [
        ("run", json.dumps({"n": "abc"}), "n must be"),  # was a TypeError traceback
        ("run", json.dumps({"split": [0.25, "x", 0.5]}), "split must be"),
        ("run", "5", "table of settings"),
        ("eval", json.dumps([1, 2]), 1),  # was an AttributeError traceback
        ("eval", json.dumps({"kind": "set", "labels": "ab", "k": 10}), 1),  # had no line
        # an interval set against a label-set record was an UnsupportedWeakLabel traceback
        ("eval", json.dumps({"kind": "interval", "lo": 0, "hi": 1}), 1),
        # a configs set against a label-set record, and a label set against a
        # ranking-prefix record, were TypeError tracebacks
        ("eval", json.dumps({"kind": "configs", "configs": [[0, 1, 2]]}), 1),
        ("eval rank", json.dumps({"kind": "set", "labels": [0], "k": 3}), 1),
        # labels outside [0, k) or repeated were accepted as a smaller set
        ("eval", json.dumps({"kind": "set", "labels": [-1, 9, 9], "k": 3}), 1),
        # integers that are not integers were truncated: 3.7 read as 3, true as 1
        ("eval", json.dumps({"kind": "set", "labels": [0], "k": 3.7}), 1),
        ("eval", json.dumps({"kind": "set", "labels": [True], "k": 3}), 1),
        ("eval rank", json.dumps({"kind": "configs", "configs": [[0, 1.5, 2]]}), 1),
        ("data", json.dumps({"x": [0], "weak": {"kind": "set", "labels": [0], "k": 3.7}, "y": 0}), 1),
        ("data", json.dumps({"x": [0], "weak": {"kind": "prefix", "items": [0], "k": 3.7},
                             "y": [0, 1, 2]}), 1),
        ("data", json.dumps({"x": [0], "weak": {"kind": "matching", "pairs": [[0, 0.5]], "k": 3},
                             "y": [0, 1, 2]}), 1),
        # a configuration that is not a permutation of the record's k had no line
        ("eval rank", json.dumps({"kind": "configs", "configs": [[0, 1]]}), 1),
        # a NaN end point gave a report with "avg_size": NaN
        ("eval regress", json.dumps({"kind": "interval", "lo": math.nan, "hi": 1.0}), 1),
        # strings and booleans were read as numbers: "0.5" as 0.5, true as 1.0
        ("eval regress", json.dumps({"kind": "interval", "lo": True, "hi": 2.0}), 1),
        ("data", json.dumps({"x": ["0.1", "2"], "weak": {"kind": "set", "labels": [0]}, "y": 0}), 1),
        ("data", json.dumps({"x": [True, 0.2], "weak": {"kind": "set", "labels": [0]}, "y": 0}), 1),
        ("data", json.dumps({"x": [0], "weak": {"kind": "interval", "lo": "0.5", "hi": 1.0}}), 1),
        ("data", json.dumps({"x": [0], "weak": {"kind": "interval", "lo": False, "hi": True}}), 1),
        ("data", json.dumps({"x": [0], "weak": {"kind": "interval", "lo": 0.5, "hi": 1.0},
                             "y": "0.7"}), 1),
        # an integer past the largest float was an OverflowError traceback
        ("data", json.dumps({"x": [10**400], "weak": {"kind": "set", "labels": [0]}, "y": 0}), 1),
        # a NaN feature was read, and written back as a bare NaN token
        ("data", json.dumps({"x": [math.nan], "weak": {"kind": "set", "labels": [0]}, "y": 0}), 1),
    ],
)
def test_malformed_input_is_one_located_error(tmp_path, capsys, command, text, located):
    path = tmp_path / "input"
    path.write_text(text + "\n")
    if command == "run":
        argv = ["run", "--config", str(path)]
    elif command == "data":  # the records file is the malformed input; the set fits it
        fits = {
            "set": {"kind": "set", "labels": [0], "k": 3},
            "interval": {"kind": "interval", "lo": 0.0, "hi": 1.0},
        }.get(json.loads(text)["weak"]["kind"], {"kind": "configs", "configs": [[0, 1, 2]]})
        sets = tmp_path / "sets.jsonl"
        sets.write_text(json.dumps(fits) + "\n")
        argv = ["eval", "--sets", str(sets), "--data", str(path)]
    else:  # "eval" scores against one classify record, "eval TASK" one TASK record
        data = tmp_path / "d.jsonl"
        task = command.partition(" ")[2] or "classify"
        _run(capsys, "gen", "--task", task, "--n", "1", "--k", "3", "--seed", "0",
             "--out", str(data))
        argv = ["eval", "--sets", str(path), "--data", str(data)]
    code, out, err = _run(capsys, *argv)
    assert code == 1 and out == ""
    assert len(err.strip().splitlines()) == 1
    payload = json.loads(err)
    if isinstance(located, int):
        assert payload["line"] == located
    else:
        assert located in payload["error"]


@pytest.mark.parametrize(
    "command, text, located",
    [
        # a score that is not a number: "could not convert string to float", no line
        ("calibrate", "0.5\nabc\n", 2),
        # a score that is not finite: "calibration scores must be finite", no line
        ("calibrate", "0.5\n0.2 nan\n", 2),
        ("calibrate", "inf\n", 1),
        # a cost entry that is not finite: "cost entries must be finite", no line
        ("mbest", "2\n0,1\nnan,0\n", 3),
        ("mbest", "2\n0,inf\n1,0\n", 2),
        # a split that is not numbers: "could not convert string to float", no name
        ("run --split", "a,b,c", "split"),
        ("run", json.dumps({"split": "x,0.5,0.5"}), "split"),
    ],
)
def test_plain_text_input_is_one_located_error(tmp_path, capsys, command, text, located):
    path = tmp_path / "input.csv"
    path.write_text(text)
    argv = {
        "calibrate": ["calibrate", "--scores", str(path), "--alpha", "0.1"],
        "mbest": ["mbest", "--input", str(path), "--m", "2"],
        "run --split": ["run", "--n", "20", "--trials", "1", "--split", text],
        "run": ["run", "--config", str(path)],
    }[command]
    code, out, err = _run(capsys, *argv)
    assert code == 1 and out == ""
    assert len(err.strip().splitlines()) == 1
    payload = json.loads(err)
    if isinstance(located, int):
        assert payload["line"] == located
    else:
        assert located in payload["error"]


# --- run ----------------------------------------------------------------------


def test_run_summary_and_csv(tmp_path, capsys):
    out_csv = tmp_path / "rows.csv"
    code, out, _ = _run(
        capsys,
        "run", "--task", "regress", "--n", "120", "--trials", "2",
        "--alpha", "0.2", "--seed", "4", "--out", str(out_csv),
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["task"] == "regress"
    assert summary["rows"] == 4
    assert 0.0 <= summary["wsc"]["strong_cov"] <= 1.0
    assert summary["wsc"]["avg_size"] <= summary["fsc"]["avg_size"] + 1e-12
    assert out_csv.exists()


@pytest.mark.parametrize(
    "task, field",
    [("regress", "avg_size"), ("classify", "threshold")],  # infinite at this alpha
)
def test_run_writes_strict_json_when_a_value_is_not_finite(tmp_path, capsys, task, field):
    out_csv = tmp_path / "rows.csv"
    code, out, _ = _run(capsys, "run", "--task", task, "--alpha", "0.0001", "--n", "200",
                        "--trials", "2", "--out", str(out_csv))
    assert code == 0
    summary = _strict(out)
    rows = [_strict(line) for line in (tmp_path / "rows.jsonl").read_text().splitlines()]
    assert len(rows) == summary["rows"]
    assert all(row[field] == "inf" for row in rows)  # the CSV's own spelling
    assert "inf" in out_csv.read_text().splitlines()[1].split(",")
    if task == "regress":
        assert summary["wsc"]["avg_size"] == "inf"


def test_a_finite_run_writes_the_rows_as_plain_json(tmp_path):
    from weakconformal.harness import run

    out_csv = tmp_path / "rows.csv"
    results = run(ExperimentConfig(task="rank", n=200, n_trials=2, seed=3, out=str(out_csv)))
    lines = (tmp_path / "rows.jsonl").read_text().splitlines()
    assert lines == [json.dumps(dataclasses.asdict(row)) for row in results]


@pytest.mark.parametrize("task, capped", [("rank", True), ("classify", False)])
def test_run_summary_reports_the_truncation_fraction(capsys, task, capped):
    code, out, _ = _run(capsys, "run", "--task", task, "--n", "200", "--trials", "2",
                        "--seed", "5")
    assert code == 0
    summary = _strict(out)
    for method in ("wsc", "fsc"):
        fraction = summary[method]["truncation_fraction"]
        assert 0.0 <= fraction <= 1.0
        if not capped:
            assert fraction == 0.0


@pytest.mark.parametrize("c", ["nan", "inf"])
@pytest.mark.filterwarnings("error")  # a warning would be a second line on stderr
def test_run_rejects_a_psi_c_that_is_not_finite(capsys, c):
    code, out, err = _run(
        capsys, "run", "--task", "rank", "--n", "200", "--trials", "1", "--psi-c", c
    )
    assert code == 1 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert "'c'" in json.loads(lines[0])["error"]


@pytest.mark.parametrize(
    "argv, named",
    [
        # empty test block: NaN coverages and RuntimeWarnings
        (["--task", "classify", "--n", "40", "--split", "0.5,0.5,0"], "split"),
        # empty training block: an IndexError traceback
        (["--task", "rank", "--n", "20", "--split", "0,0.5,0.5"], "training block"),
        # settings that are not finite: reported as a success
        (["--task", "rank", "--n", "20", "--sigma", "nan"], "sigma"),
        (["--task", "regress", "--n", "20", "--mu", "inf"], "mu"),
        # a half-width floor resampling cannot reach: a RuntimeError traceback
        (["--task", "regress", "--n", "20", "--min-half-width", "10"], "min_half_width"),
        # a negative seed: numpy's "expected non-negative integer", naming nothing
        (["--task", "regress", "--n", "20", "--seed", "-1"], "seed"),
    ],
)
@pytest.mark.filterwarnings("error")  # a warning would be a second line on stderr
def test_run_settings_without_a_result_are_one_named_error(capsys, argv, named):
    code, out, err = _run(capsys, "run", "--trials", "1", *argv)
    assert code == 1 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert named in json.loads(lines[0])["error"]


@pytest.mark.parametrize(
    "argv",
    [
        # settings the task's generator does not read, which went unchecked into the sidecar
        ["--task", "match", "--k", "3", "--sigma", "nan"],
        ["--task", "classify", "--noise", "inf"],
        ["--task", "rank", "--mu", "nan"],
        ["--task", "match", "--min-half-width", "inf"],
        # settings the generator reads, which failed only inside the first trial,
        # with an error such as "need n >= 1, k >= 2, d >= 1" that named none of them
        ["--task", "classify", "--k", "1"],
        ["--task", "match", "--k", "1"],
        ["--task", "classify", "--d", "0"],
        ["--task", "classify", "--min-weak-size", "11"],
    ],
)
def test_run_rejects_any_task_setting_out_of_range_and_writes_nothing(tmp_path, capsys, argv):
    out_csv = tmp_path / "m.csv"
    code, out, err = _run(capsys, "run", "--n", "20", "--trials", "1", *argv, "--out", str(out_csv))
    assert code == 1 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]  # names the setting and its value
    assert error.startswith(argv[-2].lstrip("-").replace("-", "_") + " must be")
    assert error.endswith(f"not {argv[-1]}")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "bad, named",
    [
        # handed to open() as a file descriptor, then a str method failed on it
        ({"out": 5}, "out must be"),
        ({"out": b"x.csv"}, "out must be"),
        # two identical rows per trial; no method failed only inside run
        ({"methods": ("wsc", "wsc")}, "methods must be"),
        ({"methods": ()}, "methods must be"),
        # read by float(), and then refused when the sidecar was replayed
        ({"task": "rank", "psi_c": "0.5"}, "psi parameter 'c'"),
        ({"task": "rank", "psi_c": True}, "psi parameter 'c'"),
        ({"task": "rank", "psi_c": False}, "psi parameter 'c'"),
        # a k the task's generator does not read went unchecked
        ({"task": "regress", "k": "x"}, "k must be"),
        ({"task": "regress", "k": 1}, "k must be"),
        # OverflowError tracebacks: an int past the largest float
        ({"n": 10**400}, "n must be"),
        ({"task": "rank", "psi_c": 10**400}, "psi parameter 'c'"),
        # TypeErrors, which only the command line's own type check kept away
        ({"task": ["rank"]}, "task must be"),
        ({"methods": 5}, "methods must be"),
        ({"split": 5}, "split must be"),
        ({"split": ("0.25", "0.25", "0.5")}, "split must be"),
        # the sum rule is three_way_split's, and named no field
        ({"split": (0.5, 0.5, 0.5)}, "split must be"),
    ],
)
def test_a_bad_run_setting_is_one_named_error_from_the_api_and_the_config(
    tmp_path, capsys, bad, named
):
    with pytest.raises(ValueError, match=named):
        ExperimentConfig(**bad)
    if any(isinstance(v, bytes) for v in bad.values()):
        return  # no config file can hold bytes
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(bad))
    code, out, err = _run(capsys, "run", "--config", str(config))
    assert code == 1 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert named in json.loads(lines[0])["error"]
    assert list(tmp_path.iterdir()) == [config]


class _Built(Exception):
    """Raised in place of a run, carrying the config the command line built."""


def _build_only(cfg):
    raise _Built(cfg)


# (valid, invalid) values of every run setting, as a config file holds them; a
# valid value may still clash with another setting (gws outside classify, a
# split that empties the test block). methods and split are never strings
# here, since the command line splits a comma-separated string first.
_SETTINGS = {
    "task": (["classify", "rank", "match", "regress"], ["bogus", ["rank"], 5, None]),
    "alpha": ([0.1, 0.5], [0, 1, "0.1", True, None, math.nan]),
    "n_trials": ([1, 3], [0, 1.0, True]),
    "seed": ([0, 7], [-1, 2.5, "1"]),
    "n": ([40, 4000], [9, 40.0, 10**400]),
    "split": ([[0.25, 0.25, 0.5], [0.4, 0.3, 0.3], [0, 0.5, 0.5], [0.5, 0.5, 0]],
              [[0.5, 0.5, 0.5], [0.5, 0.5], [-0.5, 0.5, 1.0], [0.25, "x", 0.5], 5, None]),
    "k": ([None, 2, 5], [1, -1, "x", 3.0, True]),
    "d": ([1, 2], [0, 1.5, None]),
    "sigma": ([0.0, 1.0], [-1, math.inf, math.nan, "1"]),
    "noise": ([0.25, 0], [-0.5, math.inf, None]),
    "mu": ([0.05, 1], [0, math.nan, "x"]),
    "min_weak_size": ([1, 2], [0, 100, 1.5]),
    "min_half_width": ([None, 0.02, 10], [math.nan, "x"]),
    "methods": ([["wsc"], ["wsc", "fsc"], ["gws"], ["pessimistic", "wsc"]],
                [["wsc", "wsc"], [], [1], 5, None, {"wsc": 1}]),
    "m_max": ([1, 20], [0, 2.5, False]),
    "psi_c": ([0, 0.5, 2], [-1, "0.5", True, False, math.nan, None]),
    "out": ([None, "rows.csv"], [5, ["rows.csv"]]),
}


@st.composite
def _run_settings(draw):
    """Some run settings, each valid or invalid, most of them valid."""
    chosen = {}
    for name, (valid, invalid) in _SETTINGS.items():
        if draw(st.booleans()):
            spoilt = draw(st.integers(0, 5)) == 0
            chosen[name] = draw(st.sampled_from(invalid if spoilt else valid))
    return chosen


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(chosen=_run_settings())
def test_the_config_and_the_api_accept_the_same_settings(tmp_path, monkeypatch, chosen):
    try:
        cfg, refused = ExperimentConfig(**chosen), False
    except ValueError:
        refused = True
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(chosen))
    err = io.StringIO()
    monkeypatch.setattr("weakconformal.cli.run_experiment", _build_only)
    with contextlib.redirect_stderr(err):
        try:
            code = main(["run", "--config", str(config)])
        except _Built as built:
            code, built_cfg = 0, built.args[0]
    assert code == (1 if refused else 0)
    if refused:
        assert len(err.getvalue().strip().splitlines()) == 1
    else:  # the sidecar's strict JSON rebuilds the config
        assert built_cfg == cfg
        text = json.dumps(dataclasses.asdict(cfg), allow_nan=False)
        assert ExperimentConfig(**json.loads(text)) == cfg


@pytest.mark.parametrize(
    "argv",
    [
        ["--task", "classify", "--methods", "wsc,fsc,gws,pessimistic"],
        ["--task", "rank", "--psi-c", "0.5"],
        ["--task", "match", "--k", "3"],
        ["--task", "regress", "--methods", "wsc,fsc,pessimistic", "--min-half-width", "0.02"],
    ],
)
def test_a_run_replays_from_its_sidecar(tmp_path, capsys, argv):
    def csv_without_seconds(path):
        lines = [line.split(",") for line in path.read_text().splitlines()]
        drop = lines[0].index("seconds")
        return [line[:drop] + line[drop + 1:] for line in lines]

    first = tmp_path / "first.csv"
    code, _, _ = _run(capsys, "run", *argv, "--n", "240", "--trials", "2", "--seed", "11",
                      "--out", str(first))
    assert code == 0
    meta = json.loads((tmp_path / "first.meta.json").read_text())
    config = tmp_path / "replay.json"
    config.write_text(json.dumps(dict(meta["config"], out=str(tmp_path / "replay.csv"))))
    code, _, _ = _run(capsys, "run", "--config", str(config))
    assert code == 0
    replayed = json.loads((tmp_path / "replay.meta.json").read_text())
    assert replayed["trial_seeds"] == meta["trial_seeds"]
    assert dict(replayed["config"], out=None) == dict(meta["config"], out=None)
    rows = csv_without_seconds(first)
    assert len(rows) > 1 and csv_without_seconds(tmp_path / "replay.csv") == rows


def test_run_config_file_overrides_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"task": "regress", "n": 150, "alpha": 0.25}))
    code, out, _ = _run(
        capsys,
        "run", "--task", "classify", "--n", "9999", "--trials", "1",
        "--seed", "6", "--config", str(cfg),
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["task"] == "regress"
    assert summary["alpha"] == 0.25


def test_run_toml_config(tmp_path, capsys):
    try:
        import tomllib  # noqa: F401
    except ModuleNotFoundError:
        try:
            import tomli  # noqa: F401
        except ModuleNotFoundError:
            pytest.skip("no TOML reader available")
    cfg = tmp_path / "cfg.toml"
    cfg.write_text('task = "regress"\nn = 120\nn_trials = 1\nalpha = 0.2\nseed = 2\n')
    code, out, _ = _run(capsys, "run", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["task"] == "regress"


def test_run_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"task": "regress", "bogus": 1}))
    code, _, err = _run(capsys, "run", "--config", str(cfg))
    assert code == 1
    assert "bogus" in json.loads(err)["error"]


def test_run_methods_flag_parsing(capsys):
    code, out, _ = _run(
        capsys,
        "run", "--task", "classify", "--n", "100", "--trials", "1", "--k", "4",
        "--alpha", "0.25", "--seed", "7", "--methods", "wsc,fsc,pessimistic",
    )
    assert code == 0
    summary = json.loads(out)
    assert set(summary) >= {"wsc", "fsc", "pessimistic"}


def test_error_payload_on_stderr(capsys):
    code, out, err = _run(capsys, "run", "--task", "rank", "--methods", "gws")
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert "gws" in payload["error"]


@pytest.mark.parametrize(
    "argv, named",
    [
        (["run", "--alpha", "abc"], "--alpha"),
        (["mbest", "--input", "x.json"], "--m"),
        (["run", "--task", "segment"], "--task"),
        (["calibrate", "--scores", "-", "--alpha", "0.1", "--bogus", "1"], "--bogus"),
        (["teleport"], "teleport"),
        ([], "command"),
    ],
)
def test_usage_error_is_one_json_error(capsys, argv, named):
    # argparse used to print its usage text and exit 2
    code, out, err = _run(capsys, *argv)
    assert code == 1 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert named in json.loads(lines[0])["error"]


def test_help_still_prints_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "-h"])
    assert exc.value.code == 0
    assert "--alpha" in capsys.readouterr().out


def test_missing_file_is_clean_error(capsys):
    code, _, err = _run(capsys, "calibrate", "--scores", "/nonexistent/path", "--alpha", "0.1")
    assert code == 1
    assert "error" in json.loads(err)


# --- fuzz: any argv is an exit code, never a traceback ---------------------------

# Each flag draws from a pool of valid values, except at most one per argv,
# which draws from a pool of one value of each bad kind: 0, negative, nan,
# inf, not a number, a float where an int belongs. Valid sizes stay small
# (n <= 40, k <= 7, trials <= 2), so no draw allocates a large array.
_BAD_FLOATS = ["0", "-1", "nan", "inf", "abc"]
_BAD_INTS = ["0", "-1", "nan", "inf", "abc", "1.5"]
_RUN_FLAGS = {  # flag: (valid values, bad values)
    "--task": (["classify", "rank", "match", "regress"], ["segment"]),
    "--alpha": (["0.1", "0.3"], [*_BAD_FLOATS, "1"]),
    "--trials": (["1", "2"], _BAD_INTS),
    "--seed": (["0", "3"], _BAD_INTS),
    "--n": (["12", "40"], [*_BAD_INTS, "3"]),
    "--k": (["2", "3", "7"], [*_BAD_INTS, "1"]),
    "--d": (["1", "3"], _BAD_INTS),
    "--sigma": (["0", "0.5"], _BAD_FLOATS),
    "--noise": (["0", "0.5"], _BAD_FLOATS),
    "--mu": (["0.05", "1"], _BAD_FLOATS),
    "--min-weak-size": (["1", "2"], _BAD_INTS),
    "--min-half-width": (["0.04"], [*_BAD_FLOATS, "10"]),
    "--methods": (["wsc,fsc", "wsc,fsc,gws,pessimistic", "gws", "pessimistic"], ["bogus", ""]),
    "--m-max": (["1", "5"], _BAD_INTS),
    "--psi-c": (["0", "1"], _BAD_FLOATS),
    "--split": (["0.25,0.25,0.5", "0.4,0.3,0.3"],
                ["0,0.5,0.5", "0.5,0.5,0", "0.5,0,0.5", "nan,0.5,0.5", "a,b,c", "1",
                 "0.5,-0.25,0.75", "0.96,0.02,0.02"]),
}
_GEN_FLAGS = {
    flag: _RUN_FLAGS[flag] for flag in (
        "--task", "--n", "--k", "--d", "--sigma", "--noise", "--mu", "--min-weak-size",
        "--min-half-width", "--seed")
}
_CALIBRATE_FLAGS = {"--alpha": _RUN_FLAGS["--alpha"]}
_MBEST_FLAGS = {"--m": (["3", "50"], _BAD_INTS), "--threshold": (["1.5", "8"], _BAD_FLOATS),
                "--cap": (["5", "100"], _BAD_INTS)}

_RECORDS = {
    "set": {"x": [0.1, 0.2], "weak": {"kind": "set", "labels": [0, 2]}, "y": 0},
    "prefix": {"x": [0.0], "weak": {"kind": "prefix", "items": [1], "k": 3}, "y": [1, 0, 2]},
    "matching": {"x": [0.0], "weak": {"kind": "matching", "pairs": [[0, 1]], "k": 3},
                 "y": [1, 0, 2]},
    "interval": {"x": [1.0], "weak": {"kind": "interval", "lo": 0.5, "hi": 1.5}, "y": 1.0},
}
_POOLS = {
    "data": {
        **{f"{kind}.jsonl": json.dumps(rec) for kind, rec in _RECORDS.items()},
        "two.jsonl": json.dumps(_RECORDS["set"]) + "\n" + json.dumps(_RECORDS["set"]),
        "k37.jsonl": json.dumps({**_RECORDS["prefix"], "weak": {"kind": "prefix", "items": [1],
                                                                 "k": 3.7}}),
        "outside.jsonl": json.dumps({**_RECORDS["set"], "y": 1}),
        "nan.jsonl": json.dumps({**_RECORDS["interval"], "y": float("nan")}),
        "x.jsonl": json.dumps({**_RECORDS["set"], "x": "ab"}),
        "bad.jsonl": "{not json",
        "empty.jsonl": "",
    },
    "sets": {
        "set.jsonl": json.dumps({"kind": "set", "labels": [0, 1], "k": 3}),
        "interval.jsonl": json.dumps({"kind": "interval", "lo": 0.0, "hi": 2.0}),
        "nan-interval.jsonl": json.dumps({"kind": "interval", "lo": float("nan"), "hi": 1.0}),
        "configs.jsonl": json.dumps({"kind": "configs", "configs": [[1, 0, 2], [0, 1, 2]]}),
        "short.jsonl": json.dumps({"kind": "configs", "configs": [[0, 1]]}),
        "k37.jsonl": json.dumps({"kind": "set", "labels": [0], "k": 3.7}),
        "true.jsonl": json.dumps({"kind": "set", "labels": [True], "k": 3}),
        "blob.jsonl": json.dumps({"kind": "blob"}),
        "list.jsonl": "[1, 2]",
        "bad.jsonl": "{not json",
        "empty.jsonl": "",
    },
    "scores": {
        "scores.txt": "0.1\n0.5\n0.3\n0.9\n0.2\n",
        "nan.txt": "0.1\nnan\n",
        "inf.txt": "1e400 0.2",
        "words.txt": "abc",
        "empty.txt": "",
    },
    "mbest": {
        "rel.json": json.dumps({"relevances": [3.0, 1.0, 2.0]}),
        "rel-exp.json": json.dumps({"relevances": [0.1, 0.5, 0.9, 0.3],
                                    "psi": {"kind": "exp_weighted", "c": 1}}),
        "rel-one.json": json.dumps({"relevances": [1.0]}),
        "rel-empty.json": json.dumps({"relevances": []}),
        "rel-nan.json": json.dumps({"relevances": [1.0, float("nan")]}),
        "psi-bogus.json": json.dumps({"relevances": [1.0, 2.0], "psi": {"kind": "bogus"}}),
        "costs.json": json.dumps({"costs": [[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]]}),
        "costs-empty.json": json.dumps({"costs": [[]]}),
        "costs-inf.json": json.dumps({"costs": [[1.0, float("inf")], [0.0, 1.0]]}),
        "costs.csv": "3\n4,1,3\n2,0,5\n3,2,2\n",
        "short.csv": "2\n1,2\n3\n",
        "nan.csv": "2\n1,nan\n3,4\n",
        "header.csv": "2.5\n1,2\n3,4\n",
        "list.json": "[1, 2]",
        "bad.json": "{not json",
    },
    "config": {
        "regress.json": json.dumps({"task": "regress", "n": 30, "n_trials": 1}),
        "match.json": json.dumps({"task": "match", "n": 20, "n_trials": 1, "k": 3}),
        "split.json": json.dumps({"split": "0.5,0.5,0", "n": 20, "n_trials": 1}),
        "float-n.json": json.dumps({"n": 20.5}),
        "big-k.json": json.dumps({"k": 1.5}),
        "alpha.json": json.dumps({"alpha": "x"}),
        "list.json": "[1]",
        "bad.json": "{not json",
        "bad.toml": "n = \n",
    },
}


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    paths = {}
    for pool, files in _POOLS.items():
        paths[pool] = []
        for name, text in files.items():
            path = root / f"{pool}-{name}"
            path.write_text(text + ("\n" if text else ""))
            paths[pool].append(str(path))
    paths["out"] = [str(root / "rows.csv"), str(root / "missing" / "rows.csv")]
    return paths


@st.composite
def _argv(draw, files):
    def flags(table, required=()):  # at most one flag takes a bad value
        given = [flag for flag in table if flag in required or draw(st.booleans())]
        spoilt = draw(st.sampled_from([None, *given]))
        argv = []
        for flag in given:
            valid, bad = table[flag]
            argv += [flag, draw(st.sampled_from(bad if flag == spoilt else valid))]
        return argv

    command = draw(st.sampled_from(["run", "gen", "calibrate", "mbest", "eval"]))
    pick = lambda pool: draw(st.sampled_from(files[pool]))  # noqa: E731
    if command == "run":  # --n, --trials and --k always given: their defaults are large
        argv = flags(_RUN_FLAGS, required=("--n", "--trials", "--k"))
        if draw(st.booleans()):
            argv += ["--out", pick("out")]
        if draw(st.integers(0, 3)) == 0:
            argv += ["--config", pick("config")]
    elif command == "gen":
        argv = flags(_GEN_FLAGS, required=("--task", "--n", "--k")) + ["--out", pick("out")]
    elif command == "calibrate":
        argv = ["--scores", pick("scores"), *flags(_CALIBRATE_FLAGS)]
    elif command == "mbest":
        argv = ["--input", pick("mbest"), *flags(_MBEST_FLAGS)]
    else:
        argv = ["--sets", pick("sets"), "--data", pick("data")]
    if draw(st.integers(0, 7)) == 0:  # now and then a required flag goes missing
        argv = argv[: 2 * draw(st.integers(0, len(argv) // 2))]
    return [command, *argv]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_argv_ends_in_exit_0_or_one_json_error(fuzz_files, data):
    argv = data.draw(_argv(fuzz_files), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():  # a warning would be a second line on stderr
            warnings.simplefilter("error")
            code = main(argv)
    assert code in (0, 1)
    if code == 1:
        lines = err.getvalue().strip().splitlines()
        assert len(lines) == 1
        assert "error" in json.loads(lines[0])
    else:
        assert err.getvalue() == ""
