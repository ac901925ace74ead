import json
import math

import numpy as np
import pytest

from weakconformal.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        ("run", json.dumps({"n": "abc"}), "'n'"),  # was a TypeError traceback
        ("run", json.dumps({"split": [0.25, "x", 0.5]}), "'split'"),
        ("run", "5", "table of settings"),
        ("eval", json.dumps([1, 2]), 1),  # was an AttributeError traceback
        ("eval", json.dumps({"kind": "set", "labels": "ab", "k": 10}), 1),  # had no line
        # an interval set against a label-set record was an UnsupportedWeakLabel traceback
        ("eval", json.dumps({"kind": "interval", "lo": 0, "hi": 1}), 1),
    ],
)
def test_malformed_input_is_one_located_error(tmp_path, capsys, command, text, located):
    path = tmp_path / "input"
    path.write_text(text + "\n")
    if command == "run":
        argv = ["run", "--config", str(path)]
    else:
        data = tmp_path / "d.jsonl"
        _run(capsys, "gen", "--task", "classify", "--n", "1", "--k", "3", "--seed", "0",
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


def test_missing_file_is_clean_error(capsys):
    code, _, err = _run(capsys, "calibrate", "--scores", "/nonexistent/path", "--alpha", "0.1")
    assert code == 1
    assert "error" in json.loads(err)
