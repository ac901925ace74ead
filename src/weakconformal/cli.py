"""Command-line front end.

Subcommands:
  run        full synthetic experiment, rows appended to a CSV
  calibrate  conformal threshold from a plain scores file (one per line)
  mbest      best-first set enumeration for ranking or matching inputs
  eval       coverage report for prediction sets against a JSONL dataset
  gen        write a synthetic dataset as JSONL

Precedence for `run` settings: built-in defaults, then command-line flags,
then the --config file (TOML or JSON) when given; `gen` takes flags only.
Errors, usage errors included, are reported as one JSON object on stderr
with exit code 1.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import synth
from .conformal import (
    LabelSet,
    PredictionInterval,
    UnsupportedWeakLabel,
    conformal_threshold,
    evaluate,
)
from .harness import _TASKS, ExperimentConfig, run as run_experiment
from .labels import FormatError, PartialMatching, RankingPrefix, read_jsonl
from .labels import _as_int, _as_real, _finite_floats, _strict_json, weak_contains, write_jsonl
from .matching import MatchingProblem, read_cost_csv
from .mbest import DEFAULT_CAP, enumerate_until, m_best
from .ranking import PsiSpec, RankingProblem

__all__ = ["main"]


def _load_config(path: str) -> dict:
    if path.endswith(".toml"):
        try:
            import tomllib  # py >= 3.11
        except ModuleNotFoundError:  # pragma: no cover - depends on interpreter
            try:
                import tomli as tomllib
            except ModuleNotFoundError as exc:
                raise FormatError(
                    "TOML config needs tomllib (py3.11+) or the tomli package; "
                    "use a JSON config instead"
                ) from exc
        with open(path, "rb") as fh:
            return tomllib.load(fh)
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# --- run -----------------------------------------------------------------


_RUN_FIELDS = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
_SCALARS = {"int": (int,), "float": (int, float), "str": (str,)}


def _check_config(loaded: dict) -> None:
    """Reject a config value of the wrong type, naming its field."""
    for name, value in loaded.items():
        kind = _RUN_FIELDS[name].type  # e.g. "int", "float | None", "tuple[str, ...]"
        if value is None and kind.endswith("| None"):
            continue
        if kind.startswith("tuple"):  # a list, or one comma-separated string
            item = _SCALARS["str" if "str" in kind else "float"]
            ok = isinstance(value, str) or (isinstance(value, list) and all(
                isinstance(v, item) and not isinstance(v, bool) for v in value
            ))
        else:
            ok = isinstance(value, _SCALARS[kind.split()[0]]) and not isinstance(value, bool)
        if not ok:
            raise FormatError(f"config field {name!r} must be {kind}, not {value!r}")


def _cmd_run(args: argparse.Namespace) -> int:
    settings = {name: v for name, v in vars(args).items() if name in _RUN_FIELDS and v is not None}
    if args.config:
        loaded = _load_config(args.config)
        if not isinstance(loaded, dict):
            raise FormatError("a config file must hold one table of settings")
        unknown = set(loaded) - set(_RUN_FIELDS)
        if unknown:
            raise FormatError(f"unknown config keys: {sorted(unknown)}")
        _check_config(loaded)
        settings.update(loaded)
    for name, item in (("methods", str), ("split", float)):  # one comma-separated string
        if isinstance(settings.get(name), str):
            try:
                settings[name] = [item(v) for v in settings[name].split(",")]
            except ValueError as exc:
                raise FormatError(f"{name} must be comma-separated {item.__name__} values, "
                                  f"not {settings[name]!r}") from exc
    cfg = ExperimentConfig(**settings)
    results = run_experiment(cfg)
    summary: dict = {"task": cfg.task, "alpha": cfg.alpha, "rows": len(results)}
    if cfg.out:
        summary["out"] = cfg.out
    for method in cfg.methods:
        rows = [r for r in results if r.method == method]
        summary[method] = {
            "strong_cov": float(np.mean([r.strong_cov for r in rows])),
            "weak_cov": float(np.mean([r.weak_cov for r in rows])),
            "avg_size": float(np.mean([r.avg_size for r in rows])),
            "truncation_fraction": float(np.mean([r.truncation_fraction for r in rows])),
        }
    print(_strict_json(summary, indent=2))
    return 0


# --- calibrate -------------------------------------------------------------


def _cmd_calibrate(args: argparse.Namespace) -> int:
    if args.scores == "-":
        text = sys.stdin.read()
    else:
        with open(args.scores, "r", encoding="utf-8") as fh:
            text = fh.read()
    scores = [score for line_no, raw in enumerate(text.splitlines(), start=1)
              for score in _finite_floats(raw.split(), line_no)]  # whitespace-separated
    if not scores:
        raise FormatError("scores file is empty")
    t = conformal_threshold(np.array(scores), args.alpha)
    print(t.value)
    return 0


# --- mbest -----------------------------------------------------------------


def _mbest_field(payload: dict, name: str, build):
    """build(array) from one numeric field, with errors that name the field."""
    try:
        arr = np.array(payload[name], dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(
            f"mbest input: {name!r} must be float-sized numbers in a regular (not ragged) array"
        ) from exc
    try:
        for value in np.array(payload[name], dtype=object).flat:  # the entries as read
            _as_real(value, "an entry")
        return build(arr)
    except ValueError as exc:
        raise FormatError(f"mbest input: {name!r}: {exc}") from exc


def _mbest_problem(path: str):
    if path.endswith(".csv"):
        return MatchingProblem(read_cost_csv(path))
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise FormatError("mbest input must be a JSON object with a 'relevances' or 'costs' key")
    if "relevances" in payload:
        psi_spec = payload.get("psi", {})
        if not isinstance(psi_spec, dict):
            raise FormatError(
                "mbest input: 'psi' must be an object such as {\"kind\": \"hinge\"}"
            )
        try:
            psi = PsiSpec(psi_spec.get("kind", "hinge"), _as_real(psi_spec.get("c", 0.0), "c"))
        except (TypeError, ValueError) as exc:
            raise FormatError(f"mbest input: 'psi': {exc}") from exc
        return _mbest_field(payload, "relevances", lambda r: RankingProblem(r, psi))
    if "costs" in payload:
        return _mbest_field(payload, "costs", MatchingProblem)
    raise FormatError("mbest input needs a 'relevances' or 'costs' key")


def _cmd_mbest(args: argparse.Namespace) -> int:
    problem = _mbest_problem(args.input)
    if args.threshold is not None:
        if math.isnan(args.threshold):  # enumerate_until would print an empty set
            raise ValueError("--threshold must be a number, not nan")
        result = enumerate_until(problem, args.threshold, cap=args.cap)
    else:
        result = m_best(problem, args.m)
    print(
        json.dumps(
            {
                "configs": [list(c) for c in result.configs],
                "scores": list(result.scores),
                "truncated": result.truncated,
            }
        )
    )
    return 0


# --- eval ------------------------------------------------------------------


class _ConfigSet:
    """Explicit set of structured configurations (rankings, matchings)."""

    def __init__(self, configs):
        self.members = {tuple(_as_int(v, "a configuration item") for v in c) for c in configs}

    def __contains__(self, y) -> bool:
        return tuple(_as_int(v, "an item") for v in y) in self.members

    def intersects(self, w) -> bool:
        if not isinstance(w, (RankingPrefix, PartialMatching)):
            raise UnsupportedWeakLabel("configuration set vs non-permutation weak label")
        return any(weak_contains(w, m) for m in self.members)

    def size(self) -> float:
        return float(len(self.members))


def _set_from_payload(payload: dict, line: int):
    if not isinstance(payload, dict):
        raise FormatError("a prediction set must be a JSON object", line=line)
    kind = payload.get("kind")
    try:
        if kind == "set":
            return LabelSet(payload["labels"], payload["k"])
        if kind == "interval":
            return PredictionInterval(payload["lo"], payload["hi"])
        if kind == "configs":
            return _ConfigSet(payload["configs"])
    except KeyError as exc:
        raise FormatError(
            f"missing field {exc.args[0]!r} for prediction-set kind {kind!r}", line=line
        ) from exc
    except (TypeError, ValueError) as exc:
        raise FormatError(f"bad {kind!r} prediction set: {exc}", line=line) from exc
    raise FormatError(f"unknown prediction-set kind {kind!r}", line=line)


def _cmd_eval(args: argparse.Namespace) -> int:
    records = list(read_jsonl(args.data))
    sets, lines = [], []
    with open(args.sets, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                payload = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise FormatError(f"bad JSON: {exc}", line=line_no) from exc
            sets.append(_set_from_payload(payload, line_no))
            lines.append(line_no)
    try:
        report = evaluate(sets, records)
    except (UnsupportedWeakLabel, ValueError) as exc:
        if getattr(exc, "index", None) is None:  # not about one (set, record) pair
            raise
        raise FormatError(
            f"prediction set does not fit its record: {exc}", line=lines[exc.index]
        ) from exc
    out = {
        "n": report.n,
        "strong_coverage": report.strong_coverage,
        "weak_coverage": report.weak_coverage,
        "avg_size": report.avg_size,
    }
    if report.size_histogram is not None:
        out["size_histogram"] = {str(k): v for k, v in sorted(report.size_histogram.items())}
    print(_strict_json(out, indent=2))
    return 0


# --- gen -------------------------------------------------------------------


def _cmd_gen(args: argparse.Namespace) -> int:
    data = synth._generate(args.task, vars(args))  # flags its generator does not read are ignored
    write_jsonl(args.out, synth.to_records(data))
    print(json.dumps({"task": args.task, "n": args.n, "out": args.out}))
    return 0


# --- parser ----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors raise FormatError, so they end as one JSON line like any
    other error (subcommand parsers inherit the class); -h still exits 0."""

    def error(self, message: str):
        raise FormatError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="weakconformal",
        description="Conformal prediction sets calibrated on weakly labeled data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a synthetic experiment")
    p_run.add_argument("--task", choices=list(_TASKS))
    p_run.add_argument("--alpha", type=float)
    p_run.add_argument("--trials", dest="n_trials", type=int)
    p_run.add_argument("--methods", help="comma-separated, e.g. wsc,fsc")
    p_run.add_argument("--m-max", dest="m_max", type=int)
    p_run.add_argument("--psi-c", dest="psi_c", type=float)
    p_run.add_argument("--split", help="three comma-separated fractions")
    p_run.add_argument("--out", help="CSV path (appended, never overwritten)")
    p_run.add_argument("--config", help="TOML or JSON config file (overrides flags)")
    p_run.set_defaults(fn=_cmd_run)

    p_cal = sub.add_parser("calibrate", help="threshold from a scores file")
    p_cal.add_argument("--scores", required=True, help="one score per line, or -")
    p_cal.add_argument("--alpha", type=float, required=True)
    p_cal.set_defaults(fn=_cmd_calibrate)

    p_mb = sub.add_parser("mbest", help="best-first enumeration")
    p_mb.add_argument("--input", required=True, help="JSON (relevances/costs) or cost CSV")
    group = p_mb.add_mutually_exclusive_group(required=True)
    group.add_argument("--m", type=int, help="number of configurations")
    group.add_argument("--threshold", type=float, help="enumerate scores <= threshold")
    p_mb.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p_mb.set_defaults(fn=_cmd_mbest)

    p_ev = sub.add_parser("eval", help="coverage report for prediction sets")
    p_ev.add_argument("--sets", required=True, help="JSONL of prediction sets")
    p_ev.add_argument("--data", required=True, help="JSONL of weak records")
    p_ev.set_defaults(fn=_cmd_eval)

    p_gen = sub.add_parser("gen", help="write a synthetic dataset as JSONL")
    p_gen.add_argument("--task", required=True, choices=list(_TASKS))
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(fn=_cmd_gen, n=1000)

    # one flag per generator setting, shared, typed as its ExperimentConfig field
    for name in [name for name in synth._RANGES if name in _RUN_FIELDS]:
        kind = {"int": int, "float": float}[_RUN_FIELDS[name].type.split()[0]]  # "float | None"
        for p in (p_run, p_gen):
            p.add_argument("--" + name.replace("_", "-"), dest=name, type=kind)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.fn(args)
    except (FormatError, ValueError, OSError, KeyError) as exc:
        line = getattr(exc, "line", None)
        payload = {"error": str(exc)}
        if line is not None:
            payload["line"] = line
        print(json.dumps(payload), file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
