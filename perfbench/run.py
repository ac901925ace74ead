"""Benchmark command: workloads of one seed in one process on one compute thread.

    python3 perfbench/run.py --workload gate --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``.
``--workload all`` runs the three workloads one after another in the same
process. Prints each metric by name and unit, then, as the last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with ``--trace 1``;
prefixed with the workload name under ``all``). Each workload's full
record, with the machine description, goes to
``.perfbench/<workload>-seed<seed>-trace<t>.json``; a traced run also writes
its spans next to it.
"""
import os
import sys
import time

_T0 = time.perf_counter()
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
for _var in _THREAD_VARS:  # before numpy loads its BLAS
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(os.getcwd(), ".perfbench")
WORKLOADS = ("gate", "enum-deep", "greedy-exact")


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_package():
    """Import the package from this checkout's src/ only; exit 2 when absent."""
    if not os.path.isfile(os.path.join(SRC, "weakconformal", "__init__.py")):
        sys.stderr.write(f"perfbench: no weakconformal package under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    import weakconformal

    if not os.path.abspath(weakconformal.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"perfbench: weakconformal imported from {weakconformal.__file__}\n")
        sys.exit(2)


def _fmt(name, value, unit, note=""):
    return f"{name:<34} {value:>14.6g} {unit}{note}"


def _report(args, name: str, res: dict, env: dict) -> dict:
    """Print one workload's metrics and write its result file; returns the metrics."""
    import bench

    run, tracer = res["run"], res["tracer"]
    extras = bench.workload_extras(res)
    print(f"# perfbench {name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} cycles={res['cycles']}")
    print("# env " + json.dumps(env, sort_keys=True))
    if args.trace:
        metrics = bench.per_layer(res)
        for metric, (value, unit) in metrics.items():
            print(_fmt(metric, value, unit))
    else:
        metrics = bench.end_to_end(res)
        _, pct, beyond = bench.tail(run.latencies)
        notes = {"op_tail_ms": f"  (p{pct:.1f} of {len(run.latencies)} ops, {beyond} beyond)",
                 "op_p50_ms": f"  ({len(run.latencies)} ops)"}
        for metric, (value, unit) in {**metrics, **extras}.items():
            print(_fmt(metric, value, unit, notes.get(metric, "")))
    for problem in run.failures:
        print("# FAILED " + problem.replace("\n", " | "))
    if tracer is not None and tracer.hook_errors:
        print(f"# tracer hook errors: {tracer.hook_errors[:5]}")

    stem = os.path.join(OUT, f"{name}-seed{args.seed}-trace{args.trace}")
    record = {
        "workload": name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cycles": res["cycles"], "env": env,
        "setup_reps_s": res["setup_reps_s"], "import_s": res["import_s"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extras": {k: {"value": v, "unit": u} for k, (v, u) in extras.items()},
        "attempted": run.attempted, "failed": run.failed, "failures": run.failures,
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if tracer is not None:
        tracer.write_spans(stem + "-spans.jsonl")
    return metrics


def main(argv=None) -> int:
    args = _args(argv)
    _import_package()
    import bench  # imports numpy and the workloads

    import_s = time.perf_counter() - _T0
    env = bench.environment(ROOT)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        res = bench.run_workload(name, args.seed, args.seconds, bool(args.trace),
                                 scratch_root=os.path.join(OUT, "tmp"), import_s=import_s)
        attempted += res["run"].attempted
        failed += res["run"].failed
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, (value, unit) in _report(args, name, res, env).items():
            metrics[prefix + metric] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
