"""Run one workload: set up, warm up, time a closed loop, check every output.

Set-up (input generation plus one warm-up cycle) is repeated ``setup_reps``
times and its median, plus the one-off import time, is ``setup_s``. The
timed pass then runs cycles back to back (each op starts when the previous
one returns) until ``seconds`` have passed, finishing the cycle in progress
so every op kind appears equally often. Op latency covers the package calls
only; output checks run between ops, untimed.

With ``trace`` set, odd cycles run with the tracer installed and even
cycles without it, so the per-layer figures and the tracing overhead come
from the same run.
"""
from __future__ import annotations

import os
import platform
import resource
import shutil
import statistics
import tempfile
import traceback
from collections import defaultdict
from time import perf_counter

import numpy as np

import tracing
import workloads

MAX_REPORTED_FAILURES = 20


class Run:
    """Counters and samples of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0
        self.latencies: list[float] = []  # untraced ops that returned, checked or not
        self.traced_latencies: list[float] = []
        self.kinds: defaultdict[str, list[float]] = defaultdict(list)  # untraced latency per op kind
        self.stages: defaultdict[str, list[float]] = defaultdict(list)
        self.configs = 0

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            room = MAX_REPORTED_FAILURES - len(self.failures)
            self.failures += problems[:max(room, 0)]


def _cycle(wl, cycle: int, tracer=None) -> list[tuple]:
    """Run one cycle's ops; returns (op or None, seconds, problems) per op."""
    done = []
    if tracer is not None:
        tracer.install()
    try:
        for kind, thunk in wl.ops(cycle):
            if tracer is not None:
                tracer.begin_op()
            t0 = perf_counter()
            try:
                op, problems = thunk(), []
            except Exception:  # a failing op is counted, never fatal
                op, problems = None, [f"{kind}: " + traceback.format_exc(limit=3).strip()]
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.end_op()
            done.append((op, dt, problems))
    finally:
        if tracer is not None:
            tracer.remove()
    return [(op, dt, problems or wl.check(op)) for op, dt, problems in done]


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scratch_root: str, sizes: workloads.Sizes = workloads.FULL,
                 setup_reps: int = 3, import_s: float = 0.0) -> dict:
    """Measure one workload; temporary files go under ``scratch_root``."""
    factory = workloads.WORKLOADS[name]
    run = Run()
    refs: dict = {}
    setups = []
    os.makedirs(scratch_root, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=scratch_root)
    try:
        for _ in range(setup_reps):
            t0 = perf_counter()
            wl = factory(seed, sizes, scratch, refs)
            warm = _cycle(wl, 0)
            setups.append(perf_counter() - t0)
            for _, _, problems in warm:
                run.record(problems)
        tracer = tracing.Tracer() if trace else None
        start = perf_counter()
        cycle = 1
        while True:
            traced = tracer is not None and cycle % 2 == 1
            for op, dt, problems in _cycle(wl, cycle, tracer if traced else None):
                run.record(problems)
                if op is None:  # raised: no latency to report
                    continue
                if traced:
                    run.traced_latencies.append(dt)
                    continue
                run.latencies.append(dt)
                run.kinds[op.kind].append(dt)
                run.configs += op.configs
                for stage, s in op.stages.items():
                    run.stages[stage].append(s)
            cycle += 1
            if perf_counter() - start >= seconds and (tracer is None or cycle > 2):
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if not os.listdir(scratch_root):
            os.rmdir(scratch_root)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "cycles": cycle - 1,
        "setup_s": import_s + statistics.median(setups),
        "setup_reps_s": setups,
        "import_s": import_s,
        "run": run,
        "tracer": tracer,
    }


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it): the highest percentile with at
    least ten samples beyond it, never below the median."""
    n = len(latencies)
    pct = max(50.0, 100.0 * (1.0 - 10.0 / n)) if n else 50.0
    value = float(np.percentile(latencies, pct)) if n else float("nan")
    return value, pct, sum(1 for x in latencies if x > value)


def end_to_end(res: dict) -> dict[str, tuple[float, str]]:
    run: Run = res["run"]
    lat = run.latencies
    busy = sum(lat)
    tail_s, _, _ = tail(lat)
    return {
        "setup_s": (res["setup_s"], "s"),
        "ops_per_s": (len(lat) / busy if busy else 0.0, "1/s"),
        "op_p50_ms": (1e3 * statistics.median(lat) if lat else float("nan"), "ms"),
        "op_tail_ms": (1e3 * tail_s, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def workload_extras(res: dict) -> dict[str, tuple[float, str]]:
    """End-to-end figures that exist only on some workloads."""
    run: Run = res["run"]
    out = {f"trial_ms.{stage}": (1e3 * statistics.median(v), "ms") for stage, v in run.stages.items()}
    if len(run.kinds) > 1:
        out.update({f"kind_p50_ms.{kind}": (1e3 * statistics.median(v), "ms")
                    for kind, v in run.kinds.items()})
    if run.configs:
        out["configs_per_s"] = (run.configs / sum(run.latencies), "1/s")
    out["fail_frac"] = (run.failed / run.attempted if run.attempted else 1.0, "ratio")
    return out


def per_layer(res: dict) -> dict[str, tuple[float, str]]:
    run: Run = res["run"]
    out = tracing.layer_metrics(res["tracer"])
    traced = len(run.traced_latencies) / sum(run.traced_latencies) if run.traced_latencies else 0.0
    plain = len(run.latencies) / sum(run.latencies) if run.latencies else 0.0
    out["trace.ops_per_s_traced"] = (traced, "1/s")
    out["trace.ops_per_s_untraced"] = (plain, "1/s")
    out["trace.overhead_frac"] = (plain / traced - 1.0 if traced else 0.0, "ratio")
    return out


def environment(root: str) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
        "commit": git_commit(root),
    }


def git_commit(root: str) -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a clone."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"
