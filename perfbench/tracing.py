"""Runtime span tracing of the weakconformal package, installed from outside it.

``Tracer.install()`` replaces every public function of each layer module
(the names in the module's ``__all__``) and every public method of the
public classes there with a timing wrapper, in every module of the package
that refers to it, so calls made between package modules are traced too.
``Tracer.remove()`` puts the originals back. No package source changes.

Each wrapped call is a span: name, start, end, parent span and the op it
belongs to. Spans are aggregated on the fly (calls, inclusive time, self
time = duration minus the time of direct child spans); the first
``MAX_SPANS`` raw spans are also kept in memory and written out at the end.

Enumeration accounting: every ``mbest.Enumerator`` built while tracing is
attached to the innermost *owner* call (``m_best``, ``enumerate_until``,
``compatible_rank`` or a harness ``run``); when the owner returns, its
enumerators' emitted configurations are counted, and the useful ones are
those within the owner's threshold (see ``_OWNER_RULES``).
"""
from __future__ import annotations

import enum
import functools
import importlib
import inspect
import itertools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable

from weakconformal.matching import MatchingProblem
from weakconformal.mbest import EnumerationCapExceeded

PACKAGE = "weakconformal"
LAYERS = ("synth", "ranking", "matching", "mbest", "conformal", "greedy", "regression", "harness")

MAX_SPANS = 50_000  # raw spans kept for the span file; the aggregates count every span
_HUNGARIAN = "matching.hungarian"
_MATCHING_ENUM = ("matching.MatchingProblem.root", "matching.MatchingProblem.split")


class Tracer:
    """Span recorder for one benchmark run; install before an op, remove after."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # span name -> [calls, inclusive s, self s]
        self.task_self_s: defaultdict[str, float] = defaultdict(float)
        self.enum = Counter()  # enumerators, configs, useful, cap_hits, ...
        self.spans: list[tuple] = []
        self.hook_errors: list[str] = []
        self.ops = 0  # traced ops so far; spans carry the op number
        self._stack: list[list] = []  # [child seconds, span id]
        self._matching_depth = [0]  # open MatchingProblem.root/split spans
        self._owners: list[list] = []
        self._orphans: list = []
        self._ids = itertools.count(1)
        self._patches: list[tuple[Any, str, Any]] = []
        self._modules = [importlib.import_module(f"{PACKAGE}.{m}") for m in LAYERS]

    # --- install / remove -----------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        package_modules = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for layer, module in zip(LAYERS, self._modules):
            for public in getattr(module, "__all__", ()):
                obj = getattr(module, public, None)
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrapper = self._wrap(f"{layer}.{public}", obj)
                    for mod in package_modules:
                        for attr, value in list(vars(mod).items()):
                            if value is obj:
                                self._patch(mod, attr, wrapper)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._install_class(layer, obj)

    def _install_class(self, layer: str, cls: type) -> None:
        if issubclass(cls, (BaseException, enum.Enum)) or getattr(cls, "_is_protocol", False):
            return
        for attr, raw in list(vars(cls).items()):
            name = f"{layer}.{cls.__name__}.{attr}"
            if attr == "__init__" and cls.__name__ == "Enumerator":
                self._patch(cls, attr, self._register_enumerator(raw))
            elif attr.startswith("_"):
                continue
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(name, raw))
            elif isinstance(raw, (classmethod, staticmethod)):
                self._patch(cls, attr, type(raw)(self._wrap(name, raw.__func__)))

    def _patch(self, holder: Any, attr: str, new: Any) -> None:
        self._patches.append((holder, attr, vars(holder)[attr]))
        setattr(holder, attr, new)

    def remove(self) -> None:
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    # --- ops ----------------------------------------------------------------------

    def begin_op(self) -> None:
        self.ops += 1

    def end_op(self) -> None:
        for e in self._orphans:  # enumerators built outside any owner call
            self._count_enumerator(e, len(e.scores))
        self._orphans.clear()

    # --- wrappers -------------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        timed = self._timed(name, fn)
        rule = _OWNER_RULES.get(name)
        depth = self._matching_depth
        if rule is not None:
            sig, stat, owners = inspect.signature(fn), self.stats[name], self._owners

            @functools.wraps(fn)
            def owner(*args, **kwargs):
                owners.append([])
                own_before = stat[2]
                result = error = None
                try:
                    result = timed(*args, **kwargs)
                    return result
                except BaseException as exc:
                    error = exc
                    raise
                finally:
                    self._close_owner(name, rule, sig, args, kwargs, result, error, owners.pop(),
                                      stat[2] - own_before)

            return owner
        if name == _HUNGARIAN:

            @functools.wraps(fn)
            def solver(*args, **kwargs):
                if depth[0]:
                    self.enum["matching_enum_hungarian"] += 1
                return timed(*args, **kwargs)

            return solver
        if name in _MATCHING_ENUM:

            @functools.wraps(fn)
            def backend(*args, **kwargs):
                depth[0] += 1
                try:
                    return timed(*args, **kwargs)
                finally:
                    depth[0] -= 1

            return backend
        return timed

    def _timed(self, name: str, fn: Callable) -> Callable:
        stack, spans, ids = self._stack, self.spans, self._ids
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])  # calls, inclusive s, self s

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = [0.0, next(ids)]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[0]
                if len(spans) < MAX_SPANS:
                    spans.append((self.ops, frame[1], stack[-1][1] if stack else 0, name, t0, t1))

        return timed

    def _register_enumerator(self, init: Callable) -> Callable:
        owners, orphans = self._owners, self._orphans

        @functools.wraps(init)
        def __init__(enumerator, *args, **kwargs):
            init(enumerator, *args, **kwargs)
            (owners[-1] if owners else orphans).append(enumerator)

        return __init__

    def _close_owner(self, name, rule, sig, args, kwargs, result, error, enumerators, own_s):
        try:
            rule(self, sig.bind(*args, **kwargs).arguments, result, error, enumerators, own_s)
        except Exception as exc:  # accounting must never break the traced program
            self.hook_errors.append(f"{name}: {type(exc).__name__}: {exc}")

    def _count_enumerator(self, e, useful: int) -> None:
        n = len(e.scores)
        self.enum["enumerators"] += 1
        self.enum["configs"] += n
        self.enum["useful"] += min(useful, n)
        if isinstance(e.problem, MatchingProblem):
            self.enum["matching_configs"] += n

    # --- output -----------------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for op, sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"op": op, "id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1}) + "\n")


# --- enumeration owners ---------------------------------------------------------------


def _all_useful(tr: Tracer, bound, result, error, enumerators, own_s) -> None:
    for e in enumerators:
        tr._count_enumerator(e, len(e.scores))


def _until(tr: Tracer, bound, result, error, enumerators, own_s) -> None:
    threshold = bound["threshold"]
    for e in enumerators:
        tr._count_enumerator(e, sum(1 for s in e.scores if s <= threshold))
    if result is not None and result.truncated:
        tr.enum["cap_hits"] += 1


def _compatible(tr: Tracer, bound, result, error, enumerators, own_s) -> None:
    for e in enumerators:
        tr._count_enumerator(e, result if isinstance(result, int) else 0)
    if isinstance(error, EnumerationCapExceeded):
        tr.enum["cap_hits"] += 1


def _trial(tr: Tracer, bound, result, error, enumerators, own_s) -> None:
    tr.task_self_s[bound["cfg"].task] += own_s
    rows = result or []
    t_max = max((r.threshold for r in rows), default=float("-inf"))
    for e in enumerators:
        tr._count_enumerator(e, sum(1 for s in e.scores if s <= t_max))
    if enumerators:
        tr.enum["cap_hits"] += sum(round(r.truncation_fraction * len(enumerators)) for r in rows)


_OWNER_RULES = {
    "mbest.m_best": _all_useful,
    "mbest.enumerate_until": _until,
    "mbest.compatible_rank": _compatible,
    "harness.run": _trial,
}


# --- per-layer metrics ---------------------------------------------------------------

#: metric -> span names whose inclusive time is summed
INCLUSIVE_MS = {
    "synth.generate_ms": ("synth.gen_multiclass", "synth.gen_ranking", "synth.gen_matching",
                          "synth.gen_regression"),
    "synth.fit_ms": ("synth.train_multinomial_logistic", "synth.train_per_label_logistic",
                     "synth.fit_ols"),
    "ranking.root_ms": ("ranking.RankingProblem.root",),
    "ranking.split_ms": ("ranking.RankingProblem.split",),
    "ranking.score_ms": ("ranking.rank_scores_batch", "ranking.complete_prefix"),
    "ranking.fit_ms": ("ranking.listnet_train",),
    "matching.hungarian_ms": (_HUNGARIAN,),
    "matching.split_ms": ("matching.MatchingProblem.split",),
    "conformal.threshold_ms": ("conformal.conformal_threshold",),
    "greedy.from_marginals_ms": ("greedy.DiscreteWeakDistribution.from_marginals",),
    "greedy.sequence_ms": ("greedy.greedy_sequence",),
    "greedy.profile_ms": ("greedy.size_profile",),
    "greedy.wolsey_ms": ("greedy.wolsey_constant",),
    "greedy.structure_ms": ("greedy.check_structure",),
    "greedy.allocation_ms": ("greedy.marginal_allocation",),
    "greedy.nested_scores_ms": ("greedy.label_independent_nested_scores",),
    "regression.partial_ms": ("regression.interval_partial_score",
                              "regression.interval_pessimistic_score"),
}

#: metric -> span names whose calls are counted
CALLS = {
    "ranking.split_calls": ("ranking.RankingProblem.split",),
    "matching.hungarian_calls": (_HUNGARIAN,),
    "matching.split_calls": ("matching.MatchingProblem.split",),
    "conformal.threshold_calls": ("conformal.conformal_threshold",),
    "regression.partial_calls": ("regression.interval_partial_score",
                                 "regression.interval_pessimistic_score"),
}

TASKS = ("classify", "rank", "match", "regress")


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Per-op averages over the traced ops: name -> (value, unit)."""
    ops = max(tr.ops, 1)
    stat = defaultdict(lambda: (0, 0.0, 0.0), tr.stats)
    out: dict[str, tuple[float, str]] = {}
    for metric, names in INCLUSIVE_MS.items():
        out[metric] = (1e3 * sum(stat[n][1] for n in names) / ops, "ms/op")
    for metric, names in CALLS.items():
        out[metric] = (sum(stat[n][0] for n in names) / ops, "count/op")
    e = tr.enum
    out["matching.hungarian_per_config"] = (
        e["matching_enum_hungarian"] / e["matching_configs"] if e["matching_configs"] else 0.0,
        "calls/config",
    )
    out["mbest.enumerators"] = (e["enumerators"] / ops, "count/op")
    out["mbest.configs"] = (e["configs"] / ops, "count/op")
    out["mbest.extend_ms"] = (1e3 * stat["mbest.Enumerator.extend_to"][2] / ops, "ms/op")
    out["mbest.useful_frac"] = (e["useful"] / e["configs"] if e["configs"] else 0.0, "ratio")
    out["mbest.cap_hits"] = (e["cap_hits"] / ops, "count/op")
    for task in TASKS:
        out[f"harness.self_ms.{task}"] = (1e3 * tr.task_self_s[task] / ops, "ms/op")
    layer_self = defaultdict(float)
    for name, (_, _, own) in tr.stats.items():
        layer_self[name.split(".", 1)[0]] += own
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = (1e3 * layer_self[layer] / ops, "ms/op")
    return out
