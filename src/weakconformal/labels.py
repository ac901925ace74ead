"""Weak-label containers and dataset records.

A weak label is a set of candidate ground truths known to contain the true
label: an explicit set of class ids, a numeric interval, the top segment of a
ranking, or a partial assignment. Everything downstream (calibration,
evaluation, set construction) talks to these four types.

Label ids, ranking items and matching nodes are 0-based everywhere,
including the JSON-lines serialization.
"""
from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Union

import numpy as np

__all__ = [
    "ExplicitSet",
    "Interval",
    "RankingPrefix",
    "PartialMatching",
    "WeakLabel",
    "WeakRecord",
    "weak_contains",
    "weak_to_payload",
    "weak_from_payload",
    "write_jsonl",
    "read_jsonl",
    "FormatError",
]


class FormatError(ValueError):
    """Malformed serialized record; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _as_int(value: Any, what: str = "a value") -> int:
    """value as an int, or ValueError naming what it is: 3.7, "3" and the
    booleans are not integers, so none is truncated or read as 0 or 1."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, not {value!r}")


def _as_int_array(values: Any, what: str = "an entry") -> np.ndarray:
    """values as an integer array, or ValueError naming what by _as_int's rule
    for the first entry that is not an integer (2.9, 2.0 and True are not)."""
    a = np.asarray(values)
    if a.dtype.kind not in "iu":
        for v in a.ravel().tolist():
            _as_int(v, what)
        a = a.astype(np.intp)
    return a


def _finite_floats(values: list[str], line: int) -> list[float]:
    """The values of one line of a plain-text file as floats; FormatError at
    that line when one is not a finite number."""
    try:
        floats = [float(v) for v in values]
        if all(map(math.isfinite, floats)):
            return floats
    except ValueError:  # not a number at all
        pass
    raise FormatError(f"every value must be a finite number, not {values}", line)


def _as_real(value: Any, what: str = "a value") -> float:
    """value as a float, or ValueError naming what it is: a real number is an
    int or a float, so "0.5" and the booleans are not read as numbers."""
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an int past the largest float
            raise ValueError(f"{what} is too large for a float") from None
    raise ValueError(f"{what} must be a real number, not {value!r}")


def _strict_json(obj: Any, indent: int | None = None) -> str:
    """obj as strict JSON text: a float that is not finite is written as the
    results CSV spells it, "inf", "-inf" or "nan", not as a bare Infinity or
    NaN token, which strict parsers reject."""

    def spelled(v):
        if isinstance(v, dict):
            return {key: spelled(x) for key, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [spelled(x) for x in v]
        if isinstance(v, float) and not math.isfinite(v):
            return repr(float(v))
        return v

    return json.dumps(spelled(obj), indent=indent, allow_nan=False)


@dataclass(frozen=True)
class ExplicitSet:
    """Nonempty set of candidate class ids, stored sorted."""

    labels: tuple[int, ...]

    def __post_init__(self):
        labs = tuple(_as_int(v, "a label") for v in self.labels)
        if len(labs) == 0:
            raise ValueError("weak label set must be nonempty")
        if any(v < 0 for v in labs):
            raise ValueError("labels must be nonnegative ids")
        if len(set(labs)) != len(labs):
            raise ValueError("labels must be distinct")
        object.__setattr__(self, "labels", tuple(sorted(labs)))

    def validate_k(self, k: int) -> None:
        if self.labels[-1] >= k:
            raise ValueError(f"label {self.labels[-1]} out of range for k={k}")


@dataclass(frozen=True)
class Interval:
    """Closed numeric interval [lo, hi] of candidate responses."""

    lo: float
    hi: float

    def __post_init__(self):
        lo, hi = _as_real(self.lo, "lo"), _as_real(self.hi, "hi")
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("interval endpoints must be finite")
        if lo > hi:
            raise ValueError(f"empty interval: lo={lo} > hi={hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def length(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class RankingPrefix:
    """The observed top of a ranking over k items.

    ``items[j]`` is the item ranked at position j; the weak label is the set
    of full rankings that start with exactly this segment.
    """

    items: tuple[int, ...]
    k: int

    def __post_init__(self):
        items = tuple(_as_int(v, "a prefix item") for v in self.items)
        k = _as_int(self.k, "k")
        if len(items) > k:
            raise ValueError("prefix longer than the item count")
        if len(set(items)) != len(items):
            raise ValueError("prefix items must be distinct")
        if any(not 0 <= v < k for v in items):
            raise ValueError("prefix items must be in [0, k)")
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "k", k)


@dataclass(frozen=True)
class PartialMatching:
    """Observed pairs (u, v) of a perfect matching on k+k nodes."""

    pairs: tuple[tuple[int, int], ...]
    k: int

    def __post_init__(self):
        pairs = tuple((_as_int(u, "a pair id"), _as_int(v, "a pair id")) for u, v in self.pairs)
        k = _as_int(self.k, "k")
        if len(pairs) > k:
            raise ValueError("more pairs than nodes")
        us = [u for u, _ in pairs]
        vs = [v for _, v in pairs]
        if len(set(us)) != len(us) or len(set(vs)) != len(vs):
            raise ValueError("pairs must be injective on both sides")
        if any(not (0 <= u < k and 0 <= v < k) for u, v in pairs):
            raise ValueError("pair ids must be in [0, k)")
        object.__setattr__(self, "pairs", tuple(sorted(pairs)))
        object.__setattr__(self, "k", k)


WeakLabel = Union[ExplicitSet, Interval, RankingPrefix, PartialMatching]


def _as_permutation(y: Any, k: int) -> tuple[int, ...]:
    """y as a tuple of ints; ValueError unless it is a permutation of [0, k)."""
    y = tuple(_as_int(v, "an item") for v in y)
    if len(y) != k or set(y) != set(range(k)):
        raise ValueError(f"{y!r} is not a permutation of [0, {k})")
    return y


def weak_contains(weak: WeakLabel, y: Any) -> bool:
    """Whether candidate ``y`` is a member of the weak label set."""
    if isinstance(weak, ExplicitSet):
        return _as_int(y, "a label") in weak.labels
    if isinstance(weak, Interval):
        return weak.lo <= _as_real(y, "y") <= weak.hi
    if isinstance(weak, RankingPrefix):
        return _as_permutation(y, weak.k)[: len(weak.items)] == weak.items
    if isinstance(weak, PartialMatching):
        y = _as_permutation(y, weak.k)
        return all(y[u] == v for u, v in weak.pairs)
    raise TypeError(f"not a weak label: {type(weak).__name__}")


@dataclass(frozen=True)
class WeakRecord:
    """One observation: features, weak label, and (optionally) the truth."""

    x: np.ndarray
    weak: WeakLabel
    y: Any = None

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        if x.ndim != 1:
            raise ValueError("x must be a flat feature vector")
        if not np.isfinite(x).all():  # so the JSON-lines writer needs no NaN token
            raise ValueError("x must hold finite features only")
        object.__setattr__(self, "x", x)
        if self.y is not None and not weak_contains(self.weak, self.y):
            raise ValueError("inconsistent record: y is not in its weak label")


# --- JSON-lines serialization -------------------------------------------
#
# One record per line: {"x": [...], "weak": {...}, "y": ...}
# with weak payloads
#   {"kind": "set",      "labels": [ids], "k": K}      (k optional; checked when given)
#   {"kind": "interval", "lo": f, "hi": f}
#   {"kind": "prefix",   "items": [ids], "k": K}
#   {"kind": "matching", "pairs": [[u, v], ...], "k": K}


def weak_to_payload(weak: WeakLabel) -> dict[str, Any]:
    if isinstance(weak, ExplicitSet):
        return {"kind": "set", "labels": list(weak.labels)}
    if isinstance(weak, Interval):
        return {"kind": "interval", "lo": weak.lo, "hi": weak.hi}
    if isinstance(weak, RankingPrefix):
        return {"kind": "prefix", "items": list(weak.items), "k": weak.k}
    if isinstance(weak, PartialMatching):
        return {"kind": "matching", "pairs": [list(p) for p in weak.pairs], "k": weak.k}
    raise TypeError(f"not a weak label: {type(weak).__name__}")


def weak_from_payload(payload: dict[str, Any]) -> WeakLabel:
    try:
        kind = payload["kind"]
        if kind == "set":
            weak = ExplicitSet(tuple(payload["labels"]))
            if "k" in payload:
                weak.validate_k(_as_int(payload["k"], "k"))
            return weak
        if kind == "interval":
            return Interval(payload["lo"], payload["hi"])
        if kind == "prefix":
            return RankingPrefix(tuple(payload["items"]), payload["k"])
        if kind == "matching":
            return PartialMatching(tuple(map(tuple, payload["pairs"])), payload["k"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed weak payload: {exc}") from exc
    raise ValueError(f"unknown weak label kind {kind!r}")


def _y_to_json(y: Any) -> Any:
    if y is None:
        return None
    if isinstance(y, (tuple, list, np.ndarray)):
        return [int(v) for v in y]
    if isinstance(y, (int, np.integer)):
        return int(y)
    return float(y)


def write_jsonl(path: str, records: Iterable[WeakRecord]) -> int:
    """Write records as JSON lines; returns the number written."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            obj = {
                "x": [float(v) for v in rec.x],
                "weak": weak_to_payload(rec.weak),
                "y": _y_to_json(rec.y),
            }
            fh.write(json.dumps(obj) + "\n")
            n += 1
    return n


def read_jsonl(path: str) -> Iterator[WeakRecord]:
    """Yield records from a JSON-lines file, validating each line.

    Raises FormatError with the offending 1-based line number on malformed
    JSON, unknown payloads, or a record whose y falls outside its weak label.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FormatError(f"invalid JSON ({exc.msg})", lineno) from exc
            try:
                weak = weak_from_payload(obj["weak"])
                y = obj.get("y")
                if y is not None and isinstance(y, list):
                    y = tuple(y)
                x = obj["x"]
                if not isinstance(x, list):
                    raise ValueError("x must be a flat feature vector")
                yield WeakRecord(np.array([_as_real(v, "a feature") for v in x]), weak, y)
            except (KeyError, ValueError, TypeError) as exc:
                raise FormatError(str(exc), lineno) from exc
