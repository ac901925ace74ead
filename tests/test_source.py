"""Checks over the source text: the syntax the package supports, how it sums,
and that it leaves the cyclic collector's settings alone."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _sources(*dirs):
    return sorted(path for d in dirs for path in (ROOT / d).rglob("*.py"))


def test_every_file_parses_as_python_3_10():
    # the package supports Python 3.10 (pyproject.toml); syntax of a later
    # version, such as except*, fails there on import
    failed = []
    for path in _sources("src", "tests", "perfbench", "demos"):
        try:
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
        except SyntaxError as exc:
            failed.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert failed == []


def test_the_package_calls_no_builtin_sum():
    # from Python 3.12 on, the builtin sum compensates the rounding of a float
    # sum, so its bits differ between versions; the package adds in an order
    # it states (np.cumsum, math.fsum or a loop)
    calls = []
    for path in _sources("src/weakconformal"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "sum":
                calls.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert calls == []


def test_the_package_leaves_the_cyclic_collector_alone():
    # collector time is cut by allocating fewer tracked objects, never by
    # switching the collector off, freezing the heap, moving its thresholds
    # or collecting by hand: those settings belong to the process that
    # imports the package
    settings = {"disable", "freeze", "set_threshold", "collect"}
    calls = []
    for path in _sources("src/weakconformal"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            named = (
                isinstance(node, ast.Attribute) and node.attr in settings
                and getattr(node.value, "id", None) == "gc"
            ) or (
                isinstance(node, ast.ImportFrom) and node.module == "gc"
                and any(alias.name in settings for alias in node.names)
            )
            if named:
                calls.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert calls == []
