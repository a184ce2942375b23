"""Checks on the source tree itself: the names the benchmark reaches into,
and the rule that proof obligations raise typed errors instead of asserting."""

import ast
import dataclasses
import importlib
import importlib.util
from pathlib import Path

import medcover
from medcover.costs import MedianSolution

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(medcover.__file__).resolve().parent


def _load_tracer():
    """``bench/tracer.py`` by path; it imports only the standard library."""
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_exists():
    missing = [
        f"medcover.{home}.{name}"
        for home, name, _span in _load_tracer().LAYERS
        if not callable(getattr(importlib.import_module(f"medcover.{home}"), name, None))
    ]
    assert not missing


def test_the_other_names_the_benchmark_reads_exist():
    assert callable(getattr(importlib.import_module("medcover.cli"), "_pad_blocks", None))
    fields = {f.name for f in dataclasses.fields(MedianSolution)}
    assert {"iterations", "converged"} <= fields


def test_every_exported_name_resolves():
    assert [name for name in medcover.__all__ if not hasattr(medcover, name)] == []


def test_no_assert_statements_in_the_package():
    # ``python -O`` strips asserts, so a check written as one would vanish
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
