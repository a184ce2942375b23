"""Checks on the source tree itself: the names the benchmark and the bench
recording script reach into, that script's measurement loop, the rule that
proof obligations raise typed errors instead of asserting, the absence of
rebound module state, the process caches, the one check ledger of the
suites, the limits the README states, the package's Python floor and its
one runtime dependency, and the demo script running end to end."""

import ast
import dataclasses
import importlib
import importlib.metadata
import importlib.util
import json
import math
import os
import re
import statistics
import subprocess
import sys
import tomllib
from fractions import Fraction
from pathlib import Path

import medcover
from medcover.costs import MAX_CONTINUOUS_POINTS, MedianSolution
from medcover.oracle import MAX_DISCRETE_SUBSETS, MAX_ENUM_EDGES, MAX_VC_EDGES, _layout

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(medcover.__file__).resolve().parent


def _load(path: str):
    """A module of the tree that is not in the package, by path; the ones
    loaded here import only the standard library."""
    spec = importlib.util.spec_from_file_location(Path(path).stem, ROOT / path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_exists():
    missing = [
        f"medcover.{home}.{name}"
        for home, name, _span in _load("bench/tracer.py").LAYERS
        if not callable(getattr(importlib.import_module(f"medcover.{home}"), name, None))
    ]
    assert not missing


def _medcover_names(tree: ast.AST) -> set[tuple[str, str]]:
    """Every medcover name a module's source reaches: each ``from medcover.x
    import name``, and each ``x.name`` on a medcover module it imports."""
    modules = {}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "medcover":
            for alias in node.names:
                if node.module == "medcover":
                    modules[alias.asname or alias.name] = f"medcover.{alias.name}"
                else:
                    names.add((node.module, alias.name))
    return names | {
        (modules[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }


def _missing(names: set[tuple[str, str]]) -> list[str]:
    return [f"{home}.{name}" for home, name in sorted(names)
            if not hasattr(importlib.import_module(home), name)]


def test_the_other_names_the_benchmark_reads_exist():
    names = _medcover_names(ast.parse((ROOT / "bench" / "workloads.py").read_text(encoding="utf-8")))
    assert {("medcover.cli", "_pad_blocks"), ("medcover.graphs", "make_graph"),
            ("medcover.reduction", "HypergraphInstance")} <= names
    assert _missing(names) == []
    fields = {f.name for f in dataclasses.fields(MedianSolution)}
    assert {"iterations", "converged"} <= fields


def test_the_names_the_bench_record_layers_read_exist():
    # scripts/bench_record.py runs its LAYERS snippet inside each tree it times
    script = ast.parse((ROOT / "scripts" / "bench_record.py").read_text(encoding="utf-8"))
    snippet = next(
        node.value.value for node in script.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]
    )
    names = _medcover_names(ast.parse(snippet))
    assert {("medcover.oracle", "_extend"), ("medcover.oracle", "_tables_and_layers"),
            ("medcover.oracle", "_row_selection"), ("medcover.costs", "_dual_bounds"),
            ("medcover.covers", "cover_single_edge_clusters"), ("medcover.oracle", "opt_discrete"),
            ("medcover.reduction", "reduce_hypergraph"), ("medcover.oracle", "enumerate_triangle_free"),
            ("medcover.decomposition", "certify_lower_bound"), ("medcover.graphs", "maximum_matching"),
            ("medcover.suites", "suite_covers"), ("medcover.oracle", "min_vertex_cover"),
            ("medcover.covers", "soundness_assemble"), ("medcover.oracle", "opt_continuous")} <= names
    assert _missing(names) == []


def test_the_bench_record_layers_snippet_runs_and_times_every_layer():
    # the snippet runs inside every tree a record compares; run it once here
    # so a changed name or signature shows before the next record is written
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _load("scripts/bench_record.py").LAYERS],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    figures = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(figures) == [
        "certify_lower_bound_8_edge_nonstars_ms", "dp_layer_2_11_points_ms",
        "enumerate_8_edges_ms", "maximum_matching_24_edges_ms", "median_table_cold_11_points_ms",
        "median_table_cold_k4_11_points_ms", "min_vertex_cover_24_edges_ms",
        "opt_discrete_planted_16_centers_ms", "row_selection_11_points_ms",
        "single_edge_cover_28_edges_ms", "soundness_assemble_ms", "suite_covers_8_edges_ms",
    ]
    for key, ms in figures.items():
        assert type(ms) in (int, float) and ms > 0, (key, ms)


def test_bench_record_alternates_rounds_and_records_failures(tmp_path, monkeypatch):
    # every command goes through bench_record._timed; a fake answers each one
    # with canned output, so no subprocess starts
    bench_record = _load("scripts/bench_record.py")
    monkeypatch.setattr(bench_record, "_commit", lambda root: {})
    for name in "ab":
        (tmp_path / name).mkdir()
    (tmp_path / "a" / "BENCHMARK.json").write_text(
        json.dumps({"run_seconds": 1, "workloads": [{"name": "w"}]}), encoding="utf-8")
    calls, layer_ms = [], {"a": [], "b": []}
    failing = {("b", "bench"), ("b", "layers", 1)}

    def fake_timed(argv, root):
        tree = Path(root).name
        kind = ("tier1" if "pytest" in argv else "lemmas" if "verify-lemmas" in argv
                else "sweep" if argv[1].endswith("run_acceptance_sweep.py")
                else "bench" if argv[1] == "bench/run.py" else "layers")
        nth = sum(1 for call in calls if call == (kind, tree))
        calls.append((kind, tree))
        if {(tree, kind), (tree, kind, nth)} & failing:
            failed = subprocess.CompletedProcess(argv, 1, "partial\n", f"Traceback\n{kind} failed\n")
            return len(calls) / 8, len(calls) / 16, failed
        last = "done"
        if kind == "bench":
            last = json.dumps({"correct": True, "metrics": {"wall_s": {"value": 0.5}}})
        elif kind == "layers":
            layer_ms[tree].append(len(calls) * 1.5)
            last = json.dumps({"table_ms": len(calls) * 1.5, "missing_ms": None})
        done = subprocess.CompletedProcess(argv, 0, f"progress\n{last}\n", "")
        return len(calls) / 8, len(calls) / 16, done

    monkeypatch.setattr(bench_record, "_timed", fake_timed)
    out_path = tmp_path / "bench.json"
    argv = [str(out_path), f"a={tmp_path / 'a'}", f"b={tmp_path / 'b'}"]
    assert bench_record.main(argv) == 1

    repeats = bench_record.REPEATS
    kinds = ["tier1"] * repeats + ["lemmas"] * repeats + ["sweep"] * repeats + ["bench"] + ["layers"] * repeats
    assert calls == [(kind, tree) for r, kind in enumerate(kinds) for tree in ("ab" if r % 2 == 0 else "ba")]
    trees = json.loads(out_path.read_text(encoding="utf-8"))["trees"]
    a, b = trees["a"], trees["b"]

    def outcome(tree, label):
        return tree["wall_s"][label]["ok"], tree["wall_s"][label]["last_line"]

    # each command's CPU seconds sit next to its wall seconds, run for run
    for tree in (a, b):
        assert tree["cpu_s"].keys() == tree["wall_s"].keys()
        for label, wall in tree["wall_s"].items():
            assert tree["cpu_s"][label]["runs"] == [round(t / 2, 3) for t in wall["runs"]], label
    assert outcome(b, "bench_w") == (False, "bench failed")
    assert outcome(b, "layers") == (False, "layers failed")
    assert outcome(a, "tier1_suite") == outcome(b, "acceptance_sweep") == (True, "done")
    assert b["workloads"]["w"] == {"seed": 0, "correct": None, "metrics": {}}
    assert a["workloads"]["w"] == {"seed": 0, "correct": True, "metrics": {"wall_s": 0.5}}
    assert len(layer_ms["a"]) == repeats and len(layer_ms["b"]) == repeats - 1
    for tree, ms in layer_ms.items():
        assert trees[tree]["layers"] == {
            "table_ms": {"median": round(statistics.median(ms), 3), "runs": ms},
            "missing_ms": {"median": None, "runs": [None] * len(ms)},
        }

    failing.clear()
    assert bench_record.main(argv) == 0


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


def test_no_global_statements_or_threading_in_the_package():
    # process caches are functools.lru_cache over read-only values, and
    # the oracle's one entry is a tuple of read-only values that a call
    # reads once and replaces whole in one assignment, never in place: no
    # rebound module global, and so no lock to guard it
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Global)
        or isinstance(node, ast.Import) and any(a.name.split(".")[0] == "threading" for a in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "threading"
    ]
    assert found == []


def test_the_process_caches_are_the_ones_the_readme_names():
    # every functools.lru_cache in the package, and every value a module
    # keeps on a function's attribute (other than the cache_clear that
    # empties it), so a new one is added on purpose
    def is_lru_cache(node):
        node = node.func if isinstance(node, ast.Call) else node
        return getattr(node, "attr", getattr(node, "id", None)) == "lru_cache"

    caches, entries = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        caches |= {
            f"{path.stem}.{node.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and any(map(is_lru_cache, node.decorator_list))
        }
        entries |= {
            f"{path.stem}.{target.value.id}.{target.attr}"
            for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
            and target.attr != "cache_clear"
        }
    readme = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    sentence = re.search(
        r"keeps three process caches, each a `functools.lru_cache`(.*?)\. It keeps one more entry,(.*?)\.(?:\s|$)",
        readme,
    )
    assert sentence, "README names no process caches"
    named = re.findall(r"`(\w+\.\w+)`", sentence.group(1))
    assert len(named) == 3 and set(named) == caches, (named, caches)
    named = re.findall(r"`(\w+\.\w+\.\w+)`", sentence.group(2))
    assert len(named) == 1 and set(named) == entries, (named, entries)


def test_suites_count_and_record_checks_only_through_the_ledger():
    # a suite that kept its own counter or failure list could drift from
    # the ledger's count, or format failure text eagerly
    tree = ast.parse((PACKAGE / "suites.py").read_text(encoding="utf-8"))
    ledger = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "_Ledger")
    inside = {id(node) for node in ast.walk(ledger)}

    def name(node):
        return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)

    found = [
        node.lineno
        for node in ast.walk(tree)
        if id(node) not in inside
        and (
            (isinstance(node, ast.AugAssign) and name(node.target) == "checks")
            or (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "append"
                and name(node.func.value) == "failures"
            )
        )
    ]
    assert found == []


def test_readme_scale_limits_match_the_constants():
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Scale limits", 1)[1]
    opening = " ".join(section.split(".", 1)[0].split())  # the first sentence, on one line
    stated = [
        (int(base) ** int(power or 1), unit)
        for base, power, unit in re.findall(r"up to (\d+)(?:\^(\d+))? (points|center subsets|edges)", opening)
    ]
    assert stated == [
        (MAX_CONTINUOUS_POINTS, "points"),
        (MAX_DISCRETE_SUBSETS, "center subsets"),
        (MAX_VC_EDGES, "edges"),
        (MAX_ENUM_EDGES, "edges"),
    ], opening


def test_readme_ledger_names_each_charge_at_its_value():
    # each row names a constant as module.NAME and gives its value; √2 + 1
    # is the one value not written as a decimal or a fraction
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Soundness ledger", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)\.(\w+)` \| ([^|]+?) \|", section, re.MULTILINE)
    named = {}
    for module, name, text in rows:
        value = getattr(importlib.import_module(f"medcover.{module}"), name)
        want = Fraction(text) if text != "√2 + 1" else math.sqrt(2.0) + 1.0
        assert value == (want if isinstance(value, Fraction) else float(want)), (name, text)
        named[name] = value
    # every constant and slope of the charge table but 0 and 1 has a row
    from medcover.covers import CHARGES
    assert {c for row in CHARGES.values() for c in row} - {0, 1} <= set(named.values()), named


def test_readme_states_the_size_of_the_dp_memo():
    # the memo holds one layout per n; the README rounds their total
    total = sum(a.nbytes for n in range(1, MAX_CONTINUOUS_POINTS + 1) for a in _layout(n))
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Scale limits", 1)[1]
    stated = re.findall(r"([\d.]+) MB for every n\s+up to 12", section)
    assert stated == [f"{total / 1e6:.1f}"], total


def _least_python(specifier: str) -> tuple[int, ...]:
    """The version the ">=" clause of a Requires-Python names, as a tuple."""
    found = re.search(r">=\s*(\d+(?:\.\d+)*)", specifier)
    assert found, specifier
    return tuple(map(int, found[1].split(".")))


def test_numpy_is_the_only_runtime_dependency():
    # the package imports the standard library, numpy and itself, and
    # declares numpy alone
    outside = sorted(
        f"{path.name}: {module}"
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        for module in (
            [alias.name for alias in node.names] if isinstance(node, ast.Import)
            else [node.module] if isinstance(node, ast.ImportFrom) and node.level == 0
            else []
        )
        if module.split(".")[0] not in sys.stdlib_module_names | {"numpy", "medcover"}
    )
    assert outside == []
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert [re.match(r"[\w.-]+", dep)[0] for dep in project["dependencies"]] == ["numpy"]


def test_the_python_floor_is_not_below_the_installed_numpys():
    # the test extra pins the numpy the bit-for-bit pins were made with; a
    # floor below the Python that numpy requires promises installs that fail
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    numpy_floor = importlib.metadata.metadata("numpy")["Requires-Python"]
    assert _least_python(project["requires-python"]) >= _least_python(numpy_floor), numpy_floor


def test_bench_records_name_every_end_to_end_metric_of_every_workload():
    # scripts/bench_record.py writes them; each tree it timed must carry the
    # benchmark's end-to-end metrics for each workload
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"] for m in benchmark["end_to_end"]}
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        trees = json.loads(path.read_text(encoding="utf-8"))["trees"]
        assert len(trees) >= 2, path.name  # a before and an after
        for name, tree in trees.items():
            for workload in benchmark["workloads"]:
                got = tree["workloads"][workload["name"]]["metrics"]
                assert metrics <= set(got), (path.name, name, workload["name"])


def test_demo_pipeline_runs_and_ends_with_its_json_report():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "demo_pipeline.py")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.split("full report as JSON:", 1)[1])
    assert report["cover"] and report["k"] >= 1
