#!/usr/bin/env python3
"""Time source trees end to end and layer by layer, and write one JSON file.

    python scripts/bench_record.py BENCH.json parent=../parent-checkout change=.

Each NAME=PATH is the root of a source checkout. For each tree, in turn and
interleaved with the others, this times:

- the Tier-1 suite (``python -m pytest -q -W error``, as CI runs it);
- ``verify-lemmas --max-edges 7 --trials 50``, writing to a temporary file;
- ``scripts/run_acceptance_sweep.py`` (it rewrites the tree's ``reports/``);
- ``bench/run.py --trace 0`` on each workload of ``BENCHMARK.json``, at the
  seed and length ``BENCHMARK.json`` gives, keeping its end-to-end metrics;
- three layers, on the 11-edge graph of the ``completeness`` workload (11
  points): a cold median table build (through the oracle's own cache, so
  the builder the tree's ``opt_continuous`` uses); one DP layer, layer 2 of
  that table, built by ``oracle._extend`` from the cached layer 1; and,
  where the tree has one, a pass of the median table's row selection: the
  cap DP and the lower-bound DP over every mask;
- one ``covers.cover_single_edge_clusters`` call in Case II (many planks),
  on seed 27 of the pinned repeat-pick battery in ``tests/test_covers.py``:
  19 vertices, 28 edges and 15 single-edge clusters, at k = 8 and
  delta = 0.01, where Procedure 2 picks twice and Procedures 3 and 4 once.

The script itself uses only the standard library; the trees run under the
same Python. Wall times are the median of ``REPEATS`` runs for the short
commands and of the layer samples; the suite and the benchmark run once
each. A command that fails is still timed, and recorded with ``ok`` false
and its last line of output. Besides the output file and a temporary
directory, only what those commands write in their own trees is written.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

REPEATS = 3
BENCH_SEED = 0

# Runs inside a tree, with its src/ first on the path; prints one JSON line.
LAYERS = r"""
import json, random, statistics, time
import numpy as np
from medcover import costs, covers, oracle
from medcover.reduction import reduce_graph
from medcover.suites import completeness_instances

g = next(g for g in completeness_instances(8, 0) if g.num_edges == 11)
points = tuple(map(tuple, reduce_graph(g, k=1, objective="median").points))
n = len(points)

def table():
    oracle._tables_and_layers.cache_clear()
    oracle._tables_and_layers("median", points, 0)

def sample(f, runs=15):
    f()  # caches and layouts fill first
    times = []
    for _ in range(runs):
        t = time.perf_counter()
        f()
        times.append(time.perf_counter() - t)
    return round(statistics.median(times) * 1e3, 3)

out = {"median_table_cold_11_points_ms": sample(table), "all_mask_dp_11_points_ms": None}
oracle._tables_and_layers.cache_clear()
cost_table, _, layers = oracle._tables_and_layers("median", points, 1)
out["dp_layer_2_11_points_ms"] = sample(lambda: oracle._extend(n, 2, layers[-1][0], cost_table))
if hasattr(oracle, "_needed_rows"):
    pts = np.asarray(points, dtype=float)
    by_size = costs._subsets_by_size(n)
    upper, lower = np.zeros(1 << n), np.zeros(1 << n)
    for rows, members in by_size:
        _, upper[rows], lower[rows] = costs._centroid_bounds(pts[members])
    lower = np.maximum(0.0, lower - oracle._slack(upper))
    out["all_mask_dp_11_points_ms"] = sample(lambda: oracle._needed_rows(n, upper, lower, by_size))

rng = random.Random(27)
h = oracle.random_triangle_free(rng.randint(14, 20), rng.randint(2, 3), seed=27)
vc_prime = [v for v in range(h.num_vertices) if rng.random() < 0.3]
singles = [i for i, (u, v) in enumerate(h.edges) if u not in vc_prime and v not in vc_prime]
out["single_edge_cover_28_edges_ms"] = sample(
    lambda: covers.cover_single_edge_clusters(h, singles, vc_prime, h.num_edges // 4 + 1, 0.01))
print(json.dumps(out))
"""


def _env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _timed(argv: list[str], root: str, check: bool = True) -> tuple[float, subprocess.CompletedProcess]:
    t = time.perf_counter()
    done = subprocess.run(argv, cwd=root, env=_env(root), capture_output=True, text=True)
    elapsed = time.perf_counter() - t
    if check and done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} failed in {root}:\n{done.stdout[-2000:]}{done.stderr[-2000:]}")
    return elapsed, done


def _commit(root: str) -> dict:
    """The tree's HEAD, and whether its tracked files differ from it."""
    head = subprocess.run(["git", "-C", root, "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True)
    if head.returncode != 0:
        return {"head": None, "uncommitted_changes": None}
    status = subprocess.run(["git", "-C", root, "status", "--porcelain", "--untracked-files=no"],
                            capture_output=True, text=True)
    return {"head": head.stdout.strip(), "uncommitted_changes": bool(status.stdout.strip())}


def _cpu() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            return next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        return ""


def main(argv: list[str]) -> int:
    if len(argv) < 2 or not all("=" in a for a in argv[1:]):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    out_path = argv[0]
    trees = dict(a.split("=", 1) for a in argv[1:])
    trees = {name: os.path.abspath(path) for name, path in trees.items()}
    with open(os.path.join(next(iter(trees.values())), "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    seconds = str(benchmark["run_seconds"])
    py = sys.executable
    record = {name: {"commit": _commit(root), "wall_s": {}, "workloads": {}, "layers": {}}
              for name, root in trees.items()}

    def each(label: str, runs: int, argv_for) -> None:
        # a failing command is timed and recorded as failed, not dropped
        samples = {name: [] for name in trees}
        passed = {name: True for name in trees}
        last = {}
        for _ in range(runs):
            for name, root in trees.items():
                elapsed, done = _timed(argv_for(root), root, check=False)
                samples[name].append(elapsed)
                passed[name] &= done.returncode == 0
                last[name] = (done.stdout.strip().splitlines() or [""])[-1]
        for name in trees:
            record[name]["wall_s"][label] = {
                "median": round(statistics.median(samples[name]), 3),
                "runs": [round(s, 3) for s in samples[name]],
                "ok": passed[name],
                "last_line": last[name],
            }
            print(f"{name} {label}: {record[name]['wall_s'][label]}", file=sys.stderr)

    with tempfile.TemporaryDirectory() as tmp:
        lemmas = os.path.join(tmp, "lemmas.json")
        each("tier1_suite", 1, lambda root: [py, "-m", "pytest", "-q", "-W", "error", "-p", "no:cacheprovider"])
        each("verify_lemmas", REPEATS, lambda root: [
            py, "-m", "medcover.cli", "verify-lemmas", "--max-edges", "7", "--trials", "50", "--out", lemmas])
        each("acceptance_sweep", REPEATS, lambda root: [py, os.path.join(root, "scripts", "run_acceptance_sweep.py")])

    for workload in (w["name"] for w in benchmark["workloads"]):
        for name, root in trees.items():
            _, done = _timed([py, "bench/run.py", "--workload", workload, "--seed", str(BENCH_SEED),
                              "--seconds", seconds, "--trace", "0"], root)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            record[name]["workloads"][workload] = {
                "seed": BENCH_SEED,
                "correct": result["correct"],
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            }
            print(f"{name} {workload}: {record[name]['workloads'][workload]['metrics']}", file=sys.stderr)

    for name, root in trees.items():
        _, done = _timed([py, "-c", LAYERS], root)
        record[name]["layers"] = json.loads(done.stdout.strip().splitlines()[-1])

    versions = subprocess.run([py, "-c", "import numpy; print(numpy.__version__)"],
                              capture_output=True, text=True).stdout.strip()
    report = {
        "machine": {
            "python": platform.python_version(),
            "numpy": versions,
            "nproc": os.cpu_count(),
            "cpu": _cpu(),
        },
        "units": {"wall_s": "s", "layers": "ms", "workloads": "BENCHMARK.json units"},
        "trees": record,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
