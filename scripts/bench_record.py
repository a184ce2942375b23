#!/usr/bin/env python3
"""Time source trees end to end and layer by layer, and write one JSON file.

    python scripts/bench_record.py BENCH.json parent=../parent-checkout change=.

Each NAME=PATH is the root of a source checkout. Every command runs in
every tree once per round, and one round counter serves the whole record:
even rounds take the trees in the order given, odd rounds in reverse. In
order, it times:

- the Tier-1 suite (``pytest -q -W error``, as CI runs it), ``REPEATS``
  rounds;
- ``verify-lemmas --max-edges 7 --trials 50`` (to a temporary file) and
  ``scripts/run_acceptance_sweep.py`` (it rewrites the tree's ``reports/``),
  ``REPEATS`` rounds each;
- ``bench/run.py --trace 0`` on each workload of ``BENCHMARK.json``, at
  ``BENCH_SEED`` and the length ``BENCHMARK.json`` gives, one round each
  (the benchmark scales its own times), keeping its end-to-end metrics;
- the ``LAYERS`` snippet, ``REPEATS`` rounds. On the 11-edge graph of the
  ``completeness`` workload (11 points) it times two cold median table
  builds through the oracle's cache, so with the tree's own table code: at
  k = 1, a table that serves every k, and at the graph's cover size
  k = 4, the ``completeness`` call (each with its DP layers up to k); DP
  layer 2 (``oracle._extend`` from the cached layer 1) and a pass of the
  median table's row selection (``oracle._row_selection``: the cap DP
  over the upper bounds and the tree's floors over the lower ones), on the
  bounds at each subset's centroid (``costs._dual_bounds``), so that the
  same inputs reach every tree; and one
  ``covers.cover_single_edge_clusters`` call in Case II (many planks) on
  seed 27 of the repeat-pick battery in ``tests/test_covers.py`` (19
  vertices, 28 edges, 15 single-edge clusters, k = 8, delta = 0.01;
  Procedure 2 picks twice, 3 and 4 once); and one ``oracle.opt_discrete``
  call on a planted instance like the ``catalogue`` workload's, through
  public names only (d = 3, 16 vertices, 12 hyperedges that each meet a
  6-set drawn by ``random.Random(0)``, k = 6: C(16, 6) = 8,008 center
  subsets, optimum 24); the connected catalogue up to 8 edges
  (``list(oracle.enumerate_triangle_free(8))``, 186 graphs);
  ``decomposition.certify_lower_bound`` on its 178 non-stars in safe mode
  and on the non-bridge ones among them in ultra-safe mode;
  ``graphs.maximum_matching`` on six distinct 23- and 24-edge graphs
  (``oracle.random_triangle_free(16, 3, seed)`` for the first seeds from 0
  that give 20-24 edges; six, so that a four-entry cache of answers would
  never hit) and ``oracle.min_vertex_cover`` on the same six;
  ``suites.suite_covers(8)`` once its catalogue records are built (the
  first, untimed call builds them); and ``covers.soundness_assemble`` on
  each connected catalogue graph up to 7 edges (76) at k = its cover
  number, once per objective: 152 calls on the ``opt_continuous``
  partitions at that k, padded as ``sweep`` pads them, all built before
  the timing. A layer figure is the median over that tree's processes.

Each command's ``wall_s`` entry holds its median, its runs, ``ok`` (every
run passed) and a last line: the first failed run's stderr, else the last
run's stdout. Its ``cpu_s`` entry holds the median and runs of the user
and system seconds of the command and the children it waited for
(``resource.getrusage(RUSAGE_CHILDREN)``, read before and after). A claim
on the Tier-1 suite uses the median of its ``cpu_s``, which leaves out
any time the command waited for a core, and only for a move beyond 1.15x,
what one tree has read against itself. The suite runs ``REPEATS`` rounds
because one is not enough: on the 2-core Xeon box CPU time slows with the
box as wall time does (``bench/speed.py``), and two one-round A/A records
read 28.8 against 25.1 and 33.7 against 32.7 CPU seconds (1.15x and
1.03x), as their wall times did. The layer medians (within 1.13x in A/A
records) are the figures for a claim on one layer.
A failed run is recorded and the record goes on; the file is
still written, and the script then exits 1. The script uses only the
standard library, and the trees run under its Python. Besides the output
file and a temporary directory, only what the commands write in their own
trees is written.
"""

from __future__ import annotations

import importlib.metadata
import itertools
import json
import os
import platform
import resource
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
from medcover import costs, covers, decomposition, graphs, oracle, suites
from medcover.reduction import HypergraphInstance, reduce_graph, reduce_hypergraph
from medcover.suites import completeness_instances

g = next(g for g in completeness_instances(8, 0) if g.num_edges == 11)
points = tuple(map(tuple, reduce_graph(g, k=1, objective="median").points))
n = len(points)
k = len(oracle.min_vertex_cover(g))  # 4, the completeness k

def table(k):
    oracle._tables_and_layers.cache_clear()
    oracle._tables_and_layers("median", points, k)

def sample(f, runs=15):
    f()  # caches and layouts fill first
    times = []
    for _ in range(runs):
        t = time.perf_counter()
        f()
        times.append(time.perf_counter() - t)
    return round(statistics.median(times) * 1e3, 3)

out = {"median_table_cold_11_points_ms": sample(lambda: table(1)),
       f"median_table_cold_k{k}_11_points_ms": sample(lambda: table(k))}
oracle._tables_and_layers.cache_clear()
cost_table, _, layers = oracle._tables_and_layers("median", points, 1)
out["dp_layer_2_11_points_ms"] = sample(lambda: oracle._extend(n, 2, layers[-1][0], cost_table))
pts = np.asarray(points, dtype=float)
by_size = costs._subsets_by_size(n)
upper, lower = np.zeros(1 << n), np.zeros(1 << n)
for rows, members in by_size:
    b = pts[members]
    upper[rows], lower[rows] = costs._dual_bounds(b, np.einsum("bpd->bd", b) / b.shape[1])
lower = np.maximum(0.0, lower - oracle._slack(upper))
out["row_selection_11_points_ms"] = sample(lambda: oracle._row_selection(n, upper, lower, by_size))

rng = random.Random(27)
h = oracle.random_triangle_free(rng.randint(14, 20), rng.randint(2, 3), seed=27)
vc_prime = [v for v in range(h.num_vertices) if rng.random() < 0.3]
singles = [i for i, (u, v) in enumerate(h.edges) if u not in vc_prime and v not in vc_prime]
out["single_edge_cover_28_edges_ms"] = sample(
    lambda: covers.cover_single_edge_clusters(h, singles, vc_prime, h.num_edges // 4 + 1, 0.01))

rng = random.Random(0)
planted = rng.sample(range(16), 6)
edges = set()
while len(edges) < 12:
    s = rng.choice(planted)
    edges.add(tuple(sorted([s, *rng.sample([u for u in range(16) if u != s], 2)])))
inst = reduce_hypergraph(HypergraphInstance(3, 16, tuple(sorted(edges)), 6))
out["opt_discrete_planted_16_centers_ms"] = sample(lambda: oracle.opt_discrete(inst))

out["enumerate_8_edges_ms"] = sample(lambda: list(oracle.enumerate_triangle_free(8)))
nonstars = [g for g in oracle.enumerate_triangle_free(8) if not graphs.is_star(g)]
plain = [g for g in nonstars if graphs.bridge_structure(g) is None]

def certify_all():
    for g in nonstars:
        decomposition.certify_lower_bound(g, "safe")
    for g in plain:
        decomposition.certify_lower_bound(g, "ultra_safe")

out["certify_lower_bound_8_edge_nonstars_ms"] = sample(certify_all)

big, seed = [], 0
while len(big) < 6:
    h = oracle.random_triangle_free(16, 3, seed=seed)
    seed += 1
    if 20 <= h.num_edges <= 24 and h not in big:
        big.append(h)
out["maximum_matching_24_edges_ms"] = sample(lambda: [graphs.maximum_matching(h) for h in big])
out["min_vertex_cover_24_edges_ms"] = sample(lambda: [oracle.min_vertex_cover(h) for h in big])
out["suite_covers_8_edges_ms"] = sample(lambda: suites.suite_covers(8))

def padded(blocks, want):
    # the padding `sweep` applies: peel the last edge off the largest block
    blocks = [sorted(b) for b in blocks]
    while len(blocks) < want:
        blocks.append([blocks[max(range(len(blocks)), key=lambda i: (len(blocks[i]), -i))].pop()])
    return blocks

trips = []
for g in oracle.enumerate_triangle_free(7):
    k = len(oracle.min_vertex_cover(g))
    for objective in ("median", "means"):
        partition = oracle.opt_continuous(reduce_graph(g, k=k, objective=objective)).partition
        trips.append((g, padded(partition, k), k, objective))
out["soundness_assemble_ms"] = sample(
    lambda: [covers.soundness_assemble(g, blocks, k=k, objective=o) for g, blocks, k, o in trips])
print(json.dumps(out))
"""


def _timed(argv: list[str], root: str) -> tuple[float, float, subprocess.CompletedProcess]:
    """Run ``argv`` in ``root`` with the tree's ``src/`` first on the path;
    return its wall seconds, its CPU seconds (``cpu_s``) and the process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(root, "src"), env.get("PYTHONPATH")]))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t = time.perf_counter()
    done = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime
    return wall, cpu, done


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
    trees = {name: os.path.abspath(path) for name, path in (a.split("=", 1) for a in argv[1:])}
    with open(os.path.join(next(iter(trees.values())), "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    py = sys.executable
    record = {name: {"commit": _commit(root), "wall_s": {}, "cpu_s": {}, "workloads": {}, "layers": {}}
              for name, root in trees.items()}
    rounds = itertools.count()

    def each(label: str, runs: int, argv: list[str], parse=None) -> dict:
        """Run ``argv`` in every tree for ``runs`` rounds, record
        ``wall_s[label]`` and ``cpu_s[label]`` and return each tree's parsed
        last stdout lines."""
        got = {name: [] for name in trees}
        for _ in range(runs):
            for name in list(trees)[::-1 if next(rounds) % 2 else 1]:
                elapsed, cpu, done = _timed(argv, trees[name])
                ok = done.returncode == 0
                last = ((done.stdout if ok else done.stderr).strip().splitlines() or [""])[-1]
                got[name].append((elapsed, cpu, ok, last, parse(last) if parse and ok else None))
        parsed = {}
        for name, runs_ in got.items():
            times, cpus, oks, lines, parsed[name] = zip(*runs_)
            record[name]["wall_s"][label] = {
                "median": round(statistics.median(times), 3),
                "runs": [round(t, 3) for t in times],
                "ok": all(oks),
                "last_line": next((ln for ok, ln in zip(oks, lines) if not ok), lines[-1]),
            }
            record[name]["cpu_s"][label] = {
                "median": round(statistics.median(cpus), 3),
                "runs": [round(t, 3) for t in cpus],
            }
            print(f"{name} {label}: {record[name]['wall_s'][label]} cpu {record[name]['cpu_s'][label]}",
                  file=sys.stderr)
        return parsed

    with tempfile.TemporaryDirectory() as tmp:
        lemmas = os.path.join(tmp, "lemmas.json")
        each("tier1_suite", REPEATS, [py, "-m", "pytest", "-q", "-W", "error", "-p", "no:cacheprovider"])
        each("verify_lemmas", REPEATS, [
            py, "-m", "medcover.cli", "verify-lemmas", "--max-edges", "7", "--trials", "50", "--out", lemmas])
        each("acceptance_sweep", REPEATS, [py, "scripts/run_acceptance_sweep.py"])

    for workload in (w["name"] for w in benchmark["workloads"]):
        for name, (result,) in each(f"bench_{workload}", 1, [
                py, "bench/run.py", "--workload", workload, "--seed", str(BENCH_SEED),
                "--seconds", str(benchmark["run_seconds"]), "--trace", "0"], json.loads).items():
            result = result or {"correct": None, "metrics": {}}  # the run failed
            record[name]["workloads"][workload] = {
                "seed": BENCH_SEED,
                "correct": result["correct"],
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            }

    for name, parsed in each("layers", REPEATS, [py, "-c", LAYERS], json.loads).items():
        samples = {}
        for figures in filter(None, parsed):
            for key, ms in figures.items():
                samples.setdefault(key, []).append(ms)
        record[name]["layers"] = {key: {"median": None if None in ms else round(statistics.median(ms), 3),
                                        "runs": ms} for key, ms in samples.items()}

    report = {
        "machine": {"python": platform.python_version(), "numpy": importlib.metadata.version("numpy"),
                    "nproc": os.cpu_count(), "cpu": _cpu()},
        "units": {"wall_s": "s", "cpu_s": "s", "layers": "ms", "workloads": "BENCHMARK.json units"},
        "trees": record,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return int(any(not w["ok"] for tree in record.values() for w in tree["wall_s"].values()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
