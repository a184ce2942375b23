"""medcover benchmark: one command per workload run.

    python3 bench/run.py --workload completeness --seed 0 --seconds 15 --trace 0

Run from the root of a source checkout. The command runs the workload's
fixed input set in several passes, spread over three fresh Python processes.
Each process imports medcover from ``src/``, makes its inputs from the seed
and sets up (imports, inputs and one untimed warm-up); each pass times its
items and checks every output. ``--seconds`` sets the number of passes.
Times are scaled to a reference speed by a probe loop sampled during the
work (see speed.py). The last line of standard output is one JSON object:

- ``--trace 0``: the end-to-end metrics (setup_s, wall_s, item_p50_ms,
  item_tail_ms, peak_rss_mb);
- ``--trace 1``: the per-layer metrics, from two traced passes alternated
  with two untraced ones, and the count-repeat check between the two traced
  processes.

Details (tail percentile and sample count, every failure, the environment)
are printed above that line and written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

T0 = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

# Length of one pass in reference seconds (speed.py). A run makes
# round(seconds / this) passes, so its work depends only on --seconds, never
# on how fast the code is. On the 2-core Xeon box a pass takes 1.3 to 2
# times as long in wall time.
NOMINAL_PASS_S = {"completeness": 2.5, "ladder": 5.0, "catalogue": 5.0}
# The passes are spread over this many fresh processes; setup_s is their median.
PROCESSES = 3
HELD_OUT_SEED = 7919
# A run must end within 180 s; a pass still running past this is stopped.
DEADLINE_S = 170.0


def _environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    commit = "unknown"
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
                head = fh.read().strip()
        commit = head
    except OSError:
        pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "medcover")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


# ---------------------------------------------------------------------------
# Child: one pass in a fresh process
# ---------------------------------------------------------------------------

def run_process(workload: str, seed: int, passes: int, role: str,
                spans_path: str | None) -> dict:
    """Set up, then time ``passes`` passes over the input set. A "timed"
    process runs the speed sampler and reports each window's busy time and
    speed factor; "untraced" and "traced" processes (the per-layer run) run
    without it, so probes never land inside a span."""
    sys.path.insert(0, SRC)
    import resource

    import numpy

    import speed

    sampler = speed.Sampler() if role == "timed" else None
    if sampler:
        sampler.start()

    import medcover
    from medcover.errors import MedcoverError

    if not os.path.abspath(medcover.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"medcover imported from {medcover.__file__}, not from {SRC}")
    import tracer as tracing
    import workloads as wl

    make_inputs, warm = wl.WORKLOADS[workload]
    null = tracing.NullTracer()
    setup_chk = wl.Checks()
    inputs = make_inputs(seed)
    try:
        warm(setup_chk, null)
    except MedcoverError as ex:
        setup_chk.expect(False, f"warm-up raised {type(ex).__name__}: {ex}")
    setup_window = (T0, time.perf_counter())

    chk = wl.Checks()
    tr = tracing.Tracer() if role == "traced" else null
    windows: list[list[tuple[float, float]]] = []
    if role == "traced":
        tr.install()
    for p in range(passes):
        if p:
            inputs = make_inputs(seed)  # fresh item state: each pass starts cold
        pass_windows = []
        for index, (label, item) in enumerate(inputs.items):
            tr.item = index
            t = time.perf_counter()
            try:
                item(chk, tr)
            except MedcoverError as ex:
                chk.expect(False, f"{label}: raised {type(ex).__name__}: {ex}")
            pass_windows.append((t, time.perf_counter()))
        windows.append(pass_windows)
        missing = inputs.requested - len(inputs.items)
        for _ in range(max(missing, 0)):
            chk.expect(False, "item missing from the input set")
    if role == "traced":
        tr.uninstall()
    if sampler:
        sampler.stop()

    def measure(t0: float, t1: float) -> tuple[float, float]:
        return sampler.measure(t0, t1) if sampler else (t1 - t0, 1.0)

    setup_s, setup_speed = measure(*setup_window)
    latencies, speeds = [], []
    for pass_windows in windows:
        busy, factors = zip(*(measure(t0, t1) for t0, t1 in pass_windows))
        latencies.append([b * 1e3 for b in busy])
        speeds.append(list(factors))
    walls = [sum(lat) / 1e3 for lat in latencies]

    out = {
        "setup_s": setup_s,
        "setup_speed": setup_speed,
        "wall_s": walls,
        "latencies_ms": latencies,
        "speeds": speeds,
        "probes": len(sampler.starts) if sampler else 0,
        "probe_ms_median": 1e3 * statistics.median(sampler.durations) if sampler else 0.0,
        "labels": [label for label, _ in inputs.items],
        "attempted": setup_chk.attempted + chk.attempted,
        "failures": setup_chk.failures + chk.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": numpy.__version__,
    }
    if role == "traced":
        out["layers"] = tr.metrics(walls[0])
        if spans_path:
            tr.write(spans_path)
    return out


# Metrics that are counts of work: two traced processes on the same inputs
# must report them identically.
REPEAT_SUFFIXES = (".calls", ".iterations", "_evals", ".subsets", ".graphs", ".checks",
                   ".errors", ".not_converged", "_ratio")


# ---------------------------------------------------------------------------
# Parent: spawn the passes, aggregate, print
# ---------------------------------------------------------------------------

def spawn(args, role: str, deadline: float, passes: int = 1, index: int = 0) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--role", role, "--passes", str(passes)]
    if role == "traced":
        cmd += ["--spans", os.path.join(OUT, f"spans-{args.workload}-s{args.seed}-{index}.json")]
    timeout = max(1.0, deadline - time.perf_counter())
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{role} process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def tail(values: list[float]) -> tuple[float, int, int]:
    """Highest whole percentile that leaves at least ten samples above it
    (nearest rank); returns (value, percentile, samples beyond)."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return 0.0, 100, 0
    if n < 11:
        return xs[-1], 100, 0
    p = (100 * (n - 10)) // n
    rank = max(1, math.ceil(p * n / 100))
    return xs[rank - 1], p, n - rank


def scaled(children: list[dict]) -> list[list[float]]:
    """Each pass's item latencies at the reference speed: busy time times the
    speed factor the sampler measured over the item (see speed.py)."""
    return [
        [ms * f for ms, f in zip(lat, factors)]
        for c in children
        for lat, factors in zip(c["latencies_ms"], c["speeds"])
    ]


def end_to_end(children: list[dict]) -> tuple[dict, dict]:
    """Times are at the reference speed. wall_s sums each item's median over
    the passes; the percentiles are taken over every sample of the run. No
    cache carries over from one pass to the next: the oracle's block cache
    lives inside one call."""
    passes = scaled(children)
    samples = [ms for lat in passes for ms in lat]
    per_item = [statistics.median(xs) for xs in zip(*passes)]
    tail_ms, pct, beyond = tail(samples)
    setups = [c["setup_s"] * c["setup_speed"] for c in children]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(per_item) / 1e3,
        "item_p50_ms": statistics.median(samples),
        "item_tail_ms": tail_ms,
        "peak_rss_mb": max(c["peak_rss_mb"] for c in children),
    }
    unscaled = (lat for c in children for lat in c["latencies_ms"])
    raw = [statistics.median(xs) for xs in zip(*unscaled)]
    details = {
        "processes": len(children),
        "passes": len(passes),
        "items": len(per_item),
        "item_samples": len(samples),
        "item_tail_percentile": pct,
        "item_tail_samples_beyond": beyond,
        "unscaled_wall_s": sum(raw) / 1e3,
        "unscaled_setup_s_each": [c["setup_s"] for c in children],
        "setup_s_each": setups,
        "pass_busy_s": [c["wall_s"] for c in children],
        "probes": [c["probes"] for c in children],
        "probe_ms_median": [c["probe_ms_median"] for c in children],
        "item_ms": [list(pair) for pair in zip(children[0]["labels"], per_item)],
    }
    return values, details


def per_layer(untraced: list[dict], traced: list[dict],
              names: list[str]) -> tuple[dict, list[str], int]:
    """Per-layer values from the first traced process, the tracing overhead
    (faster traced pass over faster untraced pass), and the checks of a
    traced run: counts repeat exactly between the two traced processes, and
    the top-level spans cover the traced wall to 10%."""
    first, second = traced[0]["layers"], traced[1]["layers"]
    values = {name: first[name] for name in names if name != "trace.overhead_frac"}
    values["trace.overhead_frac"] = (
        min(t["wall_s"][0] for t in traced) / min(u["wall_s"][0] for u in untraced) - 1.0
    )
    repeated = [name for name in sorted(first) if name.endswith(REPEAT_SUFFIXES)]
    mismatches = [
        f"count {name} differs between traced processes: {first[name]!r} != {second[name]!r}"
        for name in repeated
        if first[name] != second[name]
    ]
    coverage = [t["layers"]["trace.coverage_frac"] for t in traced]
    mismatches += [f"trace.coverage_frac {c!r} is more than 10% away from 1" for c in coverage
                   if abs(c - 1.0) > 0.1]
    return values, mismatches, len(repeated) + len(coverage)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(NOMINAL_PASS_S))
    ap.add_argument("--seed", type=int, required=True,
                    help=f"input seed; keep seed {HELD_OUT_SEED} held out for checking claims")
    ap.add_argument("--seconds", type=float, default=15.0, help="measured work per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("timed", "untraced", "traced"), help=argparse.SUPPRESS)
    ap.add_argument("--passes", type=int, default=1, help=argparse.SUPPRESS)
    ap.add_argument("--spans", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "medcover", "__init__.py")):
        sys.stderr.write(f"error: no medcover sources under {SRC}; run from a source checkout\n")
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONHASHSEED"] = "0"

    if args.role:
        result = run_process(args.workload, args.seed, args.passes, args.role,
                             args.spans)
        print(json.dumps(result))
        return 0

    deadline = time.perf_counter() + DEADLINE_S
    spec = load_spec()
    os.makedirs(OUT, exist_ok=True)
    env = _environment()
    if args.trace:
        untraced, traced = [], []
        for i in range(2):  # alternate, so a slow spell does not land on one side only
            untraced.append(spawn(args, "untraced", deadline))
            traced.append(spawn(args, "traced", deadline, index=i))
        children = untraced + traced
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values, mismatches, compared = per_layer(untraced, traced, list(units))
        details = {"untraced_wall_s": [u["wall_s"][0] for u in untraced],
                   "traced_wall_s": [t["wall_s"][0] for t in traced]}
    else:
        passes = max(1, round(args.seconds / NOMINAL_PASS_S[args.workload]))
        procs = min(PROCESSES, passes)
        children = [spawn(args, "timed", deadline, passes // procs + (i < passes % procs))
                    for i in range(procs)]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values, details = end_to_end(children)
        mismatches, compared = [], 0

    failures = [f for c in children for f in c["failures"]] + mismatches
    attempted = sum(c["attempted"] for c in children) + compared
    env["numpy"] = children[0]["numpy"]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "details": details,
        "failed_frac": len(failures) / attempted,
        "failures": failures,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    with open(os.path.join(OUT, f"result-{args.workload}-s{args.seed}-t{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)

    for key, val in env.items():
        print(f"# {key}: {val}")
    for key, val in details.items():
        if key != "item_ms":
            print(f"# {key}: {val}")
    for f in failures[:20]:
        print(f"# FAILED: {f}")
    print(f"failed_frac = {report['failed_frac']:.6g} ({len(failures)}/{attempted})")
    for key, val in values.items():
        print(f"{key} = {val!r} {units[key]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
