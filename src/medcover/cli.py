"""Command-line pipeline: reduce graphs, solve medians, certify bounds,
extract covers, and sweep the whole chain against the oracles.

Outputs are JSON for single runs and CSV for sweeps; both are deterministic
for a fixed seed and options (dict keys sorted, floats via repr, fixed row
order), so repeated runs are byte-identical and diffable.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .costs import (
    BASIS_CLOSED,
    BASIS_UPPER,
    MAX_CONTINUOUS_POINTS,
    Block,
    closed_form_median_cost,
    cluster_points,
    median_extra_cost,
    weiszfeld,
)
from .covers import SoundnessReport, block_count, require_triangle_free, soundness_assemble
from .decomposition import (
    certificate_from_trace,
    decompose,
    trace_to_dict,
)
from .errors import MedcoverError
from .graphs import (
    Graph,
    bridge_structure,
    classify,
    is_star,
    is_vertex_cover,
    parse_edge_list,
)
from .oracle import (
    OracleReport,
    min_vertex_cover,
    opt_continuous,
    opt_discrete,
    random_triangle_free,
)
from .reduction import (
    NO_SIDE_HYPOTHESIS,
    OBJECTIVES,
    auto_no_regime,
    check_delta,
    instance_from_json,
    instance_to_json,
    parse_hyperedges,
    predict_gap_graph,
    reduce_graph,
    reduce_hypergraph,
    yes_cost,
)
from .suites import (
    cover_le_2k,
    cover_le_ceiling,
    means_complete,
    median_complete,
    monotone_in_centers,
    run_all,
)


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_graph(path: str) -> Graph:
    return parse_edge_list(_read_text(path))


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _jsonable(x: object) -> object:
    """A frozenset as its sorted list; an exact rational as its float value
    (the exact string is carried separately where it matters)."""
    if isinstance(x, frozenset):
        return sorted(x)
    if isinstance(x, Fraction):
        return float(x)
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


def _json(obj: object) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, default=_jsonable) + "\n"


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_reduce(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    inst = reduce_graph(g, k=args.k, objective=args.objective)
    pred = predict_gap_graph(g.num_edges, args.k, args.objective, args.delta)
    if args.out:
        _emit(instance_to_json(inst), args.out)
    payload = {
        "instance_points": len(inst.points),
        "dimension": inst.dimension,
        "yes_cost": pred.yes_cost,
        "no_cost_lower": pred.no_cost_lower,
        "no_cost_lower_hypothesis": NO_SIDE_HYPOTHESIS[args.objective],
        "parameters": dict(pred.parameters),
        "auto_no_regime": auto_no_regime(g, args.k),
        "out": args.out,
    }
    sys.stdout.write(_json(payload))
    return 0


def cmd_hyper_reduce(args: argparse.Namespace) -> int:
    h = parse_hyperedges(_read_text(args.graph), d=args.d, k=args.k)
    inst = reduce_hypergraph(h)
    if args.out:
        _emit(instance_to_json(inst), args.out)
    payload = {
        "d": h.d,
        "num_vertices": h.num_vertices,
        "hyperedges": len(h.hyperedges),
        "candidate_centers": len(inst.candidate_centers or ()),
        "out": args.out,
    }
    sys.stdout.write(_json(payload))
    return 0


def cmd_median(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    sol = weiszfeld(cluster_points(g))
    closed = closed_form_median_cost(g)
    payload = {
        "cost": sol.cost,
        "center": list(sol.center),
        "iterations": sol.iterations,
        "converged": sol.converged,
        "closed_form": closed,
    }
    if not is_star(g):
        # extra_cost(g, "median") without solving again: the closed form if
        # there is one, else the cost of the solve above
        cost, basis = (sol.cost, BASIS_UPPER) if closed is None else (closed, BASIS_CLOSED)
        extra = median_extra_cost(g, cost, basis)
        payload["extra_cost"] = {"value": extra.value, "basis": extra.basis}
    _emit(_json(payload), args.out)
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    cls = classify(g)
    payload: dict = {"class": cls.describe(), "edges": g.num_edges, "safe": None, "ultra_safe": None}
    modes: tuple[str, ...] = ("safe", "ultra_safe")
    if is_star(g):
        payload["note"] = "stars need no decomposition; their cost is the closed form"
        modes = ()
    elif bridge_structure(g) is not None:
        payload["note"] = "bridge graph: ultra-safe mode not applicable"
        modes = ("safe",)
    for mode in modes:
        trace = decompose(g, mode)
        cert = certificate_from_trace(trace)
        payload[mode] = {
            "trace": trace_to_dict(trace),
            "bound": cert.bound,
            "derivation": [[label, v] for label, v in cert.derivation],
        }
    _emit(_json(payload), args.out)
    return 0


def _pad_blocks(blocks: list[list[int]], want: int) -> list[list[int]]:
    """Split blocks (largest first, last element peeled off) until there are
    exactly `want`; splitting never raises clustering cost, so the padded
    partition is still optimal-or-better."""
    blocks = [sorted(b) for b in blocks]
    while len(blocks) < want:
        big = max(range(len(blocks)), key=lambda i: (len(blocks[i]), -i))
        if len(blocks[big]) < 2:
            raise MedcoverError("cannot pad partition: all blocks are singletons")
        blocks.append([blocks[big].pop()])
    return blocks


def _round_trip(
    g: Graph, k: int, blocks_needed: int, objective: str, beta: float, delta: float
) -> tuple[OracleReport, SoundnessReport]:
    """The soundness round trip of ``cover``, ``sweep`` and the demo: the
    oracle's optimal clustering at ``blocks_needed`` blocks, padded by
    ``_pad_blocks`` to exactly that many, then ``soundness_assemble`` at
    budget k, all with the given objective, beta and delta. A graph with a
    triangle is refused before the reduction and the solve, by the triangle
    test of the ``Block`` that ``soundness_assemble`` then reads."""
    whole = Block(g)
    require_triangle_free(whole)
    oracle = opt_continuous(reduce_graph(g, k=blocks_needed, objective=objective))
    blocks = _pad_blocks([list(b) for b in oracle.partition], blocks_needed)
    return oracle, soundness_assemble(whole, blocks, k=k, beta=beta, objective=objective, delta=delta)


def cmd_cover(args: argparse.Namespace) -> int:
    check_delta(args.delta)
    g = _load_graph(args.graph)
    blocks_needed = block_count(args.beta, args.k)
    if blocks_needed > g.num_edges:
        raise MedcoverError(
            f"ceil(beta*k) = {blocks_needed} blocks exceed the {g.num_edges} edges"
        )
    oracle, rep = _round_trip(g, args.k, blocks_needed, args.objective, args.beta, args.delta)
    payload = dataclasses.asdict(rep)
    payload["oracle_cost"] = oracle.optimal_cost
    payload["min_vertex_cover"] = len(min_vertex_cover(g))
    _emit(_json(payload), args.out)
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    text = _read_text(args.graph)
    if text.lstrip().startswith("{"):
        for flag, value in (("--k", args.k), ("--objective", args.objective)):
            if value is not None:
                raise MedcoverError(
                    f"{flag} applies to edge lists only; an instance JSON carries its own "
                    f"{flag[2:]}"
                )
        inst = instance_from_json(text)
        rep = opt_discrete(inst) if inst.candidate_centers is not None else opt_continuous(inst)
    else:
        if args.k is None:
            raise MedcoverError("--k is required when the input is an edge list")
        g = parse_edge_list(text)
        rep = opt_continuous(reduce_graph(g, k=args.k, objective=args.objective or "median"))
    _emit(_json(dataclasses.asdict(rep)), args.out)
    return 0


def cmd_verify_lemmas(args: argparse.Namespace) -> int:
    if args.max_edges < 3:  # smaller connected graphs are all stars: no checks
        raise MedcoverError(f"--max-edges must be at least 3, got {args.max_edges}")
    if args.trials < 1:
        raise MedcoverError(f"--trials must be at least 1, got {args.trials}")
    report = run_all(max_edges=args.max_edges, seed=args.seed, trials=args.trials)
    _emit(_json(report), args.out)
    if not report["all_passed"]:
        for s in report["suites"]:
            for f in s["failures"]:
                sys.stderr.write(f"{s['name']}: {f}\n")
        return 1
    return 0


_SWEEP_FIELDS = (
    "trial",
    "seed",
    "n",
    "m",
    "k",
    "blocks",
    "median_yes",
    "median_opt",
    "median_complete",
    "means_yes",
    "means_opt",
    "means_complete",
    "opt_at_blocks",
    "beta_monotone",
    "cover_size",
    "cover_valid",
    "cover_le_2k",
    "cover_le_ceiling",
    "procedures_path",
)
# the columns that hold a verdict: a "false" in any of them fails the sweep
_SWEEP_VERDICTS = (
    "median_complete", "means_complete", "beta_monotone", "cover_valid", "cover_le_2k",
    "cover_le_ceiling",
)


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise MedcoverError(f"--trials must be at least 1, got {args.trials}")
    check_delta(args.delta)  # rows whose blocks exceed their edges never assemble
    rows = []
    produced = 0
    attempt = 0
    while produced < args.trials and attempt < args.trials * 50:
        seed_i = args.seed * 10_000 + attempt
        attempt += 1
        g = random_triangle_free(args.n, args.d, seed=seed_i)
        if not 2 <= g.num_edges <= MAX_CONTINUOUS_POINTS:
            continue
        m = g.num_edges
        k = len(min_vertex_cover(g))
        blocks_needed = block_count(args.beta, k)
        # the other objective first, so the two args.objective solves (at k,
        # then at blocks_needed) run back to back and share the oracle's tables
        other = "means" if args.objective == "median" else "median"
        opt = {o: opt_continuous(reduce_graph(g, k=k, objective=o))
               for o in (other, args.objective)}
        med, mea = opt["median"], opt["means"]
        row: dict[str, object] = {
            "trial": produced,
            "seed": seed_i,
            "n": g.num_vertices,
            "m": m,
            "k": k,
            "blocks": blocks_needed,
            "median_yes": repr(yes_cost(m, k, "median")),
            "median_opt": repr(med.optimal_cost),
            "median_complete": str(median_complete(med.optimal_cost, m, k)).lower(),
            "means_yes": repr(yes_cost(m, k, "means")),
            "means_opt": repr(mea.optimal_cost),
            "means_complete": str(means_complete(mea.optimal_cost, m, k)).lower(),
        }
        if blocks_needed <= m:  # else the oracle and cover columns stay blank
            ob, rep = _round_trip(g, k, blocks_needed, args.objective, args.beta, args.delta)
            row["opt_at_blocks"] = repr(ob.optimal_cost)
            row["beta_monotone"] = str(
                monotone_in_centers(ob.optimal_cost, opt[args.objective].optimal_cost)
            ).lower()
            row["cover_size"] = rep.total_cover_size
            row["cover_valid"] = str(is_vertex_cover(g, rep.cover)).lower()
            row["cover_le_2k"] = str(cover_le_2k(rep.total_cover_size, k, args.delta)).lower()
            if args.objective == "means":  # the median ceiling is not a claim yet
                row["cover_le_ceiling"] = str(
                    cover_le_ceiling(rep.total_cover_size, rep.predicted_ceiling)
                ).lower()
            row["procedures_path"] = rep.procedures_path
        rows.append(row)
        produced += 1
    if produced < args.trials:
        raise MedcoverError(
            f"sweep produced {produced} of {args.trials} requested rows in {attempt} "
            f"attempts (graphs need 2 to {MAX_CONTINUOUS_POINTS} edges)"
        )
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_SWEEP_FIELDS, restval="", lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    _emit(buf.getvalue(), args.out)
    false = [
        f"sweep: trial {row['trial']} (seed {row['seed']}): {column} is false\n"
        for row in rows for column in _SWEEP_VERDICTS if row.get(column) == "false"
    ]
    sys.stderr.writelines(false)
    return 1 if false else 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="medcover",
        description="Vertex-cover-to-clustering reductions with certified "
        "bounds, constructive cover extraction, and exhaustive oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="embed an edge list as a clustering instance")
    p.add_argument("--graph", required=True, help="edge-list file (one 'u v' per line)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--objective", choices=OBJECTIVES, default="median")
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument("--out", help="write the instance JSON here")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("hyper-reduce", help="embed a d-uniform hyperedge list")
    p.add_argument("--graph", required=True, help="hyperedge file (one vertex list per line)")
    p.add_argument("--d", type=int, default=None, help="hyperedge size (inferred if omitted)")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--out", help="write the instance JSON here")
    p.set_defaults(func=cmd_hyper_reduce)

    p = sub.add_parser("median", help="1-median of a graph's embedded points")
    p.add_argument("--graph", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_median)

    p = sub.add_parser("decompose", help="safe-pair decomposition and certified bounds")
    p.add_argument("--graph", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("cover", help="oracle clustering, then cover extraction")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--objective", choices=OBJECTIVES, default="median")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument("--out")
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("oracle", help="exact optimum (instance JSON or edge list)")
    p.add_argument("--graph", required=True, help="instance JSON or edge-list file")
    p.add_argument("--k", type=int, help="number of centers (edge lists only)")
    p.add_argument("--objective", choices=OBJECTIVES,
                   help="objective, median if omitted (edge lists only)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify-lemmas", help="run every property suite")
    p.add_argument("--max-edges", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=12)
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify_lemmas)

    p = sub.add_parser("sweep", help="randomized end-to-end sweep, CSV report")
    p.add_argument("--n", type=int, default=8, help="vertices per sampled graph")
    p.add_argument("--d", type=int, default=3, help="max degree of sampled graphs")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument("--objective", choices=OBJECTIVES, default="median")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MedcoverError, OSError, ValueError) as ex:  # ValueError covers JSONDecodeError
        sys.stderr.write(f"error: {ex}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
