#!/usr/bin/env python3
"""Walk one graph through the full pipeline and print every artifact.

Usage: python scripts/demo_pipeline.py [seed]
"""

import json
import sys

from medcover.cli import _round_trip
from medcover.costs import MAX_CONTINUOUS_POINTS
from medcover.decomposition import certify_lower_bound
from medcover.graphs import bridge_structure, format_edge_list
from medcover.oracle import min_vertex_cover, random_triangle_free
from medcover.reduction import NO_SIDE_HYPOTHESIS, predict_gap_graph
from medcover.suites import median_complete


def main() -> int:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    g = random_triangle_free(8, 3, seed=seed)
    while g.num_edges > MAX_CONTINUOUS_POINTS:  # keep the exhaustive oracle feasible
        seed += 101
        g = random_triangle_free(8, 3, seed=seed)
    k = len(min_vertex_cover(g))
    m = g.num_edges

    print(f"graph (seed {seed}):")
    print(format_edge_list(g))
    print(f"edges m = {m}, minimum vertex cover k = {k}")

    pred = predict_gap_graph(m, k, "median", delta=0.01)
    print(f"\nmedian thresholds: yes <= {pred.yes_cost}, no > {pred.no_cost_lower}"
          f" ({NO_SIDE_HYPOTHESIS['median']})")

    rep, cover_rep = _round_trip(g, k, k, "median", beta=1.0, delta=0.01)
    verdict = "yes" if median_complete(rep.optimal_cost, m, k) else "no"
    print(f"optimal {k}-median cost = {rep.optimal_cost:.9f}  -> {verdict} side")

    print(f"\nextracted cover: {sorted(cover_rep.cover)} "
          f"(size {cover_rep.total_cover_size}, path {cover_rep.procedures_path})")
    print(f"cluster profile: singles={cover_rep.t1} stars={cover_rep.t2} "
          f"nu2={cover_rep.t3} nu3+={cover_rep.t4}")
    print("ledger (kind, edges, cover, charge = constant + slope * extra, case or kept):")
    for e in cover_rep.per_cluster:
        kept = f"  kept {e.kept}" if e.kept else ""
        case = f"  case {e.case}" if e.case else ""
        print(f"  {e.kind:<12} edges {list(e.edges)} cover {sorted(e.cover)} charge "
              f"{float(e.charge):.4f} = {float(e.constant):.4g} + {float(e.slope):.4g} * "
              f"{float(e.extra):.4g}{case}{kept}")
    print(f"size ceiling {cover_rep.predicted_ceiling:.4f} -> epsilon "
          f"{cover_rep.epsilon:.4f} (predicted, not certified)")

    cert = certify_lower_bound(g, "safe")
    print(f"\n1-cluster lower bound (safe mode): {cert.bound:.6f}")
    for label, value in cert.derivation:
        print(f"  + {value:.6f}  [{label}]")
    if bridge_structure(g) is None:
        ultra = certify_lower_bound(g, "ultra_safe")
        print(f"ultra-safe mode: {ultra.bound:.6f} (>= m on non-bridge graphs)")

    print("\nfull report as JSON:")
    print(json.dumps({
        "edges": [list(e) for e in g.edges],
        "k": k,
        "optimal_cost": rep.optimal_cost,
        "cover": sorted(cover_rep.cover),
        "lower_bound_one_cluster": cert.bound,
    }, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
