"""Named property suites: the package's checkable claims in one place.

Each suite runs a family of checks against the independent oracles and
returns a plain dict (suitable for JSON) with the number of checks run and
a list of human-readable failure strings — empty on success. The CLI's
verify-lemmas command and the acceptance tests both call these, so there is
exactly one definition of every claim.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .costs import (
    a_n_median_cost,
    cluster_points,
    disjoint_edges_median_cost,
    extra_cost,
    l1_median_cost,
    median_costs,
    median_extra_cost,
    simplex_median_cost,
    star_median_cost,
    weiszfeld,
)
from .covers import (
    SQRT2P1,
    cover_case_dispatch,
    cover_general,
    cover_matching_two,
    cover_nonstar_means,
)
from .decomposition import certify_lower_bound
from .errors import MedcoverError, PreconditionViolated
from .graphs import (
    ClassTag,
    Graph,
    bridge_structure,
    classify,
    is_star,
    is_vertex_cover,
    maximum_matching,
    second_maximum_matching,
)
from .oracle import (
    enumerate_triangle_free,
    min_vertex_cover,
    opt_continuous,
    opt_discrete,
    random_triangle_free,
)
from .reduction import (
    HypergraphInstance,
    predict_gap_graph,
    predict_gap_hypergraph,
    reduce_graph,
    reduce_hypergraph,
)


def _suite(name: str, checks: int, failures: list[str]) -> dict:
    return {
        "name": name,
        "passed": not failures,
        "checks": checks,
        "failures": failures,
    }


def _star(r: int) -> Graph:
    return Graph(r + 1, tuple((0, i) for i in range(1, r + 1)))


def suite_closed_forms() -> dict:
    """Numerical 1-median solver versus every closed form and proven floor:
    stars, regular simplices, lone-edge-plus-star A_n, the shortest two-star
    path L_1, three disjoint edges, and the 5-cycle."""
    failures: list[str] = []
    checks = 0

    def expect(label: str, got: float, want: float, tol: float = 1e-6) -> None:
        nonlocal checks
        checks += 1
        if abs(got - want) > tol:
            failures.append(f"{label}: got {got!r}, want {want!r}")

    def expect_at_least(label: str, got: float, floor: float) -> None:
        nonlocal checks
        checks += 1
        if got < floor - 1e-6:
            failures.append(f"{label}: got {got!r}, floor {floor!r}")

    for r in range(2, 9):
        expect(f"star r={r}", weiszfeld(cluster_points(_star(r))).cost, star_median_cost(r))
    for r in range(2, 9):
        pts = [[2.0 / math.sqrt(2.0) if j == i else 0.0 for j in range(r)] for i in range(r)]
        expect(f"simplex side 2 r={r}", weiszfeld(pts).cost, simplex_median_cost(r, 2.0))
    for n in range(1, 7):
        lone = Graph(n + 3, ((0, 1),) + tuple((2, 3 + i) for i in range(n)))
        expect(f"A_{n}", weiszfeld(cluster_points(lone)).cost, a_n_median_cost(n))
    expect_at_least("A_2 floor", a_n_median_cost(2), 3.095)
    l1 = Graph(4, ((0, 1), (1, 2), (2, 3)))
    expect("L_1", weiszfeld(cluster_points(l1)).cost, l1_median_cost())
    expect("L_1 value", l1_median_cost(), 1 + math.sqrt(3.0))
    p3 = Graph(6, ((0, 1), (2, 3), (4, 5)))
    expect("3 disjoint edges", weiszfeld(cluster_points(p3)).cost, disjoint_edges_median_cost(3))
    expect("3-P2 value", disjoint_edges_median_cost(3), 2 * math.sqrt(3.0))
    c5 = Graph(5, ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4)))
    expect_at_least("C5 floor", weiszfeld(cluster_points(c5)).cost, math.sqrt(20.0) + 0.622)
    return _suite("closed_forms", checks, failures)


def _nonstars(max_edges: int) -> list[tuple[Graph, float, float]]:
    """The connected triangle-free non-star graphs up to ``max_edges`` edges,
    each with its ``median_cost``, solved as one ``median_costs`` batch, and
    that cost's ``median_extra_cost``."""
    graphs = [g for g in enumerate_triangle_free(max_edges) if not is_star(g)]
    return [
        (g, cost, median_extra_cost(g, cost, basis).value)
        for g, (cost, basis) in zip(graphs, median_costs(graphs))
    ]


def suite_decomposition(max_edges: int = 7) -> dict:
    """Certified lower bounds bracket the true cost on every connected
    triangle-free non-star graph up to max_edges edges: safe certificates
    sit in [|F|-0.342, true cost]; ultra certificates (non-bridge graphs)
    reach |F|. The true cost is ``median_cost``'s, from ``_nonstars``."""
    failures: list[str] = []
    checks = 0
    for g, true_cost, _ in _nonstars(max_edges):
        m = g.num_edges
        cert = certify_lower_bound(g, "safe")
        checks += 1
        if cert.bound > true_cost + 1e-6:
            failures.append(f"safe bound exceeds cost on {g.edges}: {cert.bound!r} > {true_cost!r}")
        checks += 1
        if cert.bound < m - 0.342 - 1e-12:
            failures.append(f"safe bound below floor on {g.edges}: {cert.bound!r}")
        checks += 1
        if abs(cert.bound - sum(v for _, v in cert.derivation)) > 1e-12:
            failures.append(f"certificate sum mismatch on {g.edges}")
        if bridge_structure(g) is None:
            ultra = certify_lower_bound(g, "ultra_safe")
            checks += 2
            if ultra.bound < m - 1e-12:
                failures.append(f"ultra bound below |F| on {g.edges}: {ultra.bound!r}")
            if ultra.bound > true_cost + 1e-6:
                failures.append(f"ultra bound exceeds cost on {g.edges}: {ultra.bound!r}")
    return _suite("decomposition_soundness", checks, failures)


def suite_extra_cost(max_edges: int = 7) -> dict:
    """Extra-cost floors for every enumerated connected non-star graph:
    the numerical median floor 0.158 and the exact rational means floor 2/3.
    The median extra costs are ``_nonstars``'."""
    failures: list[str] = []
    checks = 0
    for g, _, med in _nonstars(max_edges):
        checks += 1
        if med < 0.158 - 1e-6:
            failures.append(f"median extra cost below floor on {g.edges}: {med!r}")
        mean = extra_cost(g, "means")
        checks += 1
        if not (isinstance(mean.value, Fraction) and mean.value >= Fraction(2, 3)):
            failures.append(f"means extra cost below 2/3 on {g.edges}: {mean.value!r}")
    return _suite("extra_cost_floor", checks, failures)


def completeness_instances(trials: int, seed: int) -> list[Graph]:
    """Deterministic stream of desk-scale random triangle-free graphs whose
    reductions fit the continuous oracle (at most 12 edges)."""
    grid = [(6, 3), (7, 3), (8, 3), (6, 4), (7, 4), (10, 2), (9, 2), (8, 2)]
    out: list[Graph] = []
    i = 0
    while len(out) < trials:
        n, d = grid[i % len(grid)]
        g = random_triangle_free(n, d, seed=seed * 1000 + i)
        i += 1
        if 2 <= g.num_edges <= 12:
            out.append(g)
    return out


def median_complete(cost: float, m: int, k: int) -> bool:
    """Median completeness: a graph with m edges and a vertex cover of size k
    clusters at cost <= m - k/2 (up to Weiszfeld's tolerance)."""
    return cost <= m - k / 2 + 1e-6


def means_complete(cost: float, m: int, k: int) -> bool:
    """Means completeness: a graph with m edges and a vertex cover of size k
    clusters at cost <= m - k (the oracle's means costs are exact)."""
    return cost <= m - k + 1e-9


def suite_completeness(trials: int = 50, seed: int = 0) -> dict:
    """Completeness direction of the reductions: a graph with a vertex cover
    of size k clusters at cost <= m - k/2 (median) and <= m - k (means); the
    exhaustive oracle must confirm this with k = the true minimum cover."""
    failures: list[str] = []
    checks = 0
    for g in completeness_instances(trials, seed):
        k = len(min_vertex_cover(g))
        m = g.num_edges
        med = opt_continuous(reduce_graph(g, k=k, objective="median"))
        checks += 1
        if not median_complete(med.optimal_cost, m, k):
            failures.append(
                f"median completeness fails on {g.edges}: {med.optimal_cost!r} > {m - k / 2!r}"
            )
        mean = opt_continuous(reduce_graph(g, k=k, objective="means"))
        checks += 1
        if not means_complete(mean.optimal_cost, m, k):
            failures.append(
                f"means completeness fails on {g.edges}: {mean.optimal_cost!r} > {m - k!r}"
            )
    return _suite("completeness", checks, failures)


def suite_covers(max_edges: int = 7) -> dict:
    """Constructive covers across the enumeration: always valid vertex
    covers, matching-2 covers as small as the true minimum (2, or 3 on the
    5-cycle), general covers within |M|+|L|-1, case dispatch within
    1.8+(sqrt2+1)*delta, and means covers within 1+(5/2)*delta exactly;
    the median delta is the extra cost from ``_nonstars``."""
    failures: list[str] = []
    checks = 0
    for g, _, extra in _nonstars(max_edges):
        m = maximum_matching(g)
        nu = len(m)
        if nu == 2:
            res = cover_matching_two(g, extra)
            want = len(min_vertex_cover(g))
            checks += 2
            if not is_vertex_cover(g, res.cover):
                failures.append(f"matching-2 non-cover on {g.edges}")
            expected = 3 if classify(g).tag is ClassTag.C5 else 2
            if res.size != expected or res.size != want:
                failures.append(
                    f"matching-2 size on {g.edges}: got {res.size}, construction {expected}, minimum {want}"
                )
        l = second_maximum_matching(g, m)
        if len(l) >= 1:
            try:
                res = cover_general(g, m, l, extra)
                checks += 2
                if not is_vertex_cover(g, res.cover):
                    failures.append(f"general non-cover on {g.edges}")
                if res.size > len(m) + len(l) - 1:
                    failures.append(f"general size bound fails on {g.edges}: {res.size}")
            except MedcoverError as ex:
                checks += 1
                failures.append(f"general construction failed on {g.edges}: {ex}")
        if nu >= 3:
            try:
                res = cover_case_dispatch(g, extra)
                checks += 2
                if not is_vertex_cover(g, res.cover):
                    failures.append(f"dispatch non-cover on {g.edges}")
                lim = 1.8 + SQRT2P1 * res.delta_used
                if res.size > lim + 1e-6:
                    failures.append(f"dispatch bound fails on {g.edges}: {res.size} > {lim!r}")
            except MedcoverError as ex:
                checks += 1
                failures.append(f"dispatch failed on {g.edges}: {ex}")
        res = cover_nonstar_means(g)
        checks += 2
        if not is_vertex_cover(g, res.cover):
            failures.append(f"means non-cover on {g.edges}")
        if Fraction(res.size) > res.bound_value:
            failures.append(f"means bound fails on {g.edges}: {res.size} > {res.bound_value}")
    return _suite("cover_extraction", checks, failures)


def _hypergraph_cases(seed: int = 0) -> list[HypergraphInstance]:
    import random as _random

    rng = _random.Random(seed)
    cases: list[HypergraphInstance] = []
    for d in (2, 3, 4):
        for _ in range(6):
            mv = rng.randint(d, 8)
            count = rng.randint(2, 12)
            edges = []
            for _ in range(count):
                edges.append(tuple(sorted(rng.sample(range(mv), d))))
            edges = tuple(dict.fromkeys(edges))
            k = rng.randint(1, mv - 1) if mv > 1 else 1
            cases.append(HypergraphInstance(d=d, num_vertices=mv, hyperedges=edges, k=k))
    return cases


def suite_hypergraph(seed: int = 0) -> dict:
    """Hypergraph reduction geometry and optimum: every point-center pair
    sits at squared distance d-1 (vertex on the hyperedge) or d+1 (off it),
    and the discrete oracle equals (d-1)(N-q) + (d+1)q with q from
    exhaustive cover search."""
    import itertools as _it

    failures: list[str] = []
    checks = 0
    for h in _hypergraph_cases(seed):
        inst = reduce_hypergraph(h)
        d = h.d
        if inst.candidate_centers is None:
            raise PreconditionViolated(f"hypergraph reduction gave no candidate centers for {h}")
        for ei, e in enumerate(h.hyperedges):
            for v in range(h.num_vertices):
                sq = sum(
                    (a - b) ** 2
                    for a, b in zip(inst.points[ei], inst.candidate_centers[v])
                )
                want = d - 1 if v in e else d + 1
                checks += 1
                if sq != want:
                    failures.append(
                        f"distance wrong (d={d}, edge {e}, vertex {v}): {sq} != {want}"
                    )
        q = min(
            sum(1 for e in h.hyperedges if not (set(s) & set(e)))
            for s in _it.combinations(range(h.num_vertices), h.k)
        )
        want_cost = (d - 1) * (len(h.hyperedges) - q) + (d + 1) * q
        rep = opt_discrete(inst)
        checks += 1
        if abs(rep.optimal_cost - want_cost) > 1e-9:
            failures.append(
                f"discrete optimum (d={d}, N={len(h.hyperedges)}, k={h.k}): "
                f"{rep.optimal_cost!r} != {want_cost}"
            )
    return _suite("hypergraph_reduction", checks, failures)


_GAP_SPOT_CASES = (
    # (kind, args, want_yes, want_no)
    ("graph", dict(m=2, k=1, objective="median", delta=0.01), 1.5, 1.51),
    ("graph", dict(m=10, k=4, objective="median", delta=0.01), 8.0, 8.04),
    ("graph", dict(m=5, k=2, objective="median", delta=0.1), 4.0, 4.2),
    ("graph", dict(m=12, k=6, objective="median", delta=0.0), 9.0, 9.0),
    ("graph", dict(m=2, k=1, objective="means", delta=0.01), 1.0, 1.01),
    ("graph", dict(m=10, k=4, objective="means", delta=0.01), 6.0, 6.04),
    ("graph", dict(m=7, k=3, objective="means", delta=0.5), 4.0, 5.5),
    ("hyper", dict(d=3, n_hyperedges=4, p=0.25), 8.0, 10.0),
    ("hyper", dict(d=2, n_hyperedges=6, p=0.5), 6.0, 12.0),
    ("hyper", dict(d=4, n_hyperedges=3, p=1.0 / 3.0), 9.0, 11.0),
)


def suite_gap_arithmetic() -> dict:
    """Gap predictions against hand arithmetic, and oracle-cost monotonicity
    in the number of allowed centers (the bi-criteria direction)."""
    failures: list[str] = []
    checks = 0
    for kind, args, want_yes, want_no in _GAP_SPOT_CASES:
        pred = predict_gap_graph(**args) if kind == "graph" else predict_gap_hypergraph(**args)
        checks += 1
        if abs(pred.yes_cost - want_yes) > 1e-12 or abs(pred.no_cost_lower - want_no) > 1e-9:
            failures.append(
                f"gap {kind} {sorted(args.items())}: got ({pred.yes_cost!r}, "
                f"{pred.no_cost_lower!r}), want ({want_yes!r}, {want_no!r})"
            )
    for seed in (3, 4):
        g = random_triangle_free(7, 3, seed=seed)
        if not 2 <= g.num_edges <= 10:
            continue
        for objective in ("median", "means"):
            prev = math.inf
            for j in range(1, min(g.num_edges, 6) + 1):
                rep = opt_continuous(reduce_graph(g, k=j, objective=objective))
                checks += 1
                if rep.optimal_cost > prev + 1e-9:
                    failures.append(
                        f"cost not monotone in k on {g.edges} ({objective}, k={j}): "
                        f"{rep.optimal_cost!r} > {prev!r}"
                    )
                prev = rep.optimal_cost
    return _suite("gap_arithmetic_and_monotonicity", checks, failures)


def run_all(max_edges: int = 5, seed: int = 0, trials: int = 12) -> dict:
    """Run every suite at the given scale and aggregate the verdicts."""
    results = [
        suite_closed_forms(),
        suite_decomposition(max_edges),
        suite_extra_cost(max_edges),
        suite_completeness(trials=trials, seed=seed),
        suite_covers(max_edges),
        suite_hypergraph(seed=seed),
        suite_gap_arithmetic(),
    ]
    return {
        "max_edges": max_edges,
        "seed": seed,
        "trials": trials,
        "suites": results,
        "all_passed": all(s["passed"] for s in results),
    }
