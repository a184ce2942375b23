"""Named property suites: the package's checkable claims in one place.

Each suite runs a family of checks against the independent oracles and
returns a plain dict (suitable for JSON) with the number of checks run and
a list of human-readable failure strings — empty on success. Every check
goes through one ``_Ledger``: its predicate states what must hold (so a NaN
fails it) and its failure text is formatted only when it fails. The CLI's
verify-lemmas command and the acceptance tests both call these, so there is
exactly one definition of every claim. The soundness round trip that the
CLI's ``cover`` and ``sweep``, the demo and the tests run is defined here
too, once: ``round_trip``, the oracle's optimal clustering padded by
``pad_blocks``, then ``covers.soundness_assemble``.

The three catalogue suites (decomposition, extra cost, covers) read the
same records: one ``(graph, median cost, median extra cost, means extra
cost)`` tuple per connected triangle-free non-star graph up to
``max_edges`` edges, built by ``_nonstars``. The last records are kept in
``functools.lru_cache``, keyed on ``max_edges``, so a ``run_all`` or a
catalogue pass enumerates the catalogue and solves each median once. They
are an immutable tuple (178 records at 8 edges); a new key frees the old
records only after its own are built, and a build that raises is not
cached. The records hold numbers only: a suite that reads more facts about
a graph wraps it in a ``costs.Block`` for its own pass, so every check on
the graph shares one mask pass and one pair of matchings, and none of them
is kept past the pass.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .costs import (
    MAX_CONTINUOUS_POINTS,
    Block,
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
    CHARGES,
    SoundnessReport,
    cover_budget,
    cover_case_dispatch,
    cover_general,
    cover_matching_two,
    cover_nonstar_means,
    require_triangle_free,
    soundness_assemble,
)
from .decomposition import L_N_SHORTFALL, certify_lower_bound
from .errors import MedcoverError, PreconditionViolated
from .graphs import ClassTag, Graph, is_star, is_vertex_cover
from .oracle import (
    OracleReport,
    enumerate_triangle_free,
    min_vertex_cover,
    opt_continuous,
    opt_discrete,
    random_triangle_free,
)
from .reduction import (
    OBJECTIVES,
    HypergraphInstance,
    predict_gap_graph,
    predict_gap_hypergraph,
    reduce_graph,
    reduce_hypergraph,
    yes_cost,
)


class _Ledger:
    """One suite's checks: how many ran, and the text of each that failed."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.checks = 0
        self.failures: list[str] = []

    def check(self, ok: bool, template: str, *args: object) -> None:
        """Count one check; if ``ok`` is false, record ``template.format(*args)``."""
        self.checks += 1
        if not ok:
            self.failures.append(template.format(*args))

    def result(self) -> dict:
        return {
            "name": self.name,
            "passed": not self.failures,
            "checks": self.checks,
            "failures": self.failures,
        }


def _star(r: int) -> Graph:
    return Graph(r + 1, tuple((0, i) for i in range(1, r + 1)))


def suite_closed_forms() -> dict:
    """Numerical 1-median solver versus every closed form and proven floor:
    stars, regular simplices, lone-edge-plus-star A_n, the shortest two-star
    path L_1, three disjoint edges, and the 5-cycle."""
    ledger = _Ledger("closed_forms")

    def expect(got: float, want: float, label: str, *args: object) -> None:
        ledger.check(abs(got - want) <= 1e-6, label + ": got {!r}, want {!r}", *args, got, want)

    def expect_at_least(got: float, floor: float, label: str) -> None:
        ledger.check(got >= floor - 1e-6, label + ": got {!r}, floor {!r}", got, floor)

    for r in range(2, 9):
        expect(weiszfeld(cluster_points(_star(r))).cost, star_median_cost(r), "star r={}", r)
    for r in range(2, 9):
        pts = [[2.0 / math.sqrt(2.0) if j == i else 0.0 for j in range(r)] for i in range(r)]
        expect(weiszfeld(pts).cost, simplex_median_cost(r, 2.0), "simplex side 2 r={}", r)
    for n in range(1, 7):
        lone = Graph(n + 3, ((0, 1),) + tuple((2, 3 + i) for i in range(n)))
        expect(weiszfeld(cluster_points(lone)).cost, a_n_median_cost(n), "A_{}", n)
    expect_at_least(a_n_median_cost(2), 3.095, "A_2 floor")
    l1 = Graph(4, ((0, 1), (1, 2), (2, 3)))
    expect(weiszfeld(cluster_points(l1)).cost, l1_median_cost(), "L_1")
    expect(l1_median_cost(), 1 + math.sqrt(3.0), "L_1 value")
    p3 = Graph(6, ((0, 1), (2, 3), (4, 5)))
    expect(weiszfeld(cluster_points(p3)).cost, disjoint_edges_median_cost(3), "3 disjoint edges")
    expect(disjoint_edges_median_cost(3), 2 * math.sqrt(3.0), "3-P2 value")
    c5 = Graph(5, ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4)))
    expect_at_least(weiszfeld(cluster_points(c5)).cost, math.sqrt(20.0) + 0.622, "C5 floor")
    return ledger.result()


@functools.lru_cache(maxsize=1)
def _nonstars(max_edges: int) -> tuple[tuple[Graph, float, float, Fraction], ...]:
    """The connected triangle-free non-star graphs up to ``max_edges`` edges,
    each with its ``median_cost``, solved as one ``median_costs`` batch,
    that cost's ``median_extra_cost``, and its exact means extra cost."""
    graphs = [g for g in enumerate_triangle_free(max_edges) if not is_star(g)]
    return tuple(
        (g, cost, median_extra_cost(g, cost, basis).value, extra_cost(g, "means").value)
        for g, (cost, basis) in zip(graphs, median_costs(graphs))
    )


def suite_decomposition(max_edges: int) -> dict:
    """Certified lower bounds bracket the true cost on every connected
    triangle-free non-star graph up to max_edges edges: safe certificates
    sit in [|F|-0.342, true cost]; ultra certificates (non-bridge graphs)
    reach |F|. The true cost is ``median_cost``'s, from ``_nonstars``. The
    bridge test and both modes read one ``Block`` of the graph, so one
    neighbour-mask pass."""
    ledger = _Ledger("decomposition_soundness")
    check = ledger.check
    for g, true_cost, _, _ in _nonstars(max_edges):
        m = g.num_edges
        b = Block(g)
        cert = certify_lower_bound(b, "safe")
        check(cert.bound <= true_cost + 1e-6,
              "safe bound exceeds cost on {}: {!r} > {!r}", g.edges, cert.bound, true_cost)
        check(cert.bound >= m - L_N_SHORTFALL - 1e-12,
              "safe bound below floor on {}: {!r}", g.edges, cert.bound)
        check(abs(cert.bound - sum(v for _, v in cert.derivation)) <= 1e-12,
              "certificate sum mismatch on {}", g.edges)
        if b.bridge is None:
            ultra = certify_lower_bound(b, "ultra_safe")
            check(ultra.bound >= m - 1e-12,
                  "ultra bound below |F| on {}: {!r}", g.edges, ultra.bound)
            check(ultra.bound <= true_cost + 1e-6,
                  "ultra bound exceeds cost on {}: {!r}", g.edges, ultra.bound)
    return ledger.result()


def suite_extra_cost(max_edges: int) -> dict:
    """Extra-cost floors for every enumerated connected non-star graph:
    the numerical median floor 0.158 and the exact rational means floor 2/3.
    Both extra costs are ``_nonstars``'."""
    ledger = _Ledger("extra_cost_floor")
    for g, _, med, mean in _nonstars(max_edges):
        ledger.check(med >= 0.158 - 1e-6,
                     "median extra cost below floor on {}: {!r}", g.edges, med)
        ledger.check(isinstance(mean, Fraction) and mean >= Fraction(2, 3),
                     "means extra cost below 2/3 on {}: {!r}", g.edges, mean)
    return ledger.result()


def suite_means_cover_number(max_edges: int) -> dict:
    """Every cluster's means extra cost pays 2/3 per cover vertex past its
    first: 3D >= r(tau - 1) in integers, with r the edges, D the
    vertex-disjoint edge pairs and tau the cover number (its extra cost is
    2D/r), on every triangle-free graph up to max_edges edges, connected or
    not. ``one_means_cost``'s docstring proves it for every tau.
    The result also lists, as ``tight_non_stars``, the edges of each
    non-star at equality (only P4 up to 8 edges)."""
    ledger = _Ledger("means_extra_cost_per_cover_vertex")
    tight = []
    for g in enumerate_triangle_free(max_edges, include_disconnected=True):
        r, tau = g.num_edges, len(min_vertex_cover(g))
        pairs = sum(e[0] not in f and e[1] not in f for e, f in itertools.combinations(g.edges, 2))
        ledger.check(3 * pairs >= r * (tau - 1),
                     "3D < r(tau - 1) on {}: D = {}, r = {}, tau = {}", g.edges, pairs, r, tau)
        if 3 * pairs == r * (tau - 1) and not is_star(g):
            tight.append([list(e) for e in g.edges])
    return {**ledger.result(), "tight_non_stars": tight}


def completeness_instances(trials: int, seed: int) -> list[Graph]:
    """Deterministic stream of desk-scale random triangle-free graphs whose
    reductions fit the continuous oracle (``MAX_CONTINUOUS_POINTS`` edges)."""
    grid = [(6, 3), (7, 3), (8, 3), (6, 4), (7, 4), (10, 2), (9, 2), (8, 2)]
    out: list[Graph] = []
    i = 0
    while len(out) < trials:
        n, d = grid[i % len(grid)]
        g = random_triangle_free(n, d, seed=seed * 1000 + i)
        i += 1
        if 2 <= g.num_edges <= MAX_CONTINUOUS_POINTS:
            out.append(g)
    return out


def median_complete(cost: float, m: int, k: int) -> bool:
    """Median completeness: a graph with m edges and a vertex cover of size k
    clusters at cost <= m - k/2 (up to Weiszfeld's tolerance)."""
    return cost <= yes_cost(m, k, "median") + 1e-6


def means_complete(cost: float, m: int, k: int) -> bool:
    """Means completeness: a graph with m edges and a vertex cover of size k
    clusters at cost <= m - k. The oracle's block costs are exact rationals
    rounded once to a float, but its DP adds those floats, so an optimum may
    sit an ulp or so off the exact value: the check allows 1e-9."""
    return cost <= yes_cost(m, k, "means") + 1e-9


def cover_le_2k(size: int, k: int, delta: float) -> bool:
    """Soundness budget: a cover extracted from a clustering for a graph with
    a vertex cover of size k has at most ``covers.cover_budget``,
    2k - 2*delta*k, vertices (up to 1e-9)."""
    return size <= cover_budget(k, delta) + 1e-9


def cover_le_ceiling(size: int, ceiling: float) -> bool:
    """The soundness ledger's prediction: an extracted cover has at most
    ``ceiling``, the report's ``predicted_ceiling``, vertices (up to 1e-9,
    as ``cover_le_2k``)."""
    return size <= ceiling + 1e-9


def monotone_in_centers(more: float, fewer: float) -> bool:
    """More centers never cost more: ``more``, an optimal cost with more
    centers, is at most ``fewer``, one with fewer (up to 1e-9)."""
    return more <= fewer + 1e-9


def pad_blocks(blocks: list[list[int]], want: int) -> list[list[int]]:
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


def round_trip(
    g: Graph, k: int, blocks_needed: int, objective: str, beta: float, delta: float
) -> tuple[OracleReport, SoundnessReport]:
    """The soundness round trip of ``cover``, ``sweep`` and the demo: the
    oracle's optimal clustering at ``blocks_needed`` blocks, padded by
    ``pad_blocks`` to exactly that many, then ``soundness_assemble`` at
    budget k, all with the given objective, beta and delta. A graph with a
    triangle is refused before the reduction and the solve, by the triangle
    test of the ``Block`` that ``soundness_assemble`` then reads."""
    whole = Block(g)
    require_triangle_free(whole)
    oracle = opt_continuous(reduce_graph(g, k=blocks_needed, objective=objective))
    blocks = pad_blocks([list(b) for b in oracle.partition], blocks_needed)
    return oracle, soundness_assemble(whole, blocks, k=k, beta=beta, objective=objective, delta=delta)


def suite_completeness(trials: int, seed: int) -> dict:
    """Completeness direction of the reductions: a graph with a vertex cover
    of size k clusters at cost <= m - k/2 (median) and <= m - k (means); the
    exhaustive oracle must confirm this with k = the true minimum cover."""
    ledger = _Ledger("completeness")
    for g in completeness_instances(trials, seed):
        k = len(min_vertex_cover(g))
        m = g.num_edges
        for objective, complete in (("median", median_complete), ("means", means_complete)):
            cost = opt_continuous(reduce_graph(g, k=k, objective=objective)).optimal_cost
            ledger.check(complete(cost, m, k), "{} completeness fails on {}: {!r} > {!r}",
                         objective, g.edges, cost, yes_cost(m, k, objective))
    return ledger.result()


def suite_covers(max_edges: int) -> dict:
    """Constructive covers across the enumeration: always valid vertex
    covers, matching-2 covers as small as the true minimum (2, or 3 on the
    5-cycle), general covers within |M|+|L|-1, case dispatch within its
    ``covers.CHARGES`` row, DISPATCH_CHARGE + (sqrt2+1)*delta, and means
    covers within theirs, 1 + MEANS_SLOPE*delta, exactly. Both deltas are
    the extra costs from ``_nonstars``. Every construction and claim on a
    graph reads one ``Block`` of it, so each graph is matched, M and L,
    once. Every construction is checked one way, by ``construction``."""
    ledger = _Ledger("cover_extraction")
    check = ledger.check

    def construction(label: str, claim, build, b: Block) -> None:
        """First that ``build(b)`` returns a vertex cover of b's graph, then
        the construction's own claim on its size, ``claim(size)``, an (ok,
        template, *args) for ``check``. A construction that raises fails
        both checks."""
        try:
            res = build(b)
        except MedcoverError as ex:
            for what in ("cover", "size bound"):
                check(False, "{} construction failed on {} ({}): {}", label, b.edges, what, ex)
            return
        check(is_vertex_cover(b.graph, res.cover), "{} non-cover on {}", label, b.edges)
        check(*claim(len(res.cover)))

    for g, _, extra, means_extra in _nonstars(max_edges):
        b = Block(g)
        m, l = b.matching, b.second_matching

        def least(size):
            want = len(min_vertex_cover(g))
            expected = 3 if b.cls.tag is ClassTag.C5 else 2
            return (size == expected == want,
                    "matching-2 size on {}: got {}, construction {}, minimum {}",
                    g.edges, size, expected, want)

        def general(size):
            return (size <= len(m) + len(l) - 1,
                    "general size bound fails on {}: {}", g.edges, size)

        def dispatched(size):
            lim = CHARGES["median", "dispatch"].of(extra)
            return (size <= lim + 1e-6, "dispatch bound fails on {}: {} > {!r}", g.edges, size, lim)

        def means(size):
            lim = CHARGES["means", "means"].of(means_extra)
            return (size <= lim, "means bound fails on {}: {} > {}", g.edges, size, lim)

        if len(m) == 2:
            construction("matching-2", least, cover_matching_two, b)
        if len(l) >= 1:
            construction("general", general, cover_general, b)
        if len(m) >= 3:
            construction("dispatch", dispatched, cover_case_dispatch, b)
        construction("means", means, cover_nonstar_means, b)
    return ledger.result()


def _hypergraph_cases(seed: int) -> list[HypergraphInstance]:
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
            k = rng.randint(1, mv - 1)
            cases.append(HypergraphInstance(d=d, num_vertices=mv, hyperedges=edges, k=k))
    return cases


def suite_hypergraph(seed: int) -> dict:
    """Hypergraph reduction geometry and optimum: every point-center pair
    sits at squared distance d-1 (vertex on the hyperedge) or d+1 (off it),
    and the discrete oracle equals (d-1)(N-q) + (d+1)q with q from
    exhaustive cover search."""
    ledger = _Ledger("hypergraph_reduction")
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
                ledger.check(sq == want, "distance wrong (d={}, edge {}, vertex {}): {} != {}",
                             d, e, v, sq, want)
        q = min(
            sum(1 for e in h.hyperedges if not (set(s) & set(e)))
            for s in itertools.combinations(range(h.num_vertices), h.k)
        )
        want_cost = (d - 1) * (len(h.hyperedges) - q) + (d + 1) * q
        cost = opt_discrete(inst).optimal_cost
        ledger.check(abs(cost - want_cost) <= 1e-9,
                     "discrete optimum (d={}, N={}, k={}): {!r} != {}",
                     d, len(h.hyperedges), h.k, cost, want_cost)
    return ledger.result()


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
    ledger = _Ledger("gap_arithmetic_and_monotonicity")
    for kind, args, want_yes, want_no in _GAP_SPOT_CASES:
        pred = predict_gap_graph(**args) if kind == "graph" else predict_gap_hypergraph(**args)
        ledger.check(
            abs(pred.yes_cost - want_yes) <= 1e-12 and abs(pred.no_cost_lower - want_no) <= 1e-9,
            "gap {} {}: got ({!r}, {!r}), want ({!r}, {!r})", kind, sorted(args.items()),
            pred.yes_cost, pred.no_cost_lower, want_yes, want_no,
        )
    for seed in (3, 4):
        g = random_triangle_free(7, 3, seed=seed)
        for objective in OBJECTIVES:
            prev = math.inf
            for j in range(1, min(g.num_edges, 6) + 1):
                cost = opt_continuous(reduce_graph(g, k=j, objective=objective)).optimal_cost
                ledger.check(monotone_in_centers(cost, prev),
                             "cost not monotone in k on {} ({}, k={}): {!r} > {!r}",
                             g.edges, objective, j, cost, prev)
                prev = cost
    return ledger.result()


def run_all(max_edges: int, seed: int, trials: int) -> dict:
    """Run every suite at the given scale and aggregate the verdicts."""
    results = [
        suite_closed_forms(),
        suite_decomposition(max_edges),
        suite_extra_cost(max_edges),
        suite_means_cover_number(max_edges),
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
