"""The three benchmark workloads: seeded inputs, the calls each item makes
into medcover, and the checks on every output.

A workload's input set is fixed: the same graphs on every run. The run seed
relabels their vertices (and draws the catalogue's hypergraphs), so every
seed does the same oracle work while the point order, and with it float
rounding and DP tie-breaks, changes. Items are closed loop with one caller:
the next item starts when the previous one returns.

Layer functions are always looked up through their module (``oracle.opt_continuous``
rather than a name imported into this file), so the tracer's wrappers see
the benchmark's calls as well as the library's internal ones.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable

from medcover import covers, graphs, oracle, reduction, suites
from medcover.cli import _pad_blocks  # the padding `sweep` applies before cover extraction
from medcover.graphs import Graph

# completeness: the first graphs of the gate-4 stream
# ``suites.completeness_instances(N, 0)``; see README.md for what they hold.
COMPLETENESS_GRAPHS = 8
# ladder: the first graphs of the stream ``random_triangle_free(7, 3, seed=i)``.
LADDER_GRAPHS = 2
LADDER_TOP = 6
CATALOGUE_EDGES = 8
# Pinned references for the catalogue: connected triangle-free graphs up to
# 7 and 8 edges, all triangle-free graphs up to 4 edges, and the suites'
# check counts at the 8-edge budget (fewer checks means graphs went missing).
CONNECTED_UP_TO = {7: 76, 8: 186}
ALL_UP_TO_4_BY_EDGES = {1: 1, 2: 2, 3: 4, 4: 9}
SUITE_MIN_CHECKS = {
    "decomposition_soundness": 866,
    "extra_cost_floor": 356,
    "cover_extraction": 1068,
}
HYPER_VERTICES = 16
HYPER_K = 6
HYPER_PLANTED_PER_D = 6
HYPER_PLANTED_EDGES = 12

# Warm-up item with a pinned optimum: at k = 4 the best clustering is a
# 3-edge star, a 2-edge star and two single edges.
WARMUP_GRAPH = Graph(8, ((0, 1), (0, 2), (0, 3), (1, 4), (2, 7), (4, 5), (5, 6)))
WARMUP_K = 4
WARMUP_MEDIAN = math.sqrt(6.0) + math.sqrt(2.0)
WARMUP_MEANS = 3.0


class Checks:
    """Counts checks attempted and keeps a line for each one that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass
class InputSet:
    """A workload's items, in order, and the number of items it was asked for."""

    items: list[tuple[str, Callable[[Checks, object], None]]] = field(default_factory=list)
    requested: int = 0


# ---------------------------------------------------------------------------
# Shared checks
# ---------------------------------------------------------------------------

def _check_partition(chk: Checks, rep, n: int, k: int, label: str) -> None:
    seen = [i for block in rep.partition for i in block]
    chk.expect(
        sorted(seen) == list(range(n)) and 1 <= len(rep.partition) <= k
        and all(rep.partition),
        f"{label}: partition {rep.partition} is not a split of {n} points into <= {k} blocks",
    )


def _median_checks(chk: Checks, g: Graph, inst, rep, cover: set[int], label: str) -> None:
    """The reported cost must match its own partition and centers, sit at or
    above the star floor of its block sizes, and at or below the star
    clustering that assigns each edge to a cover vertex."""
    recomputed = sum(
        math.dist(inst.points[i], center)
        for block, center in zip(rep.partition, rep.centers)
        for i in block
    )
    chk.expect(
        abs(recomputed - rep.optimal_cost) <= 1e-9,
        f"{label}: median cost {rep.optimal_cost!r} != partition cost {recomputed!r}",
    )
    floor = sum(math.sqrt(len(b) * (len(b) - 1)) for b in rep.partition)
    chk.expect(
        rep.optimal_cost >= floor - 1e-9,
        f"{label}: median cost {rep.optimal_cost!r} below star floor {floor!r}",
    )
    if len(cover) <= inst.k:
        star = _star_clustering_cost(g, cover)
        chk.expect(
            rep.optimal_cost <= star + 1e-9,
            f"{label}: median cost {rep.optimal_cost!r} above a star clustering {star!r}",
        )


def _star_clustering_cost(g: Graph, cover: set[int]) -> float:
    sizes: dict[int, int] = {}
    for u, v in g.edges:
        c = min(x for x in (u, v) if x in cover)
        sizes[c] = sizes.get(c, 0) + 1
    return sum(math.sqrt(r * (r - 1)) for r in sizes.values())


def _means_checks(chk: Checks, rep, m: int, j: int, cover_size: int, label: str) -> None:
    """Exact means reference: every r-edge cluster costs at least r - 1 (a
    star), and j >= min cover blocks of stars reach m - j exactly."""
    if j >= cover_size:
        chk.expect(
            rep.optimal_cost == m - j,
            f"{label}: means optimum {rep.optimal_cost!r} != {m - j}",
        )
    else:
        chk.expect(
            rep.optimal_cost > m - j,
            f"{label}: means optimum {rep.optimal_cost!r} <= {m - j} below the cover number",
        )


def _relabelled(source: list[Graph], seed: int) -> list[Graph]:
    rng = random.Random(seed)
    out = []
    for g in source:
        perm = rng.sample(range(g.num_vertices), g.num_vertices)
        out.append(graphs.make_graph(g.num_vertices, sorted(
            (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in g.edges
        )))
    return out


def warmup(chk: Checks, tr) -> None:
    """One cache-cold completeness item on a graph with pinned optima."""
    g = WARMUP_GRAPH
    cover = oracle.min_vertex_cover(g)
    med = oracle.opt_continuous(reduction.reduce_graph(g, k=WARMUP_K, objective="median"))
    mea = oracle.opt_continuous(reduction.reduce_graph(g, k=WARMUP_K, objective="means"))
    with tr.span("bench.checks"):
        chk.expect(len(cover) == WARMUP_K, f"warm-up cover {sorted(cover)} is not of size {WARMUP_K}")
        chk.expect(
            abs(med.optimal_cost - WARMUP_MEDIAN) <= 1e-9,
            f"warm-up median optimum {med.optimal_cost!r} != {WARMUP_MEDIAN!r}",
        )
        chk.expect(
            mea.optimal_cost == WARMUP_MEANS,
            f"warm-up means optimum {mea.optimal_cost!r} != {WARMUP_MEANS!r}",
        )


# ---------------------------------------------------------------------------
# completeness
# ---------------------------------------------------------------------------

def completeness_inputs(seed: int) -> InputSet:
    graphs_ = _relabelled(suites.completeness_instances(COMPLETENESS_GRAPHS, 0), seed)
    out = InputSet(requested=2 * COMPLETENESS_GRAPHS)
    for g in graphs_:
        state: dict = {}
        for objective in ("median", "means"):
            out.items.append((f"{objective} {g.edges}", _completeness_item(g, objective, state)))
    return out


def _completeness_item(g: Graph, objective: str, state: dict):
    def run(chk: Checks, tr) -> None:
        if "cover" not in state:
            state["cover"] = oracle.min_vertex_cover(g)
        cover = state["cover"]
        k = len(cover)
        m = g.num_edges
        inst = reduction.reduce_graph(g, k=k, objective=objective)
        rep = oracle.opt_continuous(inst)
        with tr.span("bench.checks"):
            label = f"completeness {objective} {g.edges}"
            chk.expect(graphs.is_vertex_cover(g, cover), f"{label}: {sorted(cover)} is not a cover")
            _check_partition(chk, rep, m, k, label)
            if objective == "median":
                chk.expect(
                    rep.optimal_cost <= m - k / 2 + 1e-6,
                    f"{label}: {rep.optimal_cost!r} > {m - k / 2!r}",
                )
                _median_checks(chk, g, inst, rep, cover, label)
            else:
                chk.expect(
                    rep.optimal_cost <= m - k + 1e-9,
                    f"{label}: {rep.optimal_cost!r} > {m - k!r}",
                )
                _means_checks(chk, rep, m, k, k, label)

    return run


# ---------------------------------------------------------------------------
# ladder
# ---------------------------------------------------------------------------

def ladder_inputs(seed: int) -> InputSet:
    graphs_ = _relabelled(
        [oracle.random_triangle_free(7, 3, seed=i) for i in range(LADDER_GRAPHS)], seed
    )
    out = InputSet(requested=2 * LADDER_TOP * LADDER_GRAPHS)
    for g in graphs_:
        state: dict = {}
        for objective in ("median", "means"):
            for j in range(1, LADDER_TOP + 1):
                out.items.append((f"{objective} k={j} {g.edges}", _rung(g, objective, j, state)))
    return out


def _rung(g: Graph, objective: str, j: int, state: dict):
    def run(chk: Checks, tr) -> None:
        if "cover" not in state:
            state["cover"] = oracle.min_vertex_cover(g)
        cover = state["cover"]
        k = len(cover)
        m = g.num_edges
        inst = reduction.reduce_graph(g, k=j, objective=objective)
        rep = oracle.opt_continuous(inst)
        report = None
        if j == k:
            blocks = _pad_blocks([list(b) for b in rep.partition], k)
            report = covers.soundness_assemble(
                g, blocks, k=k, beta=1.0, objective=objective, delta=0.01
            )
        with tr.span("bench.checks"):
            label = f"ladder {objective} k={j} {g.edges}"
            prev = state.get(objective, math.inf)
            chk.expect(
                rep.optimal_cost <= prev + 1e-9,
                f"{label}: cost {rep.optimal_cost!r} rose above k={j - 1} cost {prev!r}",
            )
            state[objective] = rep.optimal_cost
            _check_partition(chk, rep, m, j, label)
            if objective == "median":
                _median_checks(chk, g, inst, rep, cover, label)
            else:
                _means_checks(chk, rep, m, j, k, label)
            if report is not None:
                chk.expect(
                    graphs.is_vertex_cover(g, report.cover)
                    and len(report.cover) == report.total_cover_size,
                    f"{label}: extracted cover {sorted(report.cover)} is invalid",
                )
                chk.expect(
                    report.total_cover_size <= 2 * k,
                    f"{label}: extracted cover of {report.total_cover_size} exceeds 2k = {2 * k}",
                )

    return run


# ---------------------------------------------------------------------------
# catalogue
# ---------------------------------------------------------------------------

def _hyper_cases(seed: int) -> list[tuple[object, float]]:
    """Restricted-center instances for d = 2, 3, 4 whose optima follow from
    their construction. Each point costs at least d - 1 (a center on its
    hyperedge) and d + 1 otherwise, so:

    - planted: every hyperedge meets a fixed k-set, optimum (d - 1) N;
    - disjoint: N pairwise disjoint hyperedges and k = N - 1; each center
      meets at most one of them, optimum (d - 1) N + 2.
    """
    rng = random.Random(seed * 7_919)
    v = HYPER_VERTICES
    cases = []
    for d in (2, 3, 4):
        for _ in range(HYPER_PLANTED_PER_D):
            planted = rng.sample(range(v), HYPER_K)
            edges: set[tuple[int, ...]] = set()
            while len(edges) < HYPER_PLANTED_EDGES:
                s = rng.choice(planted)
                others = rng.sample([u for u in range(v) if u != s], d - 1)
                edges.add(tuple(sorted([s] + others)))
            h = reduction.HypergraphInstance(d, v, tuple(sorted(edges)), HYPER_K)
            cases.append((h, float((d - 1) * len(edges))))
        order = rng.sample(range(v), v)
        n = min(HYPER_K + 1, v // d)
        disjoint = tuple(sorted(tuple(sorted(order[i * d:(i + 1) * d])) for i in range(n)))
        h = reduction.HypergraphInstance(d, v, disjoint, n - 1)
        cases.append((h, float((d - 1) * n + 2)))
    return cases


def catalogue_inputs(seed: int) -> InputSet:
    out = InputSet()
    for name, fn in (
        ("decomposition_soundness", "suite_decomposition"),
        ("extra_cost_floor", "suite_extra_cost"),
        ("cover_extraction", "suite_covers"),
    ):
        out.items.append((f"suite {name}", _suite_item(name, fn)))
    out.items.append(("enumerate 4 edges with disconnected", _enumerate_item))
    for h, want in _hyper_cases(seed):
        out.items.append((f"opt_discrete d={h.d} k={h.k} {h.hyperedges}", _discrete_item(h, want)))
    out.requested = len(out.items)
    return out


def _suite_item(name: str, fn_name: str):
    def run(chk: Checks, tr) -> None:
        result = getattr(suites, fn_name)(CATALOGUE_EDGES)
        with tr.span("bench.checks"):
            chk.expect(result["name"] == name, f"suite {fn_name} reported as {result['name']}")
            chk.expect(
                result["checks"] >= SUITE_MIN_CHECKS[name],
                f"suite {name}: {result['checks']} checks, expected {SUITE_MIN_CHECKS[name]}",
            )
            chk.attempted += result["checks"]
            chk.failures.extend(f"suite {name}: {f}" for f in result["failures"])
            chk.expect(result["passed"] == (not result["failures"]), f"suite {name}: verdict mismatch")

    return run


def _enumerate_item(chk: Checks, tr) -> None:
    found = list(oracle.enumerate_triangle_free(4, include_disconnected=True))
    with tr.span("bench.checks"):
        by_edges: dict[int, int] = {}
        for g in found:
            by_edges[g.num_edges] = by_edges.get(g.num_edges, 0) + 1
        chk.expect(
            by_edges == ALL_UP_TO_4_BY_EDGES,
            f"triangle-free graphs up to 4 edges by edge count: {by_edges}",
        )


def _discrete_item(h, want: float):
    def run(chk: Checks, tr) -> None:
        rep = oracle.opt_discrete(reduction.reduce_hypergraph(h))
        with tr.span("bench.checks"):
            chk.expect(
                rep.optimal_cost == want,
                f"opt_discrete d={h.d} k={h.k}: {rep.optimal_cost!r} != {want!r}",
            )

    return run


def catalogue_warmup(chk: Checks, tr) -> None:
    """Enumerate the connected catalogue once and pin its sizes."""
    sizes = [g.num_edges for g in oracle.enumerate_triangle_free(CATALOGUE_EDGES)]
    for edges, count in CONNECTED_UP_TO.items():
        got = sum(1 for m in sizes if m <= edges)
        chk.expect(got == count, f"{got} connected graphs up to {edges} edges, expected {count}")


WORKLOADS = {
    "completeness": (completeness_inputs, warmup),
    "ladder": (ladder_inputs, warmup),
    "catalogue": (catalogue_inputs, catalogue_warmup),
}
