"""Closed-form costs, the Weiszfeld solver, and exact means arithmetic.

The closed forms and the iterative solver are independent implementations of
the same quantity, so agreement between them is a real check, not a tautology.
"""

import hashlib
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medcover import costs, covers, decomposition, graphs
from medcover.costs import (
    a_n_median_cost,
    closed_form_median_cost,
    cluster_points,
    disjoint_edges_median_cost,
    extra_cost,
    l1_median_cost,
    median_cost,
    median_costs,
    one_means_cost,
    simplex_median_cost,
    star_median_cost,
    weiszfeld,
    weiszfeld_subsets,
)
from medcover.errors import DomainError, NotConverged, PreconditionViolated
from medcover.graphs import common_vertex, graph_from_edges, maximum_matching, remove_edges
from medcover.oracle import enumerate_triangle_free, min_vertex_cover, random_triangle_free
from medcover.reduction import reduce_graph
from medcover.suites import completeness_instances

C5 = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]


def star(r):
    return graph_from_edges([(0, i) for i in range(1, r + 1)])


def disjoint(r):
    return graph_from_edges([(2 * i, 2 * i + 1) for i in range(r)])


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def test_star_cost_literals():
    assert star_median_cost(2) == pytest.approx(math.sqrt(2), abs=1e-15)
    assert star_median_cost(5) == pytest.approx(math.sqrt(20), abs=1e-15)
    # a star's points form a regular simplex of side sqrt(2)
    for r in range(2, 9):
        assert star_median_cost(r) == pytest.approx(
            simplex_median_cost(r, math.sqrt(2)), abs=1e-12
        )


def test_disjoint_edges_literals():
    assert disjoint_edges_median_cost(2) == pytest.approx(2.0, abs=1e-15)
    assert disjoint_edges_median_cost(3) == pytest.approx(math.sqrt(12), abs=1e-15)


def test_a_n_literals():
    # one lone edge plus an n-star: n=1 degenerates to two disjoint edges
    assert a_n_median_cost(1) == pytest.approx(2.0, abs=1e-12)
    assert a_n_median_cost(2) == pytest.approx(3.0955735647785594, abs=1e-12)


def test_l1_literal():
    assert l1_median_cost() == pytest.approx(1 + math.sqrt(3), abs=1e-15)


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_closed_forms_match_weiszfeld_on_stars(r):
    sol = weiszfeld(cluster_points(star(r)))
    assert sol.converged
    assert sol.cost == pytest.approx(star_median_cost(r), abs=1e-6)


@pytest.mark.parametrize("r", [2, 3, 4])
def test_closed_forms_match_weiszfeld_on_disjoint_edges(r):
    sol = weiszfeld(cluster_points(disjoint(r)))
    assert sol.cost == pytest.approx(disjoint_edges_median_cost(r), abs=1e-6)


def test_closed_form_dispatcher():
    assert closed_form_median_cost(star(4)) == pytest.approx(math.sqrt(12))
    assert closed_form_median_cost(graph_from_edges(C5)) is None
    p4 = graph_from_edges([(0, 1), (1, 2), (2, 3)])
    assert closed_form_median_cost(p4) == pytest.approx(1 + math.sqrt(3))


def test_median_cost_reports_its_basis():
    cost, basis = median_cost(star(3))
    assert basis == "exact_closed_form"
    assert cost == pytest.approx(math.sqrt(6))
    cost, basis = median_cost(graph_from_edges(C5))
    assert basis == "numerical_upper"
    assert cost == pytest.approx(math.sqrt(30), abs=1e-9)


# ---------------------------------------------------------------------------
# Weiszfeld edge cases
# ---------------------------------------------------------------------------

def test_weiszfeld_median_on_a_data_point():
    # for collinear points the median is the middle point itself; the solver
    # must survive landing on it
    pts = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
    sol = weiszfeld(pts)
    assert sol.converged
    assert sol.cost == pytest.approx(2.0, abs=1e-9)
    assert sol.center[0] == pytest.approx(1.0, abs=1e-6)


def test_weiszfeld_single_and_pair():
    sol = weiszfeld([(3.0, 4.0)])
    assert sol.cost == 0.0
    sol = weiszfeld([(0.0, 0.0), (2.0, 0.0)])
    assert sol.cost == pytest.approx(2.0, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_weiszfeld_beats_every_data_point(seed):
    rng = random.Random(seed)
    pts = [(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(rng.randint(3, 7))]
    sol = weiszfeld(pts)
    arr = np.asarray(pts)
    for p in arr:
        at_p = float(np.linalg.norm(arr - p, axis=1).sum())
        assert sol.cost <= at_p + 1e-9


# ---------------------------------------------------------------------------
# Means costs are exact rationals
# ---------------------------------------------------------------------------

def test_one_means_star_is_r_minus_one():
    for r in range(1, 8):
        assert one_means_cost(star(r)) == Fraction(r - 1)


def test_one_means_disjoint_pair():
    assert one_means_cost(disjoint(2)) == Fraction(2)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_one_means_matches_numpy_centroid(seed):
    rng = random.Random(seed)
    edges = {tuple(sorted(rng.sample(range(7), 2))) for _ in range(rng.randint(1, 8))}
    g = graph_from_edges(sorted(edges))
    pts = np.asarray(cluster_points(g))
    sse = float(((pts - pts.mean(axis=0)) ** 2).sum())
    assert float(one_means_cost(g)) == pytest.approx(sse, abs=1e-9)


def test_one_means_is_the_exact_squared_distance_to_the_centroid():
    # Fraction arithmetic on the embedded points, triangles included
    rng = random.Random(11)
    for _ in range(120):
        n = rng.randint(2, 8)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        if not edges:
            continue
        rng.shuffle(edges)
        g = graph_from_edges(edges)
        pts = [[Fraction(int(x)) for x in row] for row in cluster_points(g)]
        centroid = [sum(col) / len(pts) for col in zip(*pts)]
        sse = sum((x - c) ** 2 for row in pts for x, c in zip(row, centroid))
        assert one_means_cost(g) == sse and isinstance(one_means_cost(g), Fraction), edges


# ---------------------------------------------------------------------------
# Extra cost above the star baseline
# ---------------------------------------------------------------------------

def test_extra_cost_median_known_classes():
    p4 = graph_from_edges([(0, 1), (1, 2), (2, 3)])
    e = extra_cost(p4, "median")
    assert e.value == pytest.approx(1 + math.sqrt(3) - math.sqrt(6), abs=1e-9)
    e5 = extra_cost(graph_from_edges(C5), "median")
    assert e5.value == pytest.approx(math.sqrt(30) - math.sqrt(20), abs=1e-6)
    assert e5.value >= 0.158


def test_extra_cost_means_is_exact():
    p4 = graph_from_edges([(0, 1), (1, 2), (2, 3)])
    e = extra_cost(p4, "means")
    assert e.value == Fraction(2, 3)
    e2 = extra_cost(disjoint(2), "means")
    assert e2.value == Fraction(1)


def _disjoint_edge_pairs(g):
    return sum(not set(e) & set(f) for e, f in itertools.combinations(g.edges, 2))


def test_means_extra_cost_is_twice_the_disjoint_pairs_over_r():
    # the two facts of ``one_means_cost``'s docstring, as exact Fractions
    graphs = [*enumerate_triangle_free(8), *enumerate_triangle_free(8, include_disconnected=True)]
    assert len(graphs) == 638
    rng = random.Random(31)
    for seed in range(300):
        graphs.append(random_triangle_free(rng.randint(2, 12), rng.randint(1, 4), seed=seed))
    non_stars = 0
    for g in graphs:
        r, pairs = g.num_edges, _disjoint_edge_pairs(g)
        assert extra_cost(g, "means").value == Fraction(2 * pairs, r), g.edges
        if common_vertex(g.edges) is None:
            non_stars += 1
            assert 2 * pairs >= r - 1, g.edges
        else:
            assert pairs == 0, g.edges
    assert non_stars > 800


def test_disjoint_pairs_bound_the_cover_number():
    # 3D >= r(tau - 1) in integers, ``one_means_cost``'s bound per cover
    # number, on every triangle-free graph up to 8 edges, connected or not;
    # the two steps of its tau = 3 proof are checked below
    graphs = list(enumerate_triangle_free(8, include_disconnected=True))
    assert len(graphs) == 452
    tight, least_at_three = [], None
    for g in graphs:
        r, pairs, tau = g.num_edges, _disjoint_edge_pairs(g), len(min_vertex_cover(g))
        assert 3 * pairs >= r * (tau - 1), g.edges
        if 3 * pairs == r * (tau - 1) and common_vertex(g.edges) is None:
            tight.append(g.edges)
        if tau == 3:
            ratio = Fraction(2 * pairs, r)
            least_at_three = ratio if least_at_three is None else min(least_at_three, ratio)
    assert tight == [((0, 1), (0, 2), (1, 3))]  # P4, the only non-star at equality
    assert least_at_three == 2


def _holds_c5(g):
    # five edges on five vertices, each of degree two, are a 5-cycle: two
    # vertex-disjoint cycles would need a cycle of at most two vertices
    for five in itertools.combinations(g.edges, 5):
        ends = [v for e in five for v in e]
        if len(set(ends)) == 5 and all(ends.count(v) == 2 for v in ends):
            return True
    return False


def test_the_cover_number_three_proof_on_its_bases_and_the_catalogue():
    # ``one_means_cost``'s tau = 3 case: the bases C5 and 3K2 meet
    # 3D >= r(tau - 1); every triangle-free graph with tau = 3 holds one of
    # them; and an edge whose deletion keeps tau = 3, the edge the step
    # adds, misses at least tau - 2 = 1 other edge
    for edges, want in ((C5, (5, 5, 3)), ([(0, 1), (2, 3), (4, 5)], (3, 3, 3))):
        g = graph_from_edges(edges)
        r, pairs, tau = g.num_edges, _disjoint_edge_pairs(g), len(min_vertex_cover(g))
        assert (r, pairs, tau) == want
        assert 3 * pairs >= r * (tau - 1)
    at_three = steps = 0
    for g in enumerate_triangle_free(8, include_disconnected=True):
        if len(min_vertex_cover(g)) != 3:
            continue
        at_three += 1
        assert len(maximum_matching(g)) >= 3 or _holds_c5(g), g.edges
        for e in g.edges:
            if len(min_vertex_cover(remove_edges(g, [e]))) == 3:
                steps += 1
                assert any(not set(e) & set(f) for f in g.edges), (g.edges, e)
    assert (at_three, steps) == (160, 1020)


def test_extra_cost_rejects_an_unknown_objective():
    with pytest.raises(ValueError, match=r"^objective must be one of \('median', 'means'\)$"):
        extra_cost(graph_from_edges([(0, 1), (1, 2), (2, 3)]), "mean")


# ---------------------------------------------------------------------------
# Blocks: each fact about a cluster found once
# ---------------------------------------------------------------------------

P7 = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]


def _calls(monkeypatch, name, modules):
    """Record the argument of every call of the graphs function ``name``,
    as bound in each of ``modules``."""
    seen = []
    real = getattr(graphs, name)

    def counted(g):
        seen.append(g)
        return real(g)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return seen


def test_a_block_finds_each_fact_once_however_many_read_it(monkeypatch):
    # P7: |M| = 3 and |L| = 3, so the dispatch takes a Koenig row and
    # searches no residue; every construction, both decompositions and the
    # means extra cost read one Block, each twice
    g = graph_from_edges(P7)
    b = costs.Block(g)
    searched = _calls(monkeypatch, "maximum_matching", (graphs, costs, covers))
    masked = _calls(monkeypatch, "neighbour_masks", (graphs, costs))
    classified = []
    monkeypatch.setattr(costs, "classify_from_masks",
                        lambda nbrs, edges: classified.append(edges) or graphs.classify_from_masks(nbrs, edges))
    for _ in range(2):
        with pytest.raises(PreconditionViolated, match="need exactly 2"):
            covers.cover_matching_two(b)
        covers.cover_general(b)
        covers.cover_case_dispatch(b)
        covers.cover_nonstar_means(b)
        decomposition.decompose(b, "safe")
        decomposition.decompose(b, "ultra_safe")
        decomposition.find_safe_pair(b, "safe")
        extra_cost(b, "means")
        facts = (b.nbrs, b.degrees, b.triangle_free, b.center, b.bridge, b.cls,
                 b.matching, b.second_matching, b.means_extra)
    assert [h.edges for h in searched] == [g.edges, g.edges[1::2]]  # M, then L on g less M
    assert classified == [g.edges]  # on the Block's own masks
    # the Block's one pass, which its class reads too
    assert [h for h in masked if h == g] == [g]
    assert facts[3:5] == (None, None) and facts[2] is True
    assert facts[-1] == extra_cost(g, "means").value == Fraction(2 * 10, 6)


def test_blocks_of_equal_graphs_compare_equal():
    g = graph_from_edges(C5)
    used, fresh = costs.Block(g), costs.Block(graph_from_edges(C5))
    assert used.matching and used.means_extra  # facts kept on one side only
    assert used == fresh and hash(used) == hash(fresh)
    assert used != costs.Block(graph_from_edges(P7))
    assert costs.as_block(used) is used and costs.as_block(g) == used


# ---------------------------------------------------------------------------
# Differential references for the Weiszfeld loops
# ---------------------------------------------------------------------------

def _weiszfeld_two_norm(points, tolerance=1e-12, max_iter=100_000):
    """Reference: ``weiszfeld`` measuring the distances to each new iterate
    twice, once for its cost and again as the next iteration's weights."""
    pts = np.asarray(points, dtype=float)

    def total_cost(y):
        return float(np.linalg.norm(pts - y, axis=1).sum())

    y = pts.mean(axis=0)
    if pts.shape[0] == 1:
        return tuple(float(v) for v in y), 0.0, 0, True
    prev_cost = total_cost(y)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        dist = np.linalg.norm(pts - y, axis=1)
        on_point = dist < costs._SNAP
        if on_point.any():
            away = pts[~on_point]
            if away.shape[0] == 0:
                converged = True
                break
            d_away = np.linalg.norm(away - y, axis=1)
            r_vec = ((away - y) / d_away[:, None]).sum(axis=0)
            r_norm = float(np.linalg.norm(r_vec))
            multiplicity = int(on_point.sum())
            if r_norm <= multiplicity:
                converged = True
                break
            lipschitz = float((1.0 / d_away).sum())
            y_next = y + (r_norm - multiplicity) / lipschitz * (r_vec / r_norm)
        else:
            w = 1.0 / dist
            y_next = (pts * w[:, None]).sum(axis=0) / w.sum()
        cost = total_cost(y_next)
        step = float(np.linalg.norm(y_next - y))
        y = y_next
        if abs(prev_cost - cost) <= tolerance * max(1.0, cost) or step <= tolerance:
            converged = True
            break
        prev_cost = cost
    y, cost = _snap_reference(pts, y, total_cost(y))
    return tuple(float(v) for v in y), cost, iterations, converged


def _snap_reference(pts, y, cost):
    """Reference: the data point nearest to ``y`` in place of ``(y, cost)``
    when its summed unit vectors to the other points have norm strictly
    below the number of points on it, and it costs less."""
    p = pts[np.linalg.norm(pts - y, axis=1).argmin()]
    dist = np.linalg.norm(pts - p, axis=1)
    others = dist >= costs._SNAP
    r_norm = np.linalg.norm(((pts[others] - p) / dist[others][:, None]).sum(axis=0))
    at_point = dist.sum()
    if r_norm < np.count_nonzero(~others) and at_point < cost:
        return p, at_point
    return y, cost


def _centroid_on_a_point(seed, count):
    """Small integer point sets whose centroid is one of their points; the
    median sits there in most of them, and the solver steps off in the rest."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        dim = rng.randint(1, 3)
        c = [rng.randint(-3, 3) for _ in range(dim)]
        pts = [c] * rng.randint(1, 2)
        for _ in range(rng.randint(1, 4)):
            pts.append([rng.randint(-3, 3) for _ in range(dim)])
        pts.append([(len(pts) + 1) * a - sum(p[d] for p in pts) for d, a in enumerate(c)])
        rng.shuffle(pts)
        out.append([tuple(map(float, p)) for p in pts])
    return out


CROSS = [(0.0, 0.0), (1.0, 0.0), (-1.0, 0.0), (0.0, 1.0)]


def _hex_solution(center, cost, iterations, converged):
    return tuple(float(v).hex() for v in center), float(cost).hex(), iterations, converged


def test_weiszfeld_matches_the_two_norm_loop_bit_for_bit():
    sets = [cluster_points(g) for g in enumerate_triangle_free(8)]
    sets += _centroid_on_a_point(5, 60)
    on_point = 0
    for pts in sets:
        sol = weiszfeld(pts)
        got = _hex_solution(sol.center, sol.cost, sol.iterations, sol.converged)
        assert got == _hex_solution(*_weiszfeld_two_norm(pts)), pts
        on_point += any(tuple(map(float, p)) == sol.center for p in pts)
    assert on_point >= 40  # the on-point branch decided most of the seeded sets


def test_weiszfeld_keeps_the_cross_stall():
    # the optimum (0, 0) has a subgradient of norm exactly 1 there; the
    # iteration crawls toward it without snapping, as it did before
    sol = weiszfeld(CROSS)
    assert sol.iterations == 5506 and sol.converged
    assert sol.cost > 3.0 + 1e-9
    assert _hex_solution(sol.center, sol.cost, sol.iterations, sol.converged) == (
        _hex_solution(*_weiszfeld_two_norm(CROSS))
    )


def test_weiszfeld_raises_at_max_iter(monkeypatch):
    monkeypatch.setattr(costs, "WEISZFELD_MAX_ITER", 100)
    with pytest.raises(NotConverged):
        weiszfeld(CROSS)


def test_median_costs_equal_the_closed_form_or_the_two_norm_loop():
    graphs = list(enumerate_triangle_free(8))
    graphs += enumerate_triangle_free(6, include_disconnected=True)
    random.Random(11).shuffle(graphs)  # a wrong row-to-graph mapping shows
    batched = median_costs(graphs)
    numeric = 0
    for g, (cost, basis) in zip(graphs, batched):
        exact = closed_form_median_cost(g)
        if exact is None:
            _, want, _, _ = _weiszfeld_two_norm(cluster_points(g))
            assert basis == "numerical_upper", g.edges
            numeric += 1
        else:
            want = exact
            assert basis == "exact_closed_form", g.edges
        assert float(cost).hex() == float(want).hex(), g.edges
    assert numeric > 200  # 244 of the 266 graphs have no closed form


TABLE_SETS = [
    *(reduce_graph(random_triangle_free(*g, seed=s), k=1, objective="median").points
      for g, s in (((6, 3), 3), ((7, 3), 0))),
    CROSS + [(0.0, -1.0)],
    [(-6.0, 0.0), (0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)],
    *_centroid_on_a_point(6, 8),
    # 6-10 coordinates: from 8 on, numpy sums the last axis pairwise
    *(reduce_graph(g, k=1, objective="median").points for g in completeness_instances(8, 0)),
    # one coordinate, 8-12 points: numpy sums the weighted points pairwise
    [(v,) for v in (-5.0, -3.0, -2.0, 0.0, 1.0, 4.0, 6.0, 9.0)],
    [(v,) for v in (0.0, 0.0, 1.0, 1.0, 1.0, 3.0, 3.0, 7.0, 7.0, 7.0, 10.0, 12.0)],
    *([(v,) for v in np.random.default_rng(n).normal(size=n).tolist()] for n in (9, 10, 11)),
    [(v,) for v in np.random.default_rng(12).integers(-2, 3, size=12).astype(float).tolist()],
]

# the first 16 hex digits of the sha256 of each set's table (float.hex of every
# cost, then of every center coordinate) as the batch loop that re-gathered its
# active rows every iteration built it, recorded on numpy 2.4.6 and Python 3.11.7
TABLE_DIGESTS = """
    a2acf34d5f2257ef affd7a0f9fb87fbe 8404e60e43b11bc3 25af29d100ededf5 3187192a50723948
    14aacc95627b4081 2fbe8bbdb8863493 da4f995147216578 797d5d3684dc6bbc f369d8df05d958f8
    69fe84ae4e2130d0 6d0fc27173df5ce7 4a42d81542b1cd9f 583d60bcb25e5534 ac60669392c8ff82
    a2acf34d5f2257ef a1ed14ffd7ac5a27 1dfeab0c72c6913f 2caa0f726d39a883 2efb04e91c0e72b9
    2b8dc5a750c29957 010bb9a373eaff09 db225238a1fdae83 ce2fc753b739b35d a344b2a31557037d
    f7c8a76565edc4cb
""".split()


@pytest.mark.parametrize("i", range(len(TABLE_SETS)), ids=lambda i: f"points{i}")
def test_weiszfeld_subsets_equal_the_reference_batch(i):
    table_costs, table_centers = weiszfeld_subsets(TABLE_SETS[i])
    text = "\n".join(" ".join(map(float.hex, a.ravel().tolist())) for a in (table_costs, table_centers))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == TABLE_DIGESTS[i]


@pytest.mark.parametrize("batch", [1, 7, 100, 462])
def test_weighted_sum_adds_in_the_order_of_the_reduce(batch):
    # checked on the installed numpy, not against stored floats: a numpy that
    # orders einsum's sum differently fails here
    rng = np.random.default_rng(batch)
    for points in range(2, 13):
        for dim in range(1, 14):
            pts = rng.normal(size=(batch, points, dim))
            pts[rng.random(pts.shape) < 0.3] = 0.0
            w = 1.0 / rng.random((batch, points))
            if batch > 1:  # rows on a data point, beside finite rows
                w[0, points // 2] = np.inf
                w[-1, :2] = np.inf  # a point that is there twice
            with np.errstate(invalid="ignore"):  # 0 * inf
                got = costs._weighted_sum_for(dim)(pts, w)
                want = np.add.reduce(pts * w[:, :, None], axis=1)
            assert got.tobytes() == want.tobytes(), (points, dim)


def test_subset_index_arrays_are_kept_read_only():
    for n in range(1, costs.MAX_CONTINUOUS_POINTS + 1):
        kept = costs._subsets_by_size(n)
        assert costs._subsets_by_size(n) is kept
        fresh = costs._subsets_by_size.__wrapped__(n)
        assert len(kept) == len(fresh) == n
        for k, ((rows, members), (want_rows, want_members)) in enumerate(zip(kept, fresh), 1):
            assert np.array_equal(rows, want_rows) and np.array_equal(members, want_members)
            assert members.shape == (math.comb(n, k), k)
            assert [sum(1 << i for i in m) for m in members.tolist()] == rows.tolist()
            for a in (rows, members):
                with pytest.raises(ValueError):
                    a[0] = 0


@pytest.mark.parametrize("points", [
    [(math.nan, 0.0), (1.0, 0.0)],  # nothing overflows
    [(1e308, 0.0), (-1e308, 0.0)],  # the squared distances overflow
])
def test_weiszfeld_rejects_a_start_that_is_not_finite(points):
    with pytest.raises(DomainError, match="is not finite"):
        weiszfeld(points)
