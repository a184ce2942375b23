"""Graph and hypergraph embeddings plus the predicted cost gaps."""

import itertools
import json
import math

import pytest

from medcover.costs import disjoint_edges_median_cost, l1_median_cost, weiszfeld
from medcover.covers import cover_budget, soundness_assemble
from medcover.errors import EmptyGraph
from medcover.graphs import Graph, graph_from_edges
from medcover.oracle import min_vertex_cover, opt_continuous
from medcover.reduction import (
    NO_SIDE_HYPOTHESIS,
    ClusteringInstance,
    HypergraphInstance,
    auto_no_regime,
    instance_from_dict,
    instance_from_json,
    instance_to_json,
    parse_hyperedges,
    predict_gap_graph,
    predict_gap_hypergraph,
    reduce_graph,
    reduce_hypergraph,
    yes_cost,
)

C5 = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]


def sq(a, b):
    return sum((x - y) ** 2 for x, y in zip(a, b))


def test_points_are_edge_indicator_sums():
    g = graph_from_edges([(0, 2), (1, 3)])
    inst = reduce_graph(g, k=1, objective="median")
    assert inst.dimension == 4
    assert inst.points == ((1.0, 0.0, 1.0, 0.0), (0.0, 1.0, 0.0, 1.0))
    assert inst.candidate_centers is None


def test_squared_distances_are_two_or_four():
    g = graph_from_edges(C5)
    inst = reduce_graph(g, k=2, objective="median")
    pts = inst.points
    assert len(pts) == g.num_edges
    # every pair: 2 when the two edges share an endpoint, else 4
    for a, b in itertools.combinations(range(len(pts)), 2):
        shares = bool(set(g.edges[a]) & set(g.edges[b]))
        assert sq(pts[a], pts[b]) == (2.0 if shares else 4.0), (g.edges[a], g.edges[b])
    assert sq(pts[0], pts[1]) == 2.0  # (0,1) vs (1,2)
    assert sq(pts[0], pts[2]) == 4.0  # (0,1) vs (2,3)


@pytest.mark.parametrize(
    "objective,yes,no",
    [("median", 10 - 1.5, 10 - 1.5 + 0.03), ("means", 10 - 3, 10 - 3 + 0.03)],
)
def test_graph_gap_thresholds(objective, yes, no):
    pred = predict_gap_graph(10, 3, objective, delta=0.01)
    assert pred.yes_cost == pytest.approx(yes, abs=0)
    assert pred.no_cost_lower == pytest.approx(no, abs=1e-15)


def test_c7_at_k_3_clusters_below_the_median_no_cost_lower():
    # the witness that the median no_cost_lower is only a conjecture: C7 has
    # no vertex cover of 3 (tau = 4), yet two 3-edge paths (L_1 each) and a
    # single edge cluster it at 2 + 2*sqrt(3) ~ 5.4641 < m - k/2 = 5.5 < 5.53
    c7 = graph_from_edges([(i, (i + 1) % 7) for i in range(7)])
    assert len(min_vertex_cover(c7)) == 4
    best = opt_continuous(reduce_graph(c7, k=3, objective="median"))
    assert sorted(map(len, best.partition)) == [1, 3, 3]
    assert best.optimal_cost == pytest.approx(2 * l1_median_cost(), abs=1e-9)
    pred = predict_gap_graph(7, 3, "median", delta=0.01)
    assert best.optimal_cost < pred.yes_cost == 5.5 < pred.no_cost_lower == 5.53
    assert "conjecture" in NO_SIDE_HYPOTHESIS["median"]


def test_18k2_at_k_9_clusters_cheaply_and_extracts_no_small_cover():
    # even tau = 2k does not save the median no side: 18K2 (tau = 18) at
    # k = 9, clustered as one 10-edge block (a regular simplex of side 2,
    # cost sqrt(180)) and eight single edges (cost 0 each), costs
    # sqrt(180) ~ 13.416 < m - k/2 = 13.5; soundness_assemble extracts a
    # cover of 18, above the budget 2k - 2*delta*k = 17.82
    g = graph_from_edges([(2 * i, 2 * i + 1) for i in range(18)])
    assert len(min_vertex_cover(g)) == 18
    clustering = [list(range(10))] + [[i] for i in range(10, 18)]
    points = reduce_graph(g, k=9, objective="median").points
    cost = weiszfeld(points[:10]).cost
    assert cost == pytest.approx(math.sqrt(180), abs=1e-9)
    assert disjoint_edges_median_cost(10) == pytest.approx(math.sqrt(180), abs=1e-12)
    assert cost < yes_cost(18, 9, "median") == 13.5
    report = soundness_assemble(g, clustering, k=9, delta=0.01)
    assert report.total_cover_size == 18 > cover_budget(9, 0.01) == pytest.approx(17.82)


@pytest.mark.parametrize("objective", ["median", "means"])
def test_graph_gap_refuses_more_centers_than_edges(objective):
    assert predict_gap_graph(5, 5, objective, delta=0.01).yes_cost >= 0
    with pytest.raises(ValueError, match="exceeds"):
        predict_gap_graph(5, 6, objective, delta=0.01)


def test_reduce_graph_refuses_an_edgeless_graph():
    with pytest.raises(EmptyGraph, match="^graph reduction needs at least one edge$"):
        reduce_graph(Graph(3, ()), k=1, objective="median")


def test_reduce_graph_warns_on_a_triangle_and_still_reduces():
    with pytest.warns(UserWarning, match="^graph has triangles; cost thresholds are not guaranteed$"):
        inst = reduce_graph(graph_from_edges([(0, 1), (1, 2), (0, 2)]), k=1, objective="median")
    assert len(inst.points) == 3


def test_auto_no_regime_boundary():
    three_p2 = graph_from_edges([(0, 1), (2, 3), (4, 5)])  # m=3, max degree 1
    assert auto_no_regime(three_p2, 1)       # 1 < 3/2
    assert not auto_no_regime(three_p2, 2)   # 2 >= 3/2
    p4 = graph_from_edges([(0, 1), (1, 2), (2, 3)])  # m=3, max degree 2
    assert not auto_no_regime(p4, 1)         # 1 >= 3/4


def test_instance_json_round_trip():
    g = graph_from_edges(C5)
    inst = reduce_graph(g, k=2, objective="means")
    there_and_back = instance_from_json(instance_to_json(inst))
    assert there_and_back == inst
    # serialization is canonical: a second pass is byte-identical
    assert instance_to_json(there_and_back) == instance_to_json(inst)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_coordinates_are_rejected(bad):
    with pytest.raises(ValueError, match="non-finite"):
        ClusteringInstance(2, ((0.0, 0.0), (bad, 1.0)), 1, "median")
    with pytest.raises(ValueError, match="non-finite"):
        ClusteringInstance(1, ((0.0,),), 1, "median", ((bad,),))
    text = json.dumps({"dimension": 1, "k": 1, "objective": "means", "points": [[0.0], [bad]]})
    assert "Infinity" in text or "NaN" in text  # json writes and reads these
    with pytest.raises(ValueError, match="non-finite"):
        instance_from_json(text)


@pytest.mark.parametrize("text, got", [("[1]", "an array"), ("3", "a number"), ("null", "null")])
def test_instance_json_must_be_an_object(text, got):
    with pytest.raises(ValueError, match=f"^instance JSON must be an object, got {got}$"):
        instance_from_json(text)


@pytest.mark.parametrize("field", ["dimension", "k"])
@pytest.mark.parametrize("bad", ["1", 1.5, 1.0, True])
def test_instance_integer_fields_must_be_integers(field, bad):
    # True is an int to Python, but a JSON true is not a count
    obj = {"dimension": 1, "k": 1, "objective": "median", "points": [[0.0], [1.0]]}
    obj[field] = bad
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        instance_from_dict(obj)


# ---------------------------------------------------------------------------
# Hypergraphs
# ---------------------------------------------------------------------------

TRI_COVER = HypergraphInstance(
    d=3,
    num_vertices=5,
    hyperedges=((0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 3, 4)),
    k=2,
)


def test_hypergraph_point_center_distances():
    inst = reduce_hypergraph(TRI_COVER)
    assert inst.candidate_centers is not None
    assert len(inst.candidate_centers) == 5
    for fi, f in enumerate(TRI_COVER.hyperedges):
        for v in range(5):
            want = TRI_COVER.d - 1 if v in f else TRI_COVER.d + 1
            assert sq(inst.points[fi], inst.candidate_centers[v]) == want


def test_hypergraph_gap_thresholds():
    pred = predict_gap_hypergraph(3, 4, p=0.25)
    assert pred.yes_cost == 8.0           # (d-1) * N
    assert pred.no_cost_lower == 10.0     # + 2 p N


@pytest.mark.parametrize("n_hyperedges", [0, -4])
def test_hypergraph_gap_refuses_fewer_than_one_hyperedge(n_hyperedges):
    # with N < 1 the thresholds (d-1)N and (d-1)N + 2pN would go negative
    with pytest.raises(ValueError, match="n_hyperedges"):
        predict_gap_hypergraph(3, n_hyperedges, 0.5)


def test_hypergraph_validation():
    with pytest.raises(ValueError):
        HypergraphInstance(d=3, num_vertices=4, hyperedges=((0, 1, 1),), k=1)
    with pytest.raises(ValueError):
        HypergraphInstance(d=3, num_vertices=3, hyperedges=((0, 1, 5),), k=1)
    with pytest.raises(ValueError):
        HypergraphInstance(d=1, num_vertices=3, hyperedges=((0,),), k=1)


def test_parse_hyperedges_infers_uniformity():
    h = parse_hyperedges("0 1 2\n1 2 3\n", k=2)
    assert h.d == 3
    assert h.num_vertices == 4
    assert h.hyperedges == ((0, 1, 2), (1, 2, 3))


def test_parse_hyperedges_rejects_ragged_lines():
    with pytest.raises(Exception):
        parse_hyperedges("0 1 2\n3 4\n")


def test_a_repeated_hyperedge_is_rejected_in_any_vertex_order():
    # compared as a sorted tuple, as Graph compares a repeated edge
    with pytest.raises(ValueError, match=r"^duplicate hyperedge \(2, 1, 0\)$"):
        HypergraphInstance(d=3, num_vertices=3, hyperedges=((0, 1, 2), (2, 1, 0)), k=1)
    with pytest.raises(ValueError, match=r"^line 3: duplicate hyperedge \(0, 1, 2\), in '2 1 0'$"):
        parse_hyperedges("0 1 2\n# again\n2 1 0\n")


def test_parse_hyperedges_names_the_line_of_a_token_that_is_not_an_integer():
    with pytest.raises(ValueError, match="^line 3: .*'x'"):
        parse_hyperedges("0 1 2\n# note\n3 x 5\n")


def test_parse_hyperedges_names_the_line_of_a_negative_vertex():
    with pytest.raises(ValueError, match=r"^line 2: negative vertex -1, in '-1 0 1'$"):
        parse_hyperedges("0 1 2\n-1 0 1\n")


def test_parse_hyperedges_names_the_line_of_a_repeated_vertex():
    with pytest.raises(ValueError, match=r"^line 1: repeated vertex 1, in '0 1 1'$"):
        parse_hyperedges("0 1 1\n0 2 3\n")


@pytest.mark.parametrize("text", ["", "\n# only a comment\n\n"])
def test_parse_hyperedges_refuses_text_without_hyperedges(text):
    with pytest.raises(ValueError, match="^no hyperedges found$"):
        parse_hyperedges(text)


def test_graph_case_is_the_two_uniform_case():
    # a 2-uniform hypergraph produces the same point set as the graph
    # reduction; only the candidate-center restriction differs
    g = graph_from_edges([(0, 1), (1, 2)])
    h = HypergraphInstance(d=2, num_vertices=3, hyperedges=((0, 1), (1, 2)), k=1)
    gi = reduce_graph(g, k=1, objective="median")
    hi = reduce_hypergraph(h)
    assert gi.points == hi.points
