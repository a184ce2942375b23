"""Graph container, classification, matchings, and covers."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medcover import graphs
from medcover.errors import EmptyGraph, NotBipartite, PreconditionViolated, Stuck
from medcover.graphs import (
    ClassTag,
    Matching,
    bridge_structure,
    classify,
    common_vertex,
    edge_components,
    format_edge_list,
    graph_from_edges,
    is_triangle_free,
    is_vertex_cover,
    konig_cover,
    make_graph,
    maximal_matching_greedy,
    maximum_matching,
    parse_edge_list,
    second_maximum_matching,
    subgraph,
)

C5 = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
P4 = [(0, 1), (1, 2), (2, 3)]


def brute_max_matching_size(g):
    best = 0
    for r in range(len(g.edges), 0, -1):
        for combo in itertools.combinations(g.edges, r):
            seen = set()
            ok = True
            for e in combo:
                if e[0] in seen or e[1] in seen:
                    ok = False
                    break
                seen.update(e)
            if ok:
                return r
    return best


def random_graph(rng, n, p):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return graph_from_edges(edges) if edges else None


# ---------------------------------------------------------------------------
# Container and parsing
# ---------------------------------------------------------------------------

def test_edges_are_normalized_in_input_order():
    # endpoints are swapped into (low, high) form; edge order is preserved
    # because cluster indices refer back to it
    g = graph_from_edges([(3, 2), (1, 0), (2, 1)])
    assert g.edges == ((2, 3), (0, 1), (1, 2))


def test_parse_format_round_trip():
    g = parse_edge_list("0 1\n1 2\n2 3\n")
    assert format_edge_list(g) == "p 4\n0 1\n1 2\n2 3\n"
    assert parse_edge_list(format_edge_list(g)).edges == g.edges


def test_parse_skips_comments_and_blanks():
    g = parse_edge_list("# header\n0 1\n\n1 2  # trailing\n")
    assert g.edges == ((0, 1), (1, 2))


@pytest.mark.parametrize("bad", ["0 0", "0", "0 1 2", "a b"])
def test_parse_rejects_malformed_lines(bad):
    with pytest.raises(Exception):
        parse_edge_list(bad)


def test_self_loops_and_duplicates_rejected():
    with pytest.raises(ValueError):
        make_graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        make_graph(3, [(0, 1), (1, 0)])


def test_empty_graph_rejected_where_it_matters():
    empty = make_graph(3, [])
    with pytest.raises(EmptyGraph):
        classify(empty)


def test_subgraph_keeps_host_vertex_ids():
    g = graph_from_edges([(0, 1), (1, 2), (2, 3)])
    h = subgraph(g, [2])
    assert h.edges == ((2, 3),)
    assert h.num_vertices == g.num_vertices


# ---------------------------------------------------------------------------
# Predicates and classification
# ---------------------------------------------------------------------------

def test_triangle_detection():
    assert is_triangle_free(graph_from_edges(C5))
    assert not is_triangle_free(graph_from_edges([(0, 1), (1, 2), (0, 2)]))


def union_find_components(g):
    """Edge components by union-find, as ``edge_components`` once computed
    them: ordered by smallest edge index, indices ascending within."""
    parent = list(range(g.num_vertices))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for u, v in g.edges:
        parent[find(u)] = find(v)
    groups = {}
    for i, (u, _v) in enumerate(g.edges):
        groups.setdefault(find(u), []).append(i)
    return sorted(groups.values(), key=lambda idxs: idxs[0])


def test_edge_components_are_ordered_by_first_edge():
    # the component of vertices 3..5 holds edge 0, so it comes first although
    # vertex 0 is the least vertex; the isolated vertex 6 is left out
    g = graphs.Graph(7, ((3, 4), (0, 1), (4, 5), (1, 2)))
    assert edge_components(g) == [[0, 2], [1, 3]]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_edge_components_match_union_find(seed):
    import random

    rng = random.Random(seed)
    g = random_graph(rng, 10, 0.15)
    if g is None:
        return
    edges = list(g.edges)
    rng.shuffle(edges)
    g = graphs.Graph(g.num_vertices, tuple(edges))
    assert edge_components(g) == union_find_components(g)


def test_common_vertex():
    assert common_vertex([(0, 1), (1, 2), (1, 3)]) == 1
    assert common_vertex([(0, 1), (2, 3)]) is None


@pytest.mark.parametrize(
    "edges,tag",
    [
        ([(0, 1)], ClassTag.SINGLE_EDGE),
        ([(0, 1), (0, 2), (0, 3)], ClassTag.STAR),
        ([(0, 1), (2, 3), (4, 5)], ClassTag.THREE_P2),
        ([(0, 1), (2, 3), (2, 4), (2, 5)], ClassTag.A_N),
        (P4, ClassTag.L_N),
        (C5, ClassTag.C5),
        ([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)], ClassTag.OTHER_NON_STAR),
    ],
)
def test_classify_tags(edges, tag):
    assert classify(graph_from_edges(edges)).tag is tag


def test_classify_c5_witness_is_a_cycle():
    cls = classify(graph_from_edges(C5))
    cyc = cls.witness["cycle"]
    assert sorted(cyc) == [0, 1, 2, 3, 4]
    onto = {tuple(sorted((cyc[i], cyc[(i + 1) % 5]))) for i in range(5)}
    assert onto == set(graph_from_edges(C5).edges)


def test_classify_a_n_counts_lone_edges():
    # one lone edge + a 3-edge star sharing no vertex with it
    cls = classify(graph_from_edges([(0, 1), (2, 3), (2, 4), (2, 5)]))
    assert cls.tag is ClassTag.A_N
    assert cls.n == 3
    assert cls.witness["star_center"] == 2
    assert cls.witness["lone_edge"] == (0, 1)


def test_bridge_structure_on_double_star():
    # two stars joined by one edge between their centers
    g = graph_from_edges([(0, 2), (1, 2), (2, 3), (3, 4), (3, 5)])
    bridge, p, q = bridge_structure(g)
    assert bridge == (2, 3)
    assert {p, q} == {2, 2}
    assert bridge_structure(graph_from_edges(C5)) is None


# ---------------------------------------------------------------------------
# Matchings
# ---------------------------------------------------------------------------

def test_maximum_matching_is_exact_on_small_graphs():
    rng_cases = [
        C5,
        P4,
        [(0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 5)],
        [(0, 1), (2, 3), (4, 5), (1, 2), (3, 4)],
    ]
    for edges in rng_cases:
        g = graph_from_edges(edges)
        assert len(maximum_matching(g)) == brute_max_matching_size(g)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_maximum_matching_properties(seed):
    import random

    g = random_graph(random.Random(seed), 7, 0.3)
    if g is None:
        return
    m = maximum_matching(g)
    used = [v for e in m.edges for v in e]
    assert len(used) == len(set(used))  # pairwise disjoint
    assert set(m.edges) <= set(g.edges)
    assert len(m) == brute_max_matching_size(g)


def test_greedy_matching_is_maximal():
    g = graph_from_edges(C5)
    m = maximal_matching_greedy(g)
    matched = {v for e in m.edges for v in e}
    for e in g.edges:
        assert e[0] in matched or e[1] in matched


def test_second_matching_avoids_the_first():
    g = graph_from_edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
    m = maximum_matching(g)
    l = second_maximum_matching(g, m)
    assert not set(l.edges) & set(m.edges)
    used = [v for e in l.edges for v in e]
    assert len(used) == len(set(used))


@pytest.mark.parametrize("indices", [(0, 2, 9), (0, 2, -2)], ids=["past-the-end", "negative"])
def test_second_matching_rejects_an_index_outside_the_graph(indices):
    g = graph_from_edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
    # edge (4, 5) is g.edges[4], so index -2 names a real edge by aliasing
    m = Matching(indices, ((0, 1), (2, 3), (4, 5)))
    with pytest.raises(PreconditionViolated, match="does not belong to this graph"):
        second_maximum_matching(g, m)


# ---------------------------------------------------------------------------
# Covers
# ---------------------------------------------------------------------------

def test_is_vertex_cover():
    g = graph_from_edges(P4)
    assert is_vertex_cover(g, {1, 2})
    assert is_vertex_cover(g, {0, 2})
    assert not is_vertex_cover(g, {0, 3})


def test_konig_cover_matches_matching_number():
    g = graph_from_edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)])  # P7
    cover = konig_cover(g)
    assert is_vertex_cover(g, cover)
    assert len(cover) == len(maximum_matching(g)) == 3


def test_konig_rejects_odd_cycles():
    with pytest.raises(NotBipartite):
        konig_cover(graph_from_edges(C5))


def test_konig_raises_stuck_on_a_non_cover(monkeypatch):
    monkeypatch.setattr(graphs, "is_vertex_cover", lambda g, s: False)
    with pytest.raises(Stuck):
        konig_cover(graph_from_edges(P4))
