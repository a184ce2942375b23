"""Graph container, classification, matchings, and covers."""

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medcover import graphs
from medcover.errors import EmptyGraph, NotBipartite, PreconditionViolated, Stuck
from medcover.graphs import (
    ClassTag,
    Graph,
    Matching,
    bridge_structure,
    classify,
    common_vertex,
    format_edge_list,
    graph_from_edges,
    greedy_matching_indices,
    is_triangle_free,
    is_vertex_cover,
    konig_cover,
    make_graph,
    maximum_matching,
    parse_edge_list,
    second_maximum_matching,
    subgraph,
)
from medcover.oracle import enumerate_triangle_free, random_triangle_free

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


def has_triangle(g):
    edges = set(g.edges)
    return any(
        {(a, b), (a, c), (b, c)} <= edges
        for a, b, c in itertools.combinations(range(g.num_vertices), 3)
    )


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


MALFORMED = [  # (input, the line at fault)
    ("0 0", 1), ("0", 1), ("0 1 2", 1), ("a b", 1), ("p -5\n", 1), ("0 1\n1 x\n", 2),
    ("p\n", 1), ("p 2\n0 1\np 5\n3 4\n", 3), ("p 2\n3 4\n", 2), ("0 1\n1 0\n", 2),
]


@pytest.mark.parametrize("bad, line", MALFORMED, ids=[bad for bad, _ in MALFORMED])
def test_parse_rejects_malformed_lines(bad, line):
    with pytest.raises(ValueError, match=f"^line {line}: "):
        parse_edge_list(bad)


def test_negative_vertex_counts_rejected():
    with pytest.raises(ValueError, match="negative"):
        Graph(-3, ())
    with pytest.raises(ValueError, match="line 2: negative"):
        parse_edge_list("# header\np -5\n")


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
    """Vertex masks of the components by union-find, ordered by least
    vertex, isolated vertices included."""
    parent = list(range(g.num_vertices))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for u, v in g.edges:
        parent[find(u)] = find(v)
    masks = {}
    for v in range(g.num_vertices):
        masks[find(v)] = masks.get(find(v), 0) | 1 << v
    return sorted(masks.values(), key=lambda mask: mask & -mask)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_component_masks_match_union_find(seed):
    rng = random.Random(seed)
    g = random_graph(rng, 10, 0.15)
    if g is None:
        return
    assert graphs.component_masks(graphs.neighbour_masks(g)) == union_find_components(g)


def test_common_vertex():
    assert common_vertex([(0, 1), (1, 2), (1, 3)]) == 1
    assert common_vertex([(0, 1), (2, 3)]) is None
    assert common_vertex([]) is None


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
        # two disjoint 5-cycles pass the cycle test's degree check
        (C5 + [(u + 5, v + 5) for u, v in C5], ClassTag.OTHER_NON_STAR),
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


def _class_digest(gs):
    records = []
    for g in gs:
        c = classify(g)
        records.append(repr((c.tag.value, c.n, c.p, c.q, sorted(c.witness.items()))))
    return hashlib.sha256("\n".join(records).encode()).hexdigest()


def test_classify_is_pinned_on_the_eight_edge_catalogue():
    # tag, n, p, q and witness on the 452 triangle-free graphs up to 8
    # edges, as enumerated and relabelled by a seeded permutation (edges in
    # catalogue order, so not sorted). Both digests were recorded from the
    # classifier that read edge components, degrees and adjacency lists
    # apart, before it read one pass of neighbour masks
    cat = list(enumerate_triangle_free(8, include_disconnected=True))
    assert len(cat) == 452
    assert _class_digest(cat) == "25a2e1d1737ff8e8c5f598fb8fa7713852b4caec8ea6e01354555616df326727"
    rng = random.Random(49)
    relabelled = []
    for g in cat:
        perm = list(range(g.num_vertices))
        rng.shuffle(perm)
        relabelled.append(make_graph(g.num_vertices, [(perm[u], perm[v]) for u, v in g.edges]))
    assert _class_digest(relabelled) == "afb0f60ad72be84fe02dbd0dda2a3c9c817a5da04aa68c9b7720ad897760a0f2"


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
    picked = [g.edges[i] for i in greedy_matching_indices(g.edges)]
    matched = {v for e in picked for v in e}
    assert len(matched) == 2 * len(picked)  # pairwise disjoint
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


def lex_least_maximum_matching(g):
    """Brute force: the first matching of the largest size among all edge
    index subsets, listed in lexicographic order."""
    for r in range(g.num_edges, -1, -1):
        for combo in itertools.combinations(range(g.num_edges), r):
            ends = [v for i in combo for v in g.edges[i]]
            if len(ends) == len(set(ends)):
                return combo


def test_maximum_matching_is_the_lexicographically_least_maximum_one():
    import random

    rng = random.Random(3)
    for _ in range(150):
        n = rng.randint(2, 8)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        rng.shuffle(edges)
        g = make_graph(n, edges[:12])
        assert maximum_matching(g).indices == lex_least_maximum_matching(g), g.edges


def test_matchings_beyond_brute_force_reach_are_pinned():
    # M and L of 60 seeded triangle-free graphs of 13-24 edges, 30 of them
    # with their edges shuffled, then K_{4,6} and C24, hashed: a change to
    # the search's pruning or branch order must leave every answer as it is
    pinned = []
    seed = 0
    while len(pinned) < 60:
        rng = random.Random(seed)
        g = random_triangle_free(rng.randint(9, 16), rng.randint(2, 4), seed=seed)
        seed += 1
        if 13 <= g.num_edges <= 24:
            edges = list(g.edges)
            rng.shuffle(edges)
            pinned += [g, make_graph(g.num_vertices, edges)]
    pinned.append(make_graph(10, [(u, v) for u in range(4) for v in range(4, 10)]))
    pinned.append(make_graph(24, [(i, (i + 1) % 24) for i in range(24)]))
    assert {g.num_edges for g in pinned} >= {13, 20, 24}
    records = []
    for g in pinned:
        m = maximum_matching(g)
        records.append(f"{m.indices} {second_maximum_matching(g, m).indices}")
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == "6d5f07510fbe63a5eb7718160b81e425f766c44a32dc517b53b7288404e3689a"


def two_stars(g):
    """Definition: the first edge (s, t) in index order such that g is the
    star of s and the star of t, with distinct non-empty leaf sets, joined
    by (s, t); returned as bridge_structure reports it."""
    for s, t in g.edges:
        left = {v for e in g.edges if s in e and t not in e for v in e if v != s}
        right = {v for e in g.edges if t in e and s not in e for v in e if v != t}
        star_edges = {tuple(sorted((s, x))) for x in left} | {tuple(sorted((t, y))) for y in right}
        if left and right and not left & right and set(g.edges) == {(s, t)} | star_edges:
            return (s, t), len(left), len(right)
    return None


def test_bridge_structure_matches_the_two_stars_definition():
    import random

    rng = random.Random(4)
    found = 0
    for trial in range(300):
        n = rng.randint(4, 9)
        if trial % 2:  # two planted stars, maybe spoiled by one extra edge
            p = rng.randint(1, n - 3)
            edges = [(0, 1)] + [(0, 2 + i) for i in range(p)]
            edges += [(1, v) for v in range(2 + p, n)]
            if rng.random() < 0.5:
                edges.append(tuple(rng.sample(range(n), 2)))
        else:
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.35]
        perm = rng.sample(range(n), n)
        edges = list(dict.fromkeys(tuple(sorted((perm[u], perm[v]))) for u, v in edges))
        rng.shuffle(edges)
        g = make_graph(n, edges)
        want = two_stars(g)
        assert bridge_structure(g) == want, g.edges
        found += want is not None
    assert found > 50


def test_bitmask_primitives_take_vertex_ids_past_64():
    # the double star of (2, 3) moved to ids 64..199 in the same order, so
    # every answer is the small graph's, relabelled; then a triangle
    small = [(2, 3), (0, 2), (1, 2), (3, 4), (3, 5)]
    ids = [64, 65, 70, 127, 128, 199]
    big = graphs.Graph(200, tuple(tuple(sorted((ids[u], ids[v]))) for u, v in small))
    g = graph_from_edges(small)
    bridge, p, q = bridge_structure(big)
    assert (bridge, p, q) == ((70, 127), 2, 2) and bridge_structure(g) == ((2, 3), 2, 2)
    assert classify(big).tag is classify(g).tag is ClassTag.BRIDGE
    assert is_triangle_free(big)
    assert common_vertex(big.edges[1:3]) == 70
    assert common_vertex([(150, 190), (64, 190)]) == 190
    assert common_vertex([(128, 199), (64, 65)]) is None
    assert common_vertex([(128, 199)]) == 128
    m = maximum_matching(big)
    assert m.indices == maximum_matching(g).indices == lex_least_maximum_matching(big)
    assert (second_maximum_matching(big, m).indices
            == second_maximum_matching(g, maximum_matching(g)).indices)
    tri = graphs.Graph(200, ((64, 150), (64, 199), (150, 199), (70, 128)))
    assert not is_triangle_free(tri)
    assert bridge_structure(tri) is None
    assert len(maximum_matching(tri)) == 2


@pytest.mark.parametrize(
    "n,edges,message",
    [
        (3, ((0, 1), (1, 2), (0, 1)), "duplicate edge (0,1)"),
        (3, ((0, 1), (0, 1), (2, 5)), "duplicate edge (0,1)"),
        (3, ((2, 5), (0, 1), (0, 1)), "edge (2,5) out of range for n=3"),
        (3, ((0, 1), (1, 0)), "edge (1,0) out of range for n=3"),
        (3, ((1, 1),), "edge (1,1) out of range for n=3"),
        (3, ((-1, 2),), "edge (-1,2) out of range for n=3"),
        (3, ((0, 2), (0, 3), (0, 2)), "edge (0,3) out of range for n=3"),
    ],
)
def test_invalid_graphs_name_their_first_bad_edge(n, edges, message):
    with pytest.raises(ValueError) as info:
        graphs.Graph(n, edges)
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# Covers
# ---------------------------------------------------------------------------

def test_is_vertex_cover():
    g = graph_from_edges(P4)
    assert is_vertex_cover(g, {1, 2})
    assert is_vertex_cover(g, {0, 2})
    assert not is_vertex_cover(g, {0, 3})


def test_cover_from_masks_agrees_with_is_vertex_cover():
    # an isolated id below the edges and two above them, which the mask
    # test skips, and every vertex set, the isolated ids in or out
    for g in enumerate_triangle_free(4, include_disconnected=True):
        h = Graph(g.num_vertices + 3, tuple((u + 1, v + 1) for u, v in g.edges))
        nbrs = graphs.neighbour_masks(h)
        for cover in range(1 << h.num_vertices):
            members = [v for v in range(h.num_vertices) if cover >> v & 1]
            assert graphs.is_cover_from_masks(nbrs, cover) == is_vertex_cover(h, members)


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


# ---------------------------------------------------------------------------
# Pinned outputs
# ---------------------------------------------------------------------------

def _pinned_inputs():
    """The disconnected 8-edge catalogue, then seeded random graphs (most
    with triangles), each with its edges sorted and then shuffled."""
    import random

    from medcover.oracle import enumerate_triangle_free

    out = list(enumerate_triangle_free(8, include_disconnected=True))
    rng = random.Random(2020)
    while len(out) < 452 + 2 * 150:
        n = rng.randint(3, 9)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.45]
        if not 1 <= len(edges) <= 14:
            continue
        out.append(make_graph(n, edges))
        rng.shuffle(edges)
        out.append(make_graph(n, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]))
    return out


def _pinned_record(g):
    from medcover.costs import one_means_cost

    cls = classify(g)
    m = maximum_matching(g)
    return repr((
        g.num_vertices, g.edges,
        cls.tag.value, cls.n, cls.p, cls.q, cls.witness,
        m.indices, second_maximum_matching(g, m).indices,
        bridge_structure(g), common_vertex(g.edges), is_triangle_free(g),
        str(one_means_cost(g)),
    ))


def test_graph_primitive_outputs_are_pinned():
    # classify, both matchings, the bridge witness, the common vertex, the
    # triangle test and the exact 1-means cost of 752 graphs, hashed; the
    # digest was recorded before the primitives moved to bitmasks
    import hashlib

    inputs = _pinned_inputs()
    assert len(inputs) == 752
    assert sum(map(has_triangle, inputs)) == 194
    records = [_pinned_record(g) for g in inputs]
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == "baa3d710aa6698544d68bce5209d26b745015b9b036aa66ce23287a8285acc51"
