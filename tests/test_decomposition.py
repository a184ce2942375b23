"""Safe-pair decomposition and the lower-bound certificates it emits."""

import hashlib
import itertools
import math
import random

import pytest

from medcover import costs, decomposition
from medcover.costs import a_n_median_cost, median_cost
from medcover.decomposition import (
    MODES,
    certify_lower_bound,
    decompose,
    find_safe_pair,
    residual_class_bound,
    trace_to_dict,
)
from medcover.errors import PreconditionViolated, Stuck
from medcover.graphs import (
    ClassTag,
    Graph,
    GraphClass,
    bridge_from_masks,
    bridge_structure,
    classify,
    classify_from_masks,
    graph_from_edges,
    is_star,
    neighbour_masks,
    remove_edges,
)
from medcover.oracle import enumerate_triangle_free

C5 = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
P7 = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]


def test_mode_is_validated():
    with pytest.raises(ValueError):
        decompose(graph_from_edges(C5), "bogus")


def test_stars_are_rejected():
    with pytest.raises(PreconditionViolated):
        decompose(graph_from_edges([(0, 1), (0, 2)]), "safe")


THREE_P2 = [(0, 1), (2, 3), (4, 5)]
A_3 = [(0, 1), (2, 3), (2, 4), (2, 5)]
L_2 = [(0, 1), (0, 2), (0, 3), (3, 4)]


@pytest.mark.parametrize("edges,mode,tag", [
    (THREE_P2, "safe", ClassTag.THREE_P2),
    (A_3, "safe", ClassTag.A_N),
    (L_2, "safe", ClassTag.L_N),
    (A_3, "ultra_safe", ClassTag.A_N),
], ids=["3-P2-safe", "A_3-safe", "L_2-safe", "A_3-ultra"])
def test_terminal_classes_stop_immediately(edges, mode, tag):
    trace = decompose(graph_from_edges(edges), mode)
    assert trace.removed_pairs == ()
    assert trace.residual.tag is tag


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("edges", [C5, P7, A_3], ids=["C5", "P7", "A_3"])
def test_decompose_classifies_once(monkeypatch, edges, mode):
    # the search loop stops on find_safe_pair alone; only the residual is
    # classified, from the loop's masks and edges
    calls = []

    def counted(nbrs, edges):
        calls.append(edges)
        return classify_from_masks(nbrs, edges)

    monkeypatch.setattr(decomposition, "classify_from_masks", counted)
    g = graph_from_edges(edges)
    trace = decompose(g, mode)
    assert len(calls) == 1
    assert len(calls[0]) == g.num_edges - 2 * len(trace.removed_pairs)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("edges", [C5, P7, A_3], ids=["C5", "P7", "A_3"])
def test_decompose_checks_its_preconditions_on_one_mask_pass(monkeypatch, edges, mode):
    # the triangle, star and bridge tests read the masks the search reads,
    # those of g's Block, and find_safe_pair, which would wrap g again,
    # does not run
    passes = []

    def counted(g):
        passes.append(g)
        return neighbour_masks(g)

    def refused(*args):
        raise AssertionError("decompose called find_safe_pair")

    monkeypatch.setattr(costs, "neighbour_masks", counted)
    monkeypatch.setattr(decomposition, "find_safe_pair", refused)
    g = graph_from_edges(edges)
    decompose(g, mode)
    assert passes == [g]


@pytest.mark.parametrize("mode", MODES)
def test_a_residual_that_is_not_terminal_is_stuck(monkeypatch, mode):
    # the existence lemmas rule this out, so only a broken pair search
    # reaches it: C5 is not a terminal class
    monkeypatch.setattr(decomposition, "_first_safe_pair", lambda edges, deg, nbrs, mode: None)
    with pytest.raises(Stuck, match="non-terminal"):
        decompose(graph_from_edges(C5), mode)


def test_traces_are_pinned_on_the_disconnected_catalogue():
    # both modes on the 452 triangle-free graphs up to 8 edges, connected or
    # not: each trace's repr, or the type of what decompose raised (stars,
    # and bridge graphs in ultra mode); the digest was recorded before the
    # search loop stopped classifying every intermediate graph
    records = []
    graphs = list(enumerate_triangle_free(8, include_disconnected=True))
    assert len(graphs) == 452
    for g in graphs:
        for mode in MODES:
            try:
                records.append(repr(decompose(g, mode)))
            except PreconditionViolated as ex:
                records.append(type(ex).__name__)
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == "008bdb15574f32236fe38e4081bd39192de6e32ecc0d89f8f12099964e7a355f"


def _count_graphs(monkeypatch):
    """Record the edges of every ``Graph`` built."""
    built = []
    real = Graph.__post_init__
    monkeypatch.setattr(Graph, "__post_init__", lambda h: built.append(h.edges) or real(h))
    return built


def _residual_class(g, trace):
    """``classify`` of the residual, built from g less the removed pairs."""
    removed = {e for pair in trace.removed_pairs for e in pair}
    return classify(Graph(g.num_vertices, tuple(e for e in g.edges if e not in removed)))


def test_safe_mode_builds_no_graph(monkeypatch):
    # the pair search tests candidates on degrees, the loop removes each
    # pair from one edge list, and the residual is classified from the
    # masks the loop keeps, as classify finds it on the residual's graph
    built = _count_graphs(monkeypatch)
    for g in enumerate_triangle_free(7):
        if is_star(g):
            continue
        built.clear()
        trace = decompose(g, "safe")
        assert built == [], g.edges
        assert trace.residual == _residual_class(g, trace), g.edges


def test_ultra_mode_builds_no_graph(monkeypatch):
    # the bridge test of a candidate's remainder reads the degrees and masks,
    # which the loop updates for each removed pair
    built = _count_graphs(monkeypatch)
    pairs = 0
    for g in enumerate_triangle_free(7):
        if is_star(g) or bridge_structure(g) is not None:
            continue
        built.clear()
        trace = decompose(g, "ultra_safe")
        assert built == [], g.edges
        assert trace.residual == _residual_class(g, trace), g.edges
        pairs += len(trace.removed_pairs)
    assert pairs > 50


def test_leaves_bridge_agrees_with_the_built_remainder():
    # the catalogue, and seeded graphs with triangles, where a leaf can be
    # shared by both ends of a candidate bridge
    rng = random.Random(3)
    pairs = list(itertools.combinations(range(6), 2))
    graphs = list(enumerate_triangle_free(8, include_disconnected=True))
    graphs += [graph_from_edges(rng.sample(pairs, rng.randint(4, 9))) for _ in range(300)]
    checked = bridges = 0
    for g in graphs:
        m = g.num_edges
        deg, nbrs = g.degrees(), neighbour_masks(g)
        for e, f in itertools.combinations(g.edges, 2):
            if set(e) & set(f):
                continue
            want = bridge_structure(remove_edges(g, (e, f))) is not None
            cut = {e[0]: 1 << e[1], e[1]: 1 << e[0], f[0]: 1 << f[1], f[1]: 1 << f[0]}
            for candidates in (list(g.edges), [b for b in g.edges if deg[b[0]] + deg[b[1]] >= m - 1]):
                rest = [b for b in candidates if b != e and b != f]
                assert (bridge_from_masks(nbrs, rest, m - 2, cut) is not None) == want
            checked += 1
            bridges += want
    assert checked > 8000 and bridges > 300


def test_safe_pair_edges_are_disjoint_and_in_the_graph():
    g = graph_from_edges(P7)
    pair = find_safe_pair(g, "safe")
    assert pair is not None
    e, f = pair
    assert e in g.edges and f in g.edges
    assert not set(e) & set(f)


def test_c5_safe_trace_leaves_a_lone_edge_plus_star():
    trace = decompose(graph_from_edges(C5), "safe")
    assert len(trace.removed_pairs) == 1
    assert trace.residual.tag is ClassTag.A_N
    assert trace.residual.n == 2


def test_c5_certificates_both_modes():
    g = graph_from_edges(C5)
    safe = certify_lower_bound(g, "safe")
    # one disjoint pair (adds 2) plus the lone-edge-plus-2-star residual
    assert safe.derivation[0] == ("disjoint_pair", 2.0)
    assert safe.bound == pytest.approx(2.0 + a_n_median_cost(2), abs=1e-12)

    ultra = certify_lower_bound(g, "ultra_safe")
    # every disjoint-pair removal leaves A_2, which is not a bridge graph, so
    # ultra mode takes the same step; the bound clears |F| = 5 and stays
    # below the 5-cycle's cost sqrt(30)
    assert ultra == safe
    assert decompose(g, "ultra_safe").residual == decompose(g, "safe").residual
    assert 5.0 < ultra.bound < median_cost(g)[0]


def test_certificate_bound_is_the_derivation_sum():
    for edges in (C5, P7, [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5)]):
        cert = certify_lower_bound(graph_from_edges(edges), "safe")
        assert cert.bound == sum(v for _, v in cert.derivation)


def test_ultra_mode_rejects_bridge_graphs():
    # the 3-edge path is a bridge graph (two 1-stars joined by an edge)
    with pytest.raises(PreconditionViolated):
        decompose(graph_from_edges([(0, 1), (1, 2), (2, 3)]), "ultra_safe")


def test_trace_to_dict_shape():
    d = trace_to_dict(decompose(graph_from_edges(C5), "safe"))
    assert d["mode"] == "safe"
    assert d["residual"]["tag"] == "A_n"
    assert d["pairs"] == [[[0, 1], [2, 3]]]


def test_residual_class_bound_values():
    g = graph_from_edges([(0, 1), (2, 3), (4, 5)])
    label, value = residual_class_bound(classify(g))
    assert value == pytest.approx(math.sqrt(12), abs=1e-12)
    assert label == "ThreeP2"


# (label, float.hex of the floor) of every residual class that decompose
# reaches, in either mode, on the connected 8-edge catalogue, recorded on
# numpy 2.4.6 and Python 3.11.7
CATALOGUE_RESIDUAL_BOUNDS = {
    ("A_1", "0x1.fffffffffffffp+0"),
    ("A_2", "0x1.8c3bc12b8b03bp+1"),
    ("A_3", "0x1.08a62e8da50bep+2"),
    ("A_4", "0x1.4a0a485ca4dfbp+2"),
    ("A_5", "0x1.8aebae6687fe8p+2"),
    ("L_1", "0x1.5db3d742c2655p+1"),
    ("L_2", "0x1.d555555555555p+1"),
    ("L_3", "0x1.2a1cac083126fp+2"),
    ("L_4", "0x1.6a1cac083126fp+2"),
    ("L_5", "0x1.aa1cac083126fp+2"),
    ("L_6", "0x1.ea1cac083126fp+2"),
    ("ThreeP2", "0x1.bb67ae8584caap+1"),
}


def test_residual_class_bounds_on_the_catalogue_are_frozen():
    seen = set()
    for g in enumerate_triangle_free(8):
        if is_star(g):
            continue
        for mode in ("safe", "ultra_safe"):
            if mode == "ultra_safe" and bridge_structure(g) is not None:
                continue
            residual = decompose(g, mode).residual
            label, value = residual_class_bound(residual)
            assert label == residual.describe()
            seen.add((label, value.hex()))
    assert seen == CATALOGUE_RESIDUAL_BOUNDS


@pytest.mark.parametrize("cls", [GraphClass(ClassTag.STAR), GraphClass(ClassTag.C5),
                                 GraphClass(ClassTag.BRIDGE, p=2, q=2)])
def test_residual_class_bound_refuses_a_class_that_is_not_fundamental(cls):
    with pytest.raises(Stuck, match="is not fundamental"):
        residual_class_bound(cls)


@pytest.mark.parametrize("tag", [ClassTag.A_N, ClassTag.L_N])
def test_residual_class_bound_needs_the_class_parameter(tag):
    with pytest.raises(Stuck, match="without its parameter"):
        residual_class_bound(GraphClass(tag))


# ---------------------------------------------------------------------------
# Exhaustive sanity at small scale (the acceptance suite goes one edge higher)
# ---------------------------------------------------------------------------

def test_safe_bound_brackets_true_cost_up_to_six_edges():
    for g in enumerate_triangle_free(6):
        if is_star(g):
            continue
        cert = certify_lower_bound(g, "safe")
        cost, _ = median_cost(g)
        m = g.num_edges
        assert cert.bound >= m - 0.342 - 1e-12, g.edges
        assert cert.bound <= cost + 1e-6, g.edges


def test_ultra_bound_reaches_edge_count_on_non_bridge_graphs():
    seen = 0
    for g in enumerate_triangle_free(6):
        if is_star(g) or bridge_structure(g) is not None:
            continue
        cert = certify_lower_bound(g, "ultra_safe")
        assert cert.bound >= g.num_edges - 1e-12, g.edges
        seen += 1
    assert seen > 0
