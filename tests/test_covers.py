"""Constructive cover extraction: per-cluster cases, the single-edge
procedures, and report assembly.

Frozen covers below were cross-checked against the exact vertex-cover oracle;
each cover's case names the construction, or the dispatch row, that built it. The ledger
tests check each report's entries against its counts, ceiling and cover.
"""

import hashlib
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from medcover import cli, costs, covers, graphs
from medcover.costs import extra_cost
from medcover.covers import (
    SQRT2P1,
    cover_case_dispatch,
    cover_general,
    cover_matching_two,
    cover_nonstar_means,
    cover_single_edge_clusters,
    soundness_assemble,
)
from medcover.errors import InvalidPartition, MedcoverError, PreconditionViolated, Stuck
from medcover.graphs import (
    Graph,
    graph_from_edges,
    is_star,
    is_vertex_cover,
    maximum_matching,
    second_maximum_matching,
)
from medcover.oracle import enumerate_triangle_free, min_vertex_cover, random_triangle_free

C5 = [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
P4 = [(0, 1), (1, 2), (2, 3)]


# ---------------------------------------------------------------------------
# Matching number two
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "edges,expected",
    [
        (P4, [0, 2]),
        ([(0, 1), (2, 3)], [0, 2]),
        (C5, [0, 2, 4]),
        ([(0, 1), (1, 2), (2, 3), (3, 4)], [1, 3]),
    ],
)
def test_matching_two_frozen_covers(edges, expected):
    g = graph_from_edges(edges)
    r = cover_matching_two(g)
    assert sorted(r.cover) == expected
    assert is_vertex_cover(g, r.cover)
    assert r.case == "matching_two"


def test_matching_two_is_minimum():
    # for matching number 2 the construction is not just valid but optimal
    for edges in (P4, [(0, 1), (2, 3)], C5, [(0, 1), (1, 2), (2, 3), (3, 4)]):
        g = graph_from_edges(edges)
        assert len(cover_matching_two(g).cover) == len(min_vertex_cover(g))


def test_matching_two_rejects_wrong_matching_number():
    star = graph_from_edges([(0, 1), (0, 2)])  # nu = 1
    with pytest.raises(PreconditionViolated):
        cover_matching_two(star)
    big = graph_from_edges([(0, 1), (2, 3), (4, 5)])  # nu = 3
    with pytest.raises(PreconditionViolated):
        cover_matching_two(big)


# ---------------------------------------------------------------------------
# General construction and the case dispatch
# ---------------------------------------------------------------------------

def test_general_construction_bound_and_validity():
    g = graph_from_edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 4)])
    m = maximum_matching(g)
    l = second_maximum_matching(g, m)
    r = cover_general(g)
    assert is_vertex_cover(g, r.cover)
    assert len(r.cover) <= len(m) + len(l) - 1
    assert r.case == "general"


def matching_searches(monkeypatch):
    """Record the edges of every graph ``maximum_matching`` searches, as
    bound in graphs (where ``second_maximum_matching`` calls it), in costs
    (where a ``Block`` finds its M) and in covers; each call is one search,
    since nothing is cached."""
    searched = []
    real = graphs.maximum_matching

    def counted(h):
        searched.append(h.edges)
        return real(h)

    for module in (graphs, costs, covers):
        monkeypatch.setattr(module, "maximum_matching", counted)
    return searched


def less(g, m):
    """g's edges less those of the matching m, in index order."""
    return tuple(e for e in g.edges if e not in m.edges)


@pytest.mark.parametrize("edges, kind", [
    ([(0, 1), (1, 2), (2, 3), (4, 5)], "1.8"),  # |L| = 1
    ([(0, 1), (0, 2), (1, 3), (2, 4), (3, 5)], "1.68"),  # |L| = 2, F' not a bridge
])
def test_dispatch_computes_each_matching_once(monkeypatch, edges, kind):
    g = graph_from_edges(edges)
    m = maximum_matching(g)
    searched = matching_searches(monkeypatch)
    r = cover_case_dispatch(g)
    assert r.case.endswith(f"({kind})")
    assert searched == [g.edges, less(g, m)]  # M on g, then L on g minus M's edges


# the first 6-edge catalogue graph whose dispatch takes the bridge case with
# a one-edge second matching in the residue
BRIDGE_RESIDUE = [(0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (2, 3)]


def test_bridge_residual_computes_the_residue_matchings_once(monkeypatch):
    g = graph_from_edges(BRIDGE_RESIDUE)
    m = maximum_matching(g)
    searched = matching_searches(monkeypatch)
    r = cover_case_dispatch(g)
    assert (r.case, sorted(r.cover)) == ("|L| = 2, F' bridge (1.53)", [0, 1, 3])
    # M and L on g; L on the residue (g less the edges at bridge end 0);
    # M checked maximum on the residue
    residue = graph_from_edges([e for e in g.edges if 0 not in e])
    residue_m = [e for e in m.edges if 0 not in e]
    assert searched == [
        g.edges, less(g, m), tuple(e for e in residue.edges if e not in residue_m), residue.edges,
    ]


def test_bridge_residual_still_rejects_a_residue_matching_that_is_not_maximum(monkeypatch):
    g = graph_from_edges(BRIDGE_RESIDUE)
    m = maximum_matching(g)
    monkeypatch.setattr(covers, "maximum_matching", lambda h: m)  # |M| on the residue too
    with pytest.raises(Stuck, match="not a maximum matching of the rest"):
        cover_case_dispatch(g)


DISPATCH_CASES = [
    # |L| = 0: disjoint edges, one endpoint each
    ([(0, 1), (2, 3), (4, 5)], "|L| = 0 (0.551)", [0, 2, 4]),
    # |L| = 1: general construction at size |M|
    ([(0, 1), (1, 2), (2, 3), (4, 5)], "|L| = 1 (1.8)", [1, 2, 4]),
    # |L| = 2 with a bridge residual: endpoint recursion
    ([(0, 5), (1, 3), (2, 3), (2, 4), (3, 5), (3, 6), (4, 6)],
     "|L| = 2, F' bridge (1.53)", [0, 3, 4]),
    ([(0, 1), (1, 2), (2, 3), (2, 4), (4, 5), (4, 6)],
     "|L| = 2, F' bridge (1.53)", [0, 2, 4]),
    # |L| = 2 without one: general construction, one above |M|
    ([(0, 1), (0, 2), (1, 3), (2, 4), (3, 5)], "|L| = 2, F' non-bridge (1.68)", [0, 1, 2, 3]),
    # |L| >= 3, third matching empty: the graph is bipartite, Koenig cover
    ([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)], "|L| >= 3, F'' empty (1.6)", [1, 3, 5]),
    # |L| >= 3, third matching a star: its center plus Koenig on the rest
    ([(0, 1), (1, 2), (1, 7), (1, 8), (2, 3), (3, 4), (4, 5), (5, 6)],
     "|L| >= 3, F'' a star (1.68)", [1, 3, 5]),
    # |L| >= 3, third matching a bridge graph: both bridge endpoints
    ([(0, 3), (0, 4), (0, 6), (0, 7), (1, 3), (1, 6), (1, 7), (2, 4), (2, 5), (2, 7)],
     "|L| >= 3, F'' bridge (1.4)", [0, 1, 2, 7]),
    # |L| >= 3, anything else: general construction
    ([(0, 5), (0, 8), (1, 2), (1, 4), (2, 5), (3, 5), (3, 8), (4, 7), (6, 8), (7, 8)],
     "|L| >= 3, F'' non-star, non-bridge (1.6)", [0, 1, 4, 5, 8]),
]


# the ids keep the names these cases had when each reported its own bound,
# c + (sqrt2+1)delta, so test records stay comparable
@pytest.mark.parametrize("edges,case,cover", DISPATCH_CASES, ids=[
    f"edges{i}-{case.rsplit('(', 1)[1][:-1]}+(sqrt2+1)delta-cover{i}"
    for i, (_, case, _) in enumerate(DISPATCH_CASES)
])
def test_dispatch_frozen_cases(edges, case, cover):
    g = graph_from_edges(edges)
    r = cover_case_dispatch(g)
    assert r.case == case
    assert sorted(r.cover) == cover
    assert is_vertex_cover(g, r.cover)


def test_dispatch_requires_matching_three():
    c5 = graph_from_edges(C5)  # nu = 2
    with pytest.raises(PreconditionViolated):
        cover_case_dispatch(c5)


def test_dispatch_requires_triangle_free():
    g = graph_from_edges([(0, 1), (1, 2), (0, 2), (3, 4), (5, 6), (7, 8)])
    with pytest.raises(PreconditionViolated):
        cover_case_dispatch(g)


def test_dispatch_random_battery():
    # subsample edges from maximal graphs so the battery reaches sparse
    # shapes too, not just the Koenig-heavy dense case
    kinds = set()
    hit = 0
    for seed in range(60):
        rng = random.Random(seed)
        base = random_triangle_free(9, 3, seed=seed)
        edges = [e for e in base.edges if rng.random() < 0.75]
        if len(edges) < 3:
            continue
        g = graph_from_edges(edges)
        m = maximum_matching(g)
        if len(m) < 3:
            continue
        r = cover_case_dispatch(g)
        kinds.add(r.case)
        hit += 1
        assert is_vertex_cover(g, r.cover)
        l = second_maximum_matching(g, m)
        assert len(r.cover) <= len(m) + max(len(l) - 1, 1)
    assert hit >= 20
    assert len(kinds) >= 3  # the battery should not be stuck in one case


# ---------------------------------------------------------------------------
# Single-edge clusters: Procedures 1-4
# ---------------------------------------------------------------------------

def _outcome_bound(out, singles, k, delta):
    """The size bound of an outcome's scope, as the outcome once carried it:
    Case I's 2t1'/3 + 8*delta*k, or the whole-graph ``cover_budget``."""
    if out.scope == "singles_only":
        return 2 * len(singles) / 3 + covers.SINGLES_SLOPE * delta * k
    return covers.cover_budget(k, delta)


def test_single_edges_case_one_covers_just_the_singles():
    g = graph_from_edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])  # P6
    out = cover_single_edge_clusters(g, singles=[0], vc_prime=[2, 4], k=30, delta=0.01)
    assert out.scope == "singles_only"
    assert sorted(out.cover) == [0, 1]
    assert out.matching_size == 1
    assert out.subcase is None
    assert len(out.cover) <= 2 * 1 / 3 + 8 * 0.01 * 30  # Case I: 2t1'/3 + 8*delta*k


def test_single_edges_case_two_on_three_disjoint_edges():
    g = graph_from_edges([(0, 1), (2, 3), (4, 5)])
    out = cover_single_edge_clusters(g, singles=[0, 1, 2], vc_prime=[], k=3, delta=0.01)
    assert out.scope == "full_graph"
    assert out.subcase == "few_planks"
    assert sorted(out.cover) == [0, 2, 4]
    assert is_vertex_cover(g, out.cover)
    # the whole-graph guarantee: 2k(1 - delta) when the matching fits in k
    assert len(out.cover) <= 2 * 3 - 2 * 0.01 * 3


def test_single_edges_few_planks_with_a_plank():
    # ten disjoint singles, and the covered edges (0, 20) and (1, 21): the
    # single (0, 1) is the one plank (1 < delta * k = 1.5), so the
    # few-planks cover takes both endpoints of its two neighbours, and the
    # nine other singles, which lean on nothing uncovered, one endpoint each
    edges = [(2 * i, 2 * i + 1) for i in range(10)] + [(0, 20), (1, 21)]
    g = Graph(22, tuple(edges))
    out = cover_single_edge_clusters(g, singles=range(10), vc_prime=[20, 21], k=150, delta=0.01)
    assert out.scope == "full_graph"
    assert out.subcase == "few_planks"
    assert out.matching_size == 11
    assert len(out.cover) == 13  # 2|M_G| - |M_N| = 2 * 11 - 9
    assert {0, 1, 20, 21} <= out.cover
    assert is_vertex_cover(g, out.cover)


def test_single_edges_many_planks():
    # three disjoint singles; the edge (4,5) gets claimed for touching two
    # live edges, the leftover singles become planks, and the cover takes
    # both endpoints of each
    g = graph_from_edges([(0, 1), (2, 3), (4, 5), (4, 6), (5, 7)])
    out = cover_single_edge_clusters(g, singles=[0, 1, 2], vc_prime=[6, 7], k=4, delta=0.01)
    assert out.scope == "full_graph"
    assert out.subcase == "many_planks"
    assert sorted(out.cover) == [0, 1, 2, 3, 4, 5]
    assert is_vertex_cover(g, out.cover)
    assert out.matching_size == 4
    assert len(out.cover) <= 2 * 4 - 2 * 0.01 * 4  # matching fits in k = 4


def test_single_edges_rejects_uncovered_nonsingles():
    g = graph_from_edges([(0, 1), (1, 2), (2, 3)])
    with pytest.raises(PreconditionViolated):
        cover_single_edge_clusters(g, singles=[0], vc_prime=[], k=5, delta=0.01)
    # a single that is not an edge index: past the end, or negative (-1
    # would alias edge 1)
    g = graph_from_edges([(0, 1), (2, 3)])
    for singles in ([0, 1, 7], [0, 1, -1]):
        with pytest.raises(PreconditionViolated, match="not edges of the graph"):
            cover_single_edge_clusters(g, singles=singles, vc_prime=[], k=5, delta=0.01)


def test_single_edges_random_battery():
    scopes = set()
    for seed in range(80):
        rng = random.Random(seed)
        base = random_triangle_free(9, 3, seed=seed)
        edges = [e for e in base.edges if rng.random() < 0.6]
        if len(edges) < 2:
            continue
        g = graph_from_edges(edges)
        m = g.num_edges
        sampled = set(rng.sample(range(m), rng.randint(1, max(1, m // 2))))
        rest = graph_from_edges([g.edges[i] for i in range(m) if i not in sampled]) \
            if len(sampled) < m else None
        vc_prime = min_vertex_cover(rest) if rest is not None else set()
        # the procedure takes exactly the singles that vc_prime misses
        singles = [i for i in sorted(sampled) if not set(g.edges[i]) & set(vc_prime)]
        if not singles:
            continue
        k = len(min_vertex_cover(g))
        out = cover_single_edge_clusters(g, singles, vc_prime, k=k, delta=0.01)
        scopes.add(out.scope)
        if out.scope == "full_graph":
            assert is_vertex_cover(g, out.cover)
            if out.matching_size <= k:
                assert len(out.cover) <= 2 * k - 2 * 0.01 * k + 1e-9
        else:
            # singles_only: whatever vc_prime missed must now be covered
            for i in singles:
                u, v = g.edges[i]
                if u not in vc_prime and v not in vc_prime:
                    assert u in out.cover or v in out.cover
    assert scopes == {"singles_only", "full_graph"}


def test_single_edge_outcomes_are_pinned():
    # the random battery's generator on seeds 0-299 with 5-12 vertices,
    # degree 1-4 and 80% of the edges kept, each case solved at k = 1, tau
    # and 50 and delta = 0, 0.01 and 0.5; the digest was generated by the
    # procedures that kept the unmatched singles, the live M_P edges and the
    # claimed endpoints as three sets beside the live one, recorded on numpy
    # 2.4.6 and Python 3.11.7
    records = []
    for seed in range(300):
        rng = random.Random(seed)
        n, degree = rng.randint(5, 12), rng.randint(1, 4)
        edges = [e for e in random_triangle_free(n, degree, seed=seed).edges if rng.random() < 0.8]
        if len(edges) < 2:
            continue
        g = graph_from_edges(edges)
        m = g.num_edges
        sampled = set(rng.sample(range(m), rng.randint(1, max(1, m // 2))))
        rest = graph_from_edges([g.edges[i] for i in range(m) if i not in sampled]) \
            if len(sampled) < m else None
        vc_prime = min_vertex_cover(rest) if rest is not None else set()
        singles = [i for i in sorted(sampled) if not set(g.edges[i]) & set(vc_prime)]
        if not singles:
            continue
        for k in (1, len(min_vertex_cover(g)), 50):
            for delta in (0.0, 0.01, 0.5):
                out = cover_single_edge_clusters(g, singles, vc_prime, k=k, delta=delta)
                records.append(
                    f"{out.scope} {sorted(out.cover)} "
                    f"{_outcome_bound(out, singles, k, delta).hex()} "
                    f"{out.matching_size} {out.subcase}"
                )
    assert len(records) == 2070
    counts = Counter(r.split()[-1] for r in records)
    assert counts == {"None": 938, "many_planks": 710, "few_planks": 422}
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == "7e60a8160eadb214ec9b6d98d26759d3ad12d2ee36ad01132eb2b7774312ca53"


def test_single_edge_procedures_that_pick_repeatedly_are_pinned():
    # denser graphs whose singles are every edge a random V' misses, so
    # Procedures 2, 3 and 4 each pick more than once in many records (2 in
    # 549, 3 in 92, 4 in 48), which the battery above never does; the digest
    # was generated by procedures that rescanned from their first candidate
    # after every pick, recorded on numpy 2.4.6 and Python 3.11.7
    records = []
    for seed in range(300):
        rng = random.Random(seed)
        g = random_triangle_free(rng.randint(14, 20), rng.randint(2, 3), seed=seed)
        vc_prime = [v for v in range(g.num_vertices) if rng.random() < 0.3]
        singles = [i for i, (u, v) in enumerate(g.edges) if u not in vc_prime and v not in vc_prime]
        if not singles:
            continue
        m = g.num_edges
        for k in (1, m // 4 + 1, m):
            for delta in (0.0, 0.01, 0.5):
                try:
                    out = cover_single_edge_clusters(g, singles, vc_prime, k=k, delta=delta)
                    records.append(
                        f"{out.scope} {sorted(out.cover)} "
                        f"{_outcome_bound(out, singles, k, delta).hex()} "
                        f"{out.matching_size} {out.subcase}"
                    )
                except MedcoverError as ex:
                    records.append(f"{type(ex).__name__}: {ex}")
    assert len(records) == 2700
    counts = Counter(r.split()[-1] for r in records)
    assert counts == {"None": 1194, "many_planks": 1035, "few_planks": 471}
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == "9f290e27841bca6ea10c80d091b401a1dc161f707efd5134ddf9dd4bd27e5232"


def test_construction_outcomes_are_pinned():
    # the four per-cluster constructions on the 444 non-star triangle-free
    # graphs up to 8 edges, connected or not: each outcome's sorted cover and
    # case, or the type and text of what it raised; the digest was generated
    # when each construction also reported its own bound and was handed the
    # median extra cost (the records of that version, rebuilt from these
    # covers and cases, gave its digest), recorded on numpy 2.4.6 and
    # Python 3.11.7
    nonstars = [g for g in enumerate_triangle_free(8, include_disconnected=True) if not is_star(g)]
    assert len(nonstars) == 444
    records = []
    for g in nonstars:
        for build in (cover_matching_two, cover_general, cover_case_dispatch, cover_nonstar_means):
            try:
                r = build(g)
                records.append(f"{sorted(r.cover)} {r.case}")
            except MedcoverError as ex:
                records.append(f"{type(ex).__name__}: {ex}")
    assert len(records) == 1776
    assert sum(r.startswith("PreconditionViolated") for r in records) == 451
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == "51d6c8c5ded96e7f1b4a77bf377d7edf24151fd7584088d7dbe1c5d5ce840df7"


# ---------------------------------------------------------------------------
# Means-side construction
# ---------------------------------------------------------------------------

def means_extra(g):
    return extra_cost(g, "means").value


def test_nonstar_means_frozen_cases():
    # within 2 + delta: 3 against delta = 1, and 2 against delta = 2/3
    g = graph_from_edges([(0, 1), (2, 3)])
    r = cover_nonstar_means(g)
    assert (sorted(r.cover), r.case, means_extra(g)) == ([0, 1, 2], "means", 1)
    g = graph_from_edges(P4)
    r = cover_nonstar_means(g)
    assert (sorted(r.cover), means_extra(g)) == ([1, 2], Fraction(2, 3))


def test_nonstar_means_requires_triangle_free():
    with pytest.raises(PreconditionViolated):
        cover_nonstar_means(graph_from_edges([(0, 1), (1, 2), (0, 2)]))


def test_nonstar_means_battery():
    for seed in range(30):
        g = random_triangle_free(7, 3, seed=seed)
        r = cover_nonstar_means(g)
        assert is_vertex_cover(g, r.cover)
        assert len(r.cover) <= 2 + means_extra(g)


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

def test_assemble_c5_frozen():
    g = graph_from_edges(C5)
    rep = soundness_assemble(g, [[0, 1, 2], [3, 4]], k=2, objective="median")
    assert (rep.t1, rep.t2, rep.t3, rep.t4) == (0, 1, 1, 0)
    assert sorted(rep.cover) == [0, 1, 3]
    assert rep.total_cover_size == 3
    assert rep.procedures_path == "direct"
    # no single-edge block, so the singles entry lists nothing and pays 0
    assert rep.per_cluster[-1].edges == () and rep.per_cluster[-1].charge == 0
    assert rep.predicted_ceiling == pytest.approx(3.302163, abs=1e-5)
    assert rep.epsilon == pytest.approx(2.0 - rep.predicted_ceiling / 2, abs=1e-12)
    assert is_vertex_cover(g, rep.cover)


@pytest.mark.parametrize("objective,cases", [
    ("median", ["matching_two", "|L| >= 3, F'' empty (1.6)", None, None, None]),
    ("means", ["means", "means", None, None, None]),
])
def test_ledger_entries_name_the_case_that_covered_the_block(objective, cases):
    # a 5-cycle (matching number two), a 7-vertex path (dispatch under the
    # median), a star and a single edge the union misses; only the non-star
    # blocks' entries name a case
    p7 = [(i, i + 1) for i in range(5, 11)]
    g = graph_from_edges(C5 + p7 + [(12, 13), (12, 14), (15, 16)])
    rep = soundness_assemble(g, [range(5), range(5, 11), [11, 12], [13]], k=4, objective=objective)
    assert [e.case for e in rep.per_cluster] == cases
    kinds = ["matching_two", "dispatch"] if objective == "median" else ["means", "means"]
    assert [e.kind for e in rep.per_cluster] == kinds + ["star", "single", "singles"]


def test_assemble_prunes_to_the_minimum_on_p4():
    g = graph_from_edges(P4)
    rep = soundness_assemble(g, [[0, 1], [2]], k=2, objective="median")
    assert (rep.t1, rep.t2) == (1, 1)
    # the union {1} + {2, 3} prunes to {1, 3}; the fallback's {1, 2} is
    # no smaller, so the union stays
    assert sorted(rep.cover) == [1, 3]
    assert rep.total_cover_size == 2
    assert rep.procedures_path == "procedures_fallback"


def test_assemble_means_objective():
    g = graph_from_edges([(0, 1), (2, 3)])
    rep = soundness_assemble(g, [[0], [1]], k=2, objective="means")
    assert sorted(rep.cover) == [1, 3]  # M_P's endpoints, pruned; the fallback's {0, 2} ties
    assert rep.predicted_ceiling == pytest.approx(2.0)


@pytest.mark.parametrize(
    "blocks",
    [
        [[0, 1, 2, 3, 4]],            # wrong block count for k=2
        [[0, 1], [2, 3]],             # edge 4 missing
        [[0, 1, 2], [3, 4, 4]],       # duplicate
        [[0, 1, 2], [3, 4, 9]],       # out of range
        [[0, 1, 2, 3, 4], []],        # empty block
    ],
)
def test_assemble_rejects_bad_partitions(blocks):
    g = graph_from_edges(C5)
    with pytest.raises(InvalidPartition):
        soundness_assemble(g, blocks, k=2, objective="median")


@pytest.mark.parametrize("index", [1.7, "1"])
def test_assemble_rejects_an_edge_index_that_is_not_an_integer(index):
    # int() would truncate 1.7 to 1 and parse "1"; either way the report
    # would describe a partition the caller never gave
    g = graph_from_edges(C5)
    with pytest.raises(InvalidPartition, match=f"^edge index {index!r} is not an integer$"):
        soundness_assemble(g, [[0, index, 2], [3, 4]], k=2)


def test_assemble_takes_numpy_integer_edge_indices():
    g = graph_from_edges(C5)
    blocks = [[np.int64(0), np.int32(1), np.intp(2)], [np.uint8(3), 4]]
    rep = soundness_assemble(g, blocks, k=2)
    assert rep == soundness_assemble(g, [[0, 1, 2], [3, 4]], k=2)
    assert [type(i) for e in rep.per_cluster for i in e.edges] == [int] * 5


@pytest.mark.parametrize("beta, message", [
    (0.5, "beta must be at least 1"),
    (math.nan, "beta \\* k must be finite"),
    (math.inf, "beta \\* k must be finite"),
    (1e308, "beta \\* k must be finite"),  # finite, but beta * 2 is not
])
def test_assemble_rejects_beta_below_one_or_not_finite(beta, message):
    # ceil(beta * k) would raise OverflowError on an infinite product
    with pytest.raises(ValueError, match=message):
        soundness_assemble(graph_from_edges(C5), [[0, 1, 2], [3, 4]], k=2, beta=beta)


def test_assemble_rejects_an_unknown_objective():
    with pytest.raises(ValueError, match=r"^objective must be one of \('median', 'means'\)$"):
        soundness_assemble(graph_from_edges(C5), [[0, 1, 2], [3, 4]], k=2, objective="mean")


@pytest.mark.parametrize("k", [0, -1])
def test_assemble_rejects_k_below_one(k):
    with pytest.raises(ValueError, match=f"^k must be at least 1, got {k}$"):
        soundness_assemble(Graph(0, ()), [], k=k)
    # k is checked first, so a bad beta does not hide it
    with pytest.raises(ValueError, match="k must be at least 1"):
        soundness_assemble(graph_from_edges(C5), [[0, 1, 2], [3, 4]], k=k, beta=math.nan)


@pytest.mark.parametrize("objective, solves", [("median", 2), ("means", 0)])
def test_assemble_solves_one_median_per_nonstar_block(monkeypatch, objective, solves):
    # a 5-cycle (matching number 2), a 7-vertex path (3), a star and a lone
    # edge: only the two non-star blocks are charged an extra cost, one each
    # under the report's objective, so the means solves no median
    g = graph_from_edges(C5 + [(5, 6), (6, 7), (7, 8), (8, 9), (9, 10), (10, 11),
                               (12, 13), (12, 14), (15, 16)])
    blocks = [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9, 10], [11, 12], [13]]
    counted = Counter()

    def counting(h, obj, *args, **kwargs):
        counted[h, obj] += 1
        return extra_cost(h, obj, *args, **kwargs)

    monkeypatch.setattr(covers, "extra_cost", counting)
    rep = soundness_assemble(g, blocks, k=4, objective=objective)
    assert (rep.t1, rep.t2, rep.t3, rep.t4) == (1, 1, 1, 1)
    assert sum(n for (_, obj), n in counted.items() if obj == "median") == solves
    assert sorted(counted.values()) == [1, 1]
    assert all(obj == objective for _, obj in counted)


@pytest.mark.parametrize("objective", ["median", "means"])
def test_assemble_matches_each_nonstar_block_once(monkeypatch, objective):
    # a 5-cycle (matching number 2), a 7-vertex path (dispatch under the
    # median), a star and a lone edge: one M search per non-star block,
    # read by its construction, and one L search for the dispatch block;
    # each non-star block is tested for triangles once, by its construction,
    # and g once, though the lone edge sends it to the singles procedures
    g = graph_from_edges(C5 + [(5, 6), (6, 7), (7, 8), (8, 9), (9, 10), (10, 11),
                               (12, 13), (12, 14), (15, 16)])
    blocks = [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9, 10], [11, 12], [13]]
    c5, p7 = (graphs.subgraph(g, b) for b in blocks[:2])
    l_search = [less(p7, maximum_matching(p7))] if objective == "median" else []
    searched = matching_searches(monkeypatch)
    tested = []
    monkeypatch.setattr(costs, "triangle_free_from_masks",
                        lambda nbrs, edges: tested.append(edges) or True)
    rep = soundness_assemble(g, blocks, k=4, objective=objective)
    assert [e.matching_number for e in rep.per_cluster] == [2, 3, 1, 1, 0]
    assert rep.per_cluster[-1].edges == (13,)
    assert searched == [c5.edges, p7.edges] + l_search
    assert tested == [g.edges, c5.edges, p7.edges]


def test_assemble_random_battery():
    for seed in range(25):
        rng = random.Random(seed)
        g = random_triangle_free(8, 3, seed=seed)
        m = g.num_edges
        k = rng.randint(1, max(1, m // 2))
        idx = list(range(m))
        rng.shuffle(idx)
        cuts = sorted(rng.sample(range(1, m), k - 1)) if k > 1 else []
        blocks = [idx[a:b] for a, b in zip([0] + cuts, cuts + [m])]
        rep = soundness_assemble(g, blocks, k=k, objective="median")
        assert is_vertex_cover(g, rep.cover)
        assert rep.total_cover_size == len(rep.cover)
        assert rep.t1 + rep.t2 + rep.t3 + rep.t4 == k


# The fallback fault of ROADMAP item 1: the full-graph fallback's cover,
# pruned, is larger than the union cover, which meets the ceiling, so the
# union is kept

def _reference_prune(g, cover):
    """The report's prune, done the plain way: drop each vertex in ascending
    order when the rest still covers every edge of g."""
    pruned = set(cover)
    for v in sorted(cover):
        if is_vertex_cover(g, pruned - {v}):
            pruned.discard(v)
    return pruned


def _pruned_fallback(g, rep, k):
    """The procedures' whole-graph cover, pruned, rebuilt from a report that
    kept the union: the singles entry's edges against the blocks' covers."""
    *blocks, singles = rep.per_cluster
    assert (singles.kind, singles.kept) == ("singles", "union")
    union = set().union(*(e.cover for e in blocks))
    out = cover_single_edge_clusters(g, singles.edges, union, k, rep.delta)
    assert out.scope == "full_graph" and singles.cover == out.singles_cover
    return _reference_prune(g, out.cover)


def test_the_means_spider_fallback_exceeds_the_ceiling_its_union_meets():
    g = graph_from_edges([(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 8), (4, 6), (5, 7)])
    assert len(min_vertex_cover(g)) == 4
    oracle, rep = cli._round_trip(g, 4, 4, "means", beta=1.0, delta=0.01)
    assert oracle.partition == ((0, 1, 2), (3, 6), (4, 7), (5,))  # three stars and (3, 8)
    assert rep.procedures_path == "procedures_fallback"
    assert len(_pruned_fallback(g, rep, 4)) == 5
    # the star centers 0, 4, 5 and M_P's {3, 8}, pruned in ascending order
    assert (rep.total_cover_size, rep.predicted_ceiling) == (4, 4.0)
    assert rep.cover == {0, 4, 5, 8}


def test_a_seven_edge_means_fallback_exceeds_the_ceiling_its_union_meets():
    g = graph_from_edges([(0, 1), (0, 2), (0, 4), (1, 3), (2, 3), (3, 5), (4, 5)])
    assert len(min_vertex_cover(g)) == 3
    # the stars at 0 and at 3, and the single edge (4, 5)
    rep = soundness_assemble(g, [[0, 1, 2], [3, 4, 5], [6]], k=3, objective="means", delta=0.01)
    assert rep.procedures_path == "procedures_fallback"
    assert len(_pruned_fallback(g, rep, 3)) == 4
    assert (rep.total_cover_size, rep.predicted_ceiling) == (3, 3.0)
    assert rep.cover == {0, 3, 5}


# The ledger: one entry per block, in block order, then the singles entry

def _catalogue_runs(max_edges):
    """Every connected catalogue graph up to ``max_edges`` edges at every
    k <= tau, median then means, each through ``cli._round_trip`` at beta 1
    and delta 0.01."""
    for g in enumerate_triangle_free(max_edges):
        tau = len(min_vertex_cover(g))
        for objective in ("median", "means"):
            for k in range(1, tau + 1):
                yield g, k, objective, cli._round_trip(g, k, k, objective, 1.0, 0.01)[1]


def test_the_ledger_adds_up_on_every_catalogue_run():
    ceilings = []
    for g, k, objective, rep in _catalogue_runs(7):
        *blocks, singles = rep.per_cluster
        assert len(blocks) == k and singles.kind == "singles"
        assert sorted(i for e in blocks for i in e.edges) == list(range(g.num_edges))
        nonstar = {"median": {"matching_two": rep.t3, "dispatch": rep.t4},
                   "means": {"means": rep.t3 + rep.t4}}[objective]
        assert +Counter(e.kind for e in blocks) == +Counter(single=rep.t1, star=rep.t2, **nonstar)
        nus = Counter(min(e.matching_number, 3) for e in blocks)
        assert (nus[2], nus[3]) == (rep.t3, rep.t4)
        for e in rep.per_cluster:
            row = covers.CHARGES[objective, e.kind]
            per = (0.01 * k if e.edges else 0) if e is singles else 1
            assert (e.constant, e.slope) == (row.constant * per, row.slope)
            assert e.charge == e.constant + e.slope * e.extra
        assert math.isclose(rep.predicted_ceiling, math.fsum(e.charge for e in rep.per_cluster),
                            abs_tol=1e-12)
        # the report's cover is the pruned union of the entries' covers, or
        # the pruned fallback when the singles entry says it was kept
        union = set().union(*(e.cover for e in rep.per_cluster))
        used = singles.cover if singles.kept == "fallback" else union
        assert singles.kept in ("union", "fallback")
        assert rep.cover == _reference_prune(g, used)
        assert singles.kept == "union" or rep.procedures_path == "procedures_fallback"
        ceilings.append(rep.predicted_ceiling.hex())
    assert len(ceilings) == 396
    # the ceilings' floats, bit for bit: as the per-category formulas gave
    # them, except that a singles entry listing no edges no longer pays
    # 8*delta*k, which moved only those median runs' ceilings
    digest = hashlib.sha256("\n".join(ceilings).encode()).hexdigest()
    assert digest == "bf4db89305ac4d05387f257ec8ef2433d23364afb114808582122fc66fab0628"


def _round_trip_record(g, k, objective, beta, rep):
    head = (g.edges, k, objective, beta.hex(), sorted(rep.cover), rep.procedures_path,
            rep.t1, rep.t2, rep.t3, rep.t4, rep.predicted_ceiling.hex())
    ledger = [(e.kind, e.edges, sorted(e.cover), e.case, e.kept) for e in rep.per_cluster]
    return repr((head, ledger))


def test_the_round_trip_is_pinned_on_every_catalogue_run():
    # every connected catalogue graph up to 7 edges at every k <= tau, both
    # objectives, beta 1 and 1.5 where ceil(beta * k) blocks fit in the
    # edges, delta 0.01: each run's cover, path, counts, ceiling and ledger,
    # bit for bit, as the per-block assembly that built a Block for every
    # block gave them
    records = []
    for g in enumerate_triangle_free(7):
        tau = len(min_vertex_cover(g))
        for objective in ("median", "means"):
            for beta in (1.0, 1.5):
                for k in range(1, tau + 1):
                    blocks = covers.block_count(beta, k)
                    if blocks <= g.num_edges:
                        rep = cli._round_trip(g, k, blocks, objective, beta, 0.01)[1]
                        records.append(_round_trip_record(g, k, objective, beta, rep))
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert (len(records), digest) == (
        790, "ce0553e88d680a1662b0e9961c336bbec3f3eb5d3d67a96e98e55836e586fac7")


def test_the_means_ceiling_charges_every_block_it_has():
    # ceil(1.5 * 3) = 5 blocks of C5, each a single edge charged 1
    rep = soundness_assemble(graph_from_edges(C5), [[i] for i in range(5)], k=3, beta=1.5,
                             objective="means")
    assert [e.charge for e in rep.per_cluster] == [1, 1, 1, 1, 1, 0.0]
    assert (rep.predicted_ceiling, rep.epsilon) == (5.0, 2 - 5 / 3)


def test_the_median_ceiling_reads_the_table():
    g = graph_from_edges(C5 + [(5, 6), (6, 7), (7, 8), (8, 9), (9, 10), (10, 11),
                               (12, 13), (12, 14), (15, 16)])
    blocks = [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9, 10], [11, 12], [13]]
    rep = soundness_assemble(g, blocks, k=4)
    assert [e.kind for e in rep.per_cluster] == [
        "matching_two", "dispatch", "star", "single", "singles"]
    two, three = rep.per_cluster[:2]
    assert rep.predicted_ceiling == (
        covers.SINGLE_EDGE_CHARGE + covers.SINGLES_SLOPE * 0.01 * 4 + 1
        + covers.MATCHING_TWO_CHARGE + covers.DISPATCH_CHARGE
        + SQRT2P1 * (0.0 + two.extra + three.extra)
    )


def test_the_smallest_median_witness_exceeds_its_ceiling():
    # one edge at k = 1: its single-edge block pays SINGLE_EDGE_CHARGE and
    # the singles entry 8*delta*k, a ceiling of 0.67 + 0.08 = 0.75 under a
    # cover of 1 = tau. The 0.67 is an amortised charge, not a bound on one
    # block (ROADMAP item 1), so this test changes when item 1 corrects it.
    g = graph_from_edges([(0, 1)])
    rep = soundness_assemble(g, [[0]], k=1, objective="median", delta=0.01)
    assert [e.kind for e in rep.per_cluster] == ["single", "singles"]
    assert [e.charge for e in rep.per_cluster] == pytest.approx([0.67, 0.08])
    assert rep.predicted_ceiling == pytest.approx(0.75)
    assert rep.total_cover_size == len(min_vertex_cover(g)) == 1


# ---------------------------------------------------------------------------
# Proof obligations raise Stuck (they survive python -O)
#
# Two obligations cannot be reached even with a helper patched, so they have
# no test here: cover_general's |M| + |L| - 1 size check (it follows from
# counting once the matchings are consistent) and Procedure 1's "far matching
# leaves the singles matching alone" (the far graph has no edge on a vertex
# of the singles matching).
# ---------------------------------------------------------------------------

def _always(value):
    return lambda *args, **kwargs: value


def test_stuck_when_the_c5_alternate_vertices_are_not_a_cover(monkeypatch):
    c5 = graph_from_edges(C5)
    monkeypatch.setattr(covers, "is_vertex_cover", _always(False))
    with pytest.raises(Stuck, match="5-cycle"):
        cover_matching_two(c5)


def test_stuck_when_the_bridge_edge_misses_the_matching():
    # the dispatch only passes bridges of M-deleted graphs, which a maximum
    # M always meets; an edge on two isolated vertices does not
    g = Graph(8, ((0, 1), (2, 3), (4, 5)))
    with pytest.raises(Stuck, match="bridge edge not incident on the maximum matching"):
        covers._cover_via_bridge_residual(g, maximum_matching(g), (6, 7))


def test_stuck_when_a_dispatch_case_exceeds_its_ceiling(monkeypatch):
    g = graph_from_edges([(0, 1), (0, 2), (0, 3), (1, 4), (2, 5)])  # |M| = 3, |L| = 1
    monkeypatch.setattr(covers, "_general_cover", _always(set(range(g.num_vertices))))
    with pytest.raises(Stuck, match=r"case \|L\| = 1 \(1.8\) used 6 > 3"):
        cover_case_dispatch(g)


def test_stuck_when_the_singles_matching_misses_a_single(monkeypatch):
    g = graph_from_edges([(0, 1)])
    monkeypatch.setattr(covers, "greedy_matching_indices", _always([]))
    with pytest.raises(Stuck, match="miss a single edge"):
        cover_single_edge_clusters(g, [0], [], k=1, delta=1.0)


def test_stuck_when_plank_neighbours_share_a_vertex(monkeypatch):
    # only a triangle lets the two fresh neighbours of a plank meet
    monkeypatch.setattr(costs, "triangle_free_from_masks", _always(True))
    g = graph_from_edges([(0, 1), (0, 2), (1, 2)])
    with pytest.raises(Stuck, match="plank neighbours"):
        cover_single_edge_clusters(g, [0], [2], k=1, delta=0.0)


@pytest.mark.parametrize("delta,subcase", [(0.0, "many-planks"), (1e-9, "few-planks")])
def test_stuck_when_the_procedures_ledger_breaks(monkeypatch, delta, subcase):
    # a far "matching" whose two edges share vertex 3 breaks 2|M_G| - savings
    g = graph_from_edges([(0, 1), (2, 3), (3, 4)])
    real = covers.greedy_matching_indices
    calls = []

    def greedy(edges):
        calls.append(edges)
        return real(edges) if len(calls) == 1 else [0, 1]

    monkeypatch.setattr(covers, "greedy_matching_indices", greedy)
    with pytest.raises(Stuck, match=subcase):
        cover_single_edge_clusters(g, [0], [3], k=1, delta=delta)


def test_stuck_when_the_means_cover_is_not_a_cover(monkeypatch):
    monkeypatch.setattr(covers, "is_vertex_cover", _always(False))
    with pytest.raises(Stuck, match="non-cover"):
        cover_nonstar_means(graph_from_edges(P4))


@pytest.mark.parametrize("edges,bound", [
    ([(0, 1), (2, 3), (4, 5)], r"2 \+ delta"),  # a 3-vertex cover against delta = 0
])
def test_stuck_when_the_means_cover_exceeds_its_bound(monkeypatch, edges, bound):
    monkeypatch.setattr(costs, "one_means_cost", lambda g: Fraction(g.num_edges - 1))
    with pytest.raises(Stuck, match=bound):
        cover_nonstar_means(graph_from_edges(edges))

