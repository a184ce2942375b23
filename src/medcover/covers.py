"""Constructive vertex-cover extraction from clusterings.

Each cluster of edges gets a cover whose size is charged against the
cluster's extra cost over the star baseline. The constructions take only
the cluster and return its cover and the case that built it; the ledger
alone charges it. Each takes a ``Graph`` or a ``costs.Block`` and reads the
cluster's facts (the triangle test, the star center, the matchings M and
L, the class, the means extra cost) from its ``Block``, so a caller that
holds the ``Block``, as ``soundness_assemble`` and ``suites.suite_covers``
do, finds each fact once however many constructions read it. A star
cluster is covered by one vertex (its center), a non-star cluster with
matching number two by two vertices (three for the 5-cycle), and larger
non-star clusters go through a case analysis on the second maximum
matching L (the maximum matching of the graph after the first matching's
edges are deleted).
Single-edge clusters that no other cluster's cover happens to touch are
handled collectively: either a matching of their union is small and its
endpoints suffice, or a four-stage pruning construction (Procedures 1-4
below) produces a cover of the *whole* graph of size 2k - 2*delta*k
directly.

``soundness_assemble`` stitches the per-cluster covers into a whole-graph
cover and reports the ledger: one entry per block and one for the
single-edge blocks as a group, each with the cover used and the charge it
pays, the realized cover size, and the predicted ceiling for the supplied
(beta, delta), the sum of those charges. The charges are read from one
table, ``CHARGES``. The ceiling is a prediction, not a certificate: the
median one is exceeded on some catalogue runs (ROADMAP item 1). Only a
non-star block is wrapped in a ``Block`` there: single edges and stars are
read off g's edge list. Every test that a vertex set covers the whole
graph, in the prune, the final check and ``cover_single_edge_clusters``,
reads the neighbour masks of g's one ``Block`` (``is_cover_from_masks``).
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence

from .costs import Block, Cluster, Number, as_block, extra_cost
from .errors import InvalidPartition, PreconditionViolated, Stuck
from .graphs import (
    ClassTag,
    Edge,
    Graph,
    Matching,
    bridge_from_masks,
    common_vertex,
    greedy_matching_indices,
    is_cover_from_masks,
    is_vertex_cover,
    konig_cover,
    maximum_matching,
    second_maximum_matching,
    subgraph,
)
from .reduction import check_delta, check_objective

SQRT2P1 = math.sqrt(2.0) + 1.0

SINGLE_EDGE_CHARGE = 0.67  # per single-edge cluster; not Case I's 2t1'/3
MATCHING_TWO_CHARGE = 1.62  # per non-star cluster with matching number two
DISPATCH_CHARGE = 1.8  # per non-star cluster with matching number >= 3
MEANS_SLOPE = Fraction(5, 2)  # a means cover holds 1 + MEANS_SLOPE * delta(F)
SINGLES_SLOPE = 8  # Case I's 8*delta*k for uncovered singles; its threshold takes half


class Charge(NamedTuple):
    """One row of the soundness ledger: an entry pays ``constant`` plus
    ``slope`` times its block's extra cost."""

    constant: Number
    slope: Number

    def of(self, extra: Number) -> Number:
        return self.constant + self.slope * extra


# The soundness ledger's charges, keyed by objective and entry kind, each
# written once: ``soundness_assemble``'s ledger and ``suites.suite_covers``
# read this table. The one "singles" entry pays its constant times delta * k
# when it lists edges, and 0 when it lists none. The ceiling adds the kinds
# in this order.
CHARGES = {
    ("median", "single"): Charge(SINGLE_EDGE_CHARGE, 0),
    ("median", "singles"): Charge(SINGLES_SLOPE, 0),
    ("median", "star"): Charge(1, 0),
    ("median", "matching_two"): Charge(MATCHING_TWO_CHARGE, SQRT2P1),
    ("median", "dispatch"): Charge(DISPATCH_CHARGE, SQRT2P1),
    ("means", "single"): Charge(1, 0),
    ("means", "singles"): Charge(0, 0),
    ("means", "star"): Charge(1, 0),
    ("means", "means"): Charge(1, MEANS_SLOPE),
}
KINDS = tuple(dict.fromkeys(kind for _, kind in CHARGES))


@dataclass(frozen=True)
class CoverResult:
    """A construction's vertex cover of one cluster, and ``case``, what
    built it: the construction ("matching_two", "general" or "means"), or
    the row of ``cover_case_dispatch``'s table that fired, such as
    "|L| = 0 (0.551)", which also names that row's constant. What the
    cover is charged is the ledger's to say (``CHARGES``)."""

    cover: frozenset[int]
    case: str


@dataclass(frozen=True)
class SingleEdgeCoverOutcome:
    """Result of the collective single-edge-cluster step.

    scope "singles_only": ``cover`` covers just the uncovered single-edge
    clusters (size <= 2*t1'/3 + 8*delta*k). scope "full_graph": the
    procedures fallback fired and ``cover`` covers the entire graph (size
    <= ``cover_budget(k, delta)``, 2k - 2*delta*k, whenever the graph's
    matching number is <= k; ``matching_size`` reports the witness matching
    |M_G|). In both scopes ``singles_cover`` holds both endpoints of the
    singles' greedy matching M_P, which cover the uncovered single-edge
    clusters (in scope "singles_only" it is ``cover``)."""

    scope: str
    cover: frozenset[int]
    matching_size: int
    subcase: Optional[str]
    singles_cover: frozenset[int]


@dataclass(frozen=True)
class LedgerEntry:
    """One line of the soundness ledger.

    A block's entry gives its edge indices, its ``kind`` ("single", "star",
    "matching_two" or "dispatch" under the median objective; "single",
    "star" or "means" under the means), its matching number, the cover used
    for it, and the ``charge`` it pays in the ceiling: ``constant`` +
    ``slope`` * ``extra``, its extra cost (0 for single edges and stars),
    with ``constant`` and ``slope`` read from ``CHARGES``. A single-edge
    block holds no cover of its own: another block's cover or the singles
    entry covers it.

    The one "singles" entry closes the ledger, with matching number 0 and
    no extra cost. Its edges are the single-edge blocks no other block's
    cover touches. When it lists any, its constant is its ``CHARGES`` row's
    times delta * k: under the median the 8*delta*k of Case I of
    ``cover_single_edge_clusters``, its term for those uncovered singles,
    and 0 under the means. When it lists none it pays 0. ``kept`` names
    the cover the report used for its edges: "union", both endpoints of
    their greedy matching M_P (none when there are no such edges), or
    "fallback", the procedures' whole-graph cover, which the report then
    prunes in place of the union. ``cover`` holds that cover. ``kept`` is
    None on a block's entry.

    ``case`` is the ``CoverResult.case`` of a non-star block's cover: the
    construction ("matching_two" or "means"), or the row of
    ``cover_case_dispatch``'s table that fired, such as "|L| = 0 (0.551)".
    It is None on single, star and singles entries, which no construction
    covers."""

    kind: str
    edges: tuple[int, ...]
    matching_number: int
    cover: frozenset[int]
    constant: Number
    slope: Number
    extra: Number
    charge: Number
    kept: Optional[str] = None
    case: Optional[str] = None


@dataclass(frozen=True)
class SoundnessReport:
    """Whole-graph cover ledger for one clustering.

    ``per_cluster`` holds one ``LedgerEntry`` per block, in block order, and
    then the singles entry. t1/t2 count the single-edge and star entries;
    t3/t4 count the non-star entries with matching number exactly two / at
    least three. The ``predicted_ceiling`` is the sum of the entries'
    charges for the supplied (delta, beta), and ``epsilon`` = 2 - ceiling/k
    the soundness slack it predicts at that ``delta``. It is not certified:
    the median ceiling is exceeded on catalogue runs whose minimum cover
    already exceeds it (ROADMAP item 1)."""

    t1: int
    t2: int
    t3: int
    t4: int
    total_cover_size: int
    per_cluster: tuple[LedgerEntry, ...]
    procedures_path: str
    epsilon: float
    delta: float
    beta: float
    cover: frozenset[int]
    predicted_ceiling: float


def require_triangle_free(g: Cluster) -> None:
    """Raise ``PreconditionViolated`` unless g, a ``Graph`` or a ``Block``,
    is triangle-free: the precondition of every construction here."""
    if not as_block(g).triangle_free:
        raise PreconditionViolated("cover constructions assume a triangle-free graph")


def _require_non_star(b: Block, what: str) -> None:
    if b.center is not None or b.num_edges < 2:
        raise PreconditionViolated(f"{what} needs a non-star graph")


def _touches(e: Edge, f: Edge) -> bool:
    return e[0] in f or e[1] in f


# ---------------------------------------------------------------------------
# Matching-number-two clusters
# ---------------------------------------------------------------------------

def cover_matching_two(g: Cluster) -> CoverResult:
    """Cover of size two for any triangle-free cluster with matching number
    exactly two, except the 5-cycle which genuinely needs three.

    A two-vertex cover must take one endpoint from each matching edge, so the
    case analysis reduces to scanning those four candidate pairs; when none
    works the graph must be the 5-cycle and three alternating cycle vertices
    do it. The matching is the block's M.
    """
    b = as_block(g)
    require_triangle_free(b)
    m = b.matching
    if len(m) != 2:
        raise PreconditionViolated(f"matching number is {len(m)}, need exactly 2")
    g = b.graph
    (a1, b1), (a2, b2) = m.edges
    pairs = ((a1, a2), (a1, b2), (b1, a2), (b1, b2))
    cover = next((frozenset(c) for c in pairs if is_vertex_cover(g, c)), None)
    if cover is None:
        cls = b.cls
        if cls.tag is not ClassTag.C5:
            raise Stuck("triangle-free matching-2 graph with no 2-cover that is not a 5-cycle")
        cyc = cls.witness["cycle"]
        cover = frozenset((cyc[0], cyc[2], cyc[4]))
        if not is_vertex_cover(g, cover):
            raise Stuck(f"alternate vertices {sorted(cover)} of the 5-cycle are not a cover")
    return CoverResult(cover, "matching_two")


# ---------------------------------------------------------------------------
# General |M| + |L| - 1 construction
# ---------------------------------------------------------------------------

def cover_general(g: Cluster) -> CoverResult:
    """Cover of size at most |M| + |L| - 1, case "general": ``_general_cover``'s
    on the block's M, its maximum matching, and L, the maximum matching of
    g minus M's edges. A graph with a triangle, a star, or a graph whose L
    is empty raises ``PreconditionViolated``."""
    b = as_block(g)
    require_triangle_free(b)
    m, l = b.matching, b.second_matching
    _require_non_star(b, "general cover construction")
    if len(l) < 1:
        raise PreconditionViolated("needs a second matching with at least one edge")
    return CoverResult(frozenset(_general_cover(b.graph, m, l)), "general")


def _general_cover(g: Graph, m: Matching, l: Matching) -> set[int]:
    """Cover of size at most |M| + |L| - 1, for a maximum matching M and a
    second maximum matching L with at least one edge, of a non-star graph
    (its callers check these).

    Take both endpoints of every L-edge but the last, delete what they cover,
    and look at the residue: its non-M edges must form a star (else L was not
    maximum in the M-deleted graph). With R the surviving M-edges, either
    |R| <= |M| - |L| (cover the star by its center, one vertex per R-edge) or
    |R| = |M| - |L| + 1 (each star edge leans on a distinct R-edge; pick the
    shared endpoints). |R| >= |M| - |L| + 2 would contradict M's maximality,
    so reaching it raises instead of covering. g must be triangle-free; its
    callers check it.
    """
    s: set[int] = {v for e in l.edges[:-1] for v in e}
    live = [e for e in g.edges if e[0] not in s and e[1] not in s]
    m_set = set(m.edges)
    red = [e for e in live if e in m_set]
    non_red = [e for e in live if e not in m_set]
    u = common_vertex(non_red)
    if u is None:
        raise Stuck("residue's non-matching edges should form a nonempty star")

    slack = len(m) - len(l)
    if len(red) <= slack:
        cover = s | {u} | {min(e) for e in red}
    elif len(red) == slack + 1:
        cover = set(s)
        for e in red:
            shared = [v for v in e if any(v in f for f in non_red)]
            cover.add(shared[0] if shared else min(e))
    else:
        raise Stuck(
            f"{len(red)} surviving matching edges alongside {len(l) - 1} removed "
            "second-matching edges would exceed the maximum matching"
        )
    if not is_vertex_cover(g, cover):
        raise Stuck("general construction produced a non-cover")
    if len(cover) > len(m) + len(l) - 1:
        raise Stuck(f"general construction used {len(cover)} > |M| + |L| - 1 vertices")
    return cover


# ---------------------------------------------------------------------------
# Case dispatch for matching number >= 3
# ---------------------------------------------------------------------------

def _cover_via_bridge_residual(g: Graph, m: Matching, b: Edge) -> set[int]:
    """|L| = 2 with the M-deleted graph F' a bridge graph with bridge edge
    ``b``: cover of size |M|.

    One bridge endpoint u must meet a matching edge; taking u, the rest of
    the graph has maximum matching M minus that edge and a star residue, so
    the general construction finishes with |M| - 1 more vertices. The
    residue's second matching has exactly one edge: it is a maximum matching
    of F' minus the edges at u, and that is exactly the far star of the
    bridge graph F' (p, q >= 1), which has at least one edge. If b meets no
    M-edge, that second matching is not one edge, or M minus that edge is
    not a maximum matching of the rest, it raises ``Stuck``.
    """
    e_star = None
    u = None
    for e in m.edges:
        shared = set(e) & set(b)
        if shared:
            e_star, u = e, min(shared)
            break
    if e_star is None:
        raise Stuck("bridge edge not incident on the maximum matching")
    g_rest = Graph(g.num_vertices, tuple(e for e in g.edges if u not in e))
    rest = [(i, e) for i, e in enumerate(g_rest.edges) if e in m.edges]  # M less e_star
    m_rest = Matching(tuple(i for i, _ in rest), tuple(e for _, e in rest))
    l_rest = second_maximum_matching(g_rest, m_rest)
    if len(l_rest) != 1:
        raise Stuck("bridge-case residue should have second matching of size one")
    if len(maximum_matching(g_rest)) != len(m_rest):
        raise Stuck("M less the bridge's matching edge is not a maximum matching of the rest")
    return {u} | _general_cover(g_rest, m_rest, l_rest)


def cover_case_dispatch(g: Cluster) -> CoverResult:
    """Constructive cover for a non-star triangle-free cluster with matching
    number at least three, whose ``case`` names the row below that fired
    and its constant. Writing F' for the graph minus the maximum matching's
    edges and F'' for F' additionally minus the second matching's edges:

      |L| = 0                      -> the graph is |M| disjoint edges; one
                                      endpoint each (constant 0.551)
      |L| = 1                      -> general construction, size |M| (1.8)
      |L| = 2, F' bridge           -> bridge-endpoint recursion, size |M| (1.53)
      |L| = 2, F' non-bridge       -> general construction, |M| + 1 (1.68)
      |L| >= 3, F'' empty          -> the graph is two matchings: bipartite,
                                      Koenig cover of size |M| (1.6)
      |L| >= 3, F'' a star         -> star center + Koenig on the surviving
                                      two-matching remainder, <= |M| + 1 (1.68)
      |L| >= 3, F'' bridge         -> both bridge endpoints + Koenig, <= |M| + 1 (1.4)
      |L| >= 3, F'' non-star,
                non-bridge         -> general construction, <= |M| + |L| - 1 (1.6)

    Each row's constant is its own bound's, c + (sqrt(2)+1) * delta(F) with
    delta(F) the cluster's median extra cost. The ledger charges every row
    the largest, DISPATCH_CHARGE (1.8). M and L are the block's.
    """
    b = as_block(g)
    require_triangle_free(b)
    _require_non_star(b, "dispatch")
    m = b.matching
    if len(m) < 3:
        raise PreconditionViolated(f"matching number is {len(m)}, need >= 3")
    l = b.second_matching
    g = b.graph

    def result(cover: set[int], case: str, ceiling: int) -> CoverResult:
        if not is_vertex_cover(g, cover):
            raise Stuck(f"case {case} produced a non-cover")
        if len(cover) > ceiling:
            raise Stuck(f"case {case} used {len(cover)} > {ceiling} vertices")
        return CoverResult(frozenset(cover), case)

    def less(dropped: tuple[Edge, ...]) -> tuple[list[Edge], Optional[tuple]]:
        """g's edges less ``dropped`` (F' or F''), in index order, and their
        ``bridge_structure``, on the block's masks with the dropped ends cut."""
        cut: dict[int, int] = {}
        for u, v in dropped:
            cut[u] = cut.get(u, 0) | 1 << v
            cut[v] = cut.get(v, 0) | 1 << u
        rest = [e for e in g.edges if e not in dropped]
        return rest, bridge_from_masks(b.nbrs, rest, len(rest), cut)

    if len(l) == 0:
        return result({min(e) for e in m.edges}, "|L| = 0 (0.551)", len(m))
    if len(l) == 1:
        return result(_general_cover(g, m, l), "|L| = 1 (1.8)", len(m))
    if len(l) == 2:
        _, bridge = less(m.edges)
        if bridge is not None:
            cover = _cover_via_bridge_residual(g, m, bridge[0])
            return result(cover, "|L| = 2, F' bridge (1.53)", len(m))
        return result(_general_cover(g, m, l), "|L| = 2, F' non-bridge (1.68)", len(m) + 1)

    ml_edges = m.edges + l.edges
    f_pp, bridge = less(ml_edges)
    if not f_pp:
        return result(konig_cover(g), "|L| >= 3, F'' empty (1.6)", len(m))
    c = common_vertex(f_pp)
    if c is not None:
        survivors = Graph(g.num_vertices, tuple(e for e in ml_edges if c not in e))
        return result({c} | konig_cover(survivors), "|L| >= 3, F'' a star (1.68)", len(m) + 1)
    if bridge is not None:
        (u, v), _p, _q = bridge
        survivors = Graph(g.num_vertices, tuple(e for e in ml_edges if u not in e and v not in e))
        return result({u, v} | konig_cover(survivors), "|L| >= 3, F'' bridge (1.4)", len(m) + 1)
    cover = _general_cover(g, m, l)
    return result(cover, "|L| >= 3, F'' non-star, non-bridge (1.6)", len(m) + len(l) - 1)


# ---------------------------------------------------------------------------
# Single-edge clusters: Procedures 1-4
# ---------------------------------------------------------------------------

def cover_budget(k: int, delta: float) -> float:
    """2k - 2*delta*k: the size a Case II cover of ``cover_single_edge_clusters``
    is held to, and the soundness budget of any extracted cover for a graph
    with a vertex cover of size k."""
    return 2 * k - 2 * delta * k


def cover_single_edge_clusters(
    g: Cluster,
    singles: Iterable[int],
    vc_prime: Iterable[int],
    k: int,
    delta: float,
) -> SingleEdgeCoverOutcome:
    """Cover the single-edge clusters that vc_prime misses.

    G_P is their union. With M_P a greedy maximal matching of G_P:

    Case I (|M_P| <= t1'/3 + 4*delta*k): both endpoints of M_P cover G_P.

    Case II: a cover of the WHOLE graph is built instead. A matching M_G of
    g is grown in four stages — (1) a maximal matching of the part of the
    graph away from M_P, both endpoints; (2) matched G_P edges leaning on
    two unmatched G_P edges, both endpoints; (3) unmatched G_P edges leaning
    on two matched ones, both endpoints of one; (4) remaining M_P edges with
    fresh disjoint neighbours on both sides ("plank" edges) route those two
    neighbours into M_G instead. Every edge of M_G then contributes both
    endpoints except: either each plank edge saves its two neighbours'
    double-count, or each surviving non-plank edge contributes only the
    endpoint its leftover neighbours lean on. Both ledgers give
    2|M_G| - (savings), which is at most 2k - 2*delta*k when the graph's
    matching number is at most k.

    Case II keeps one live edge set: G_P and the edges touching M_P, less
    every edge that touches an edge claimed into M_G by Procedures 1-3.
    Nothing is claimed after Procedure 3, so Procedure 4 reads its blue
    edges (live, not in M_P) from it once. Procedures 2-4 each make one pass
    over their candidates in index order, against the live set and T (the
    plank neighbours' vertices taken so far) as they stand. A pick only
    removes edges from the live set or adds vertices to T, so each test can
    only go from true to false while its procedure runs: two live unmatched
    singles at a matched edge (2), two live matched edges at an unmatched
    single (3), a fresh blue neighbour at both ends (4). An edge that fails
    at its turn would fail at every later rescan, so the pass picks what
    rescanning from the first candidate after every pick would, in the same
    order.

    A single that is not an edge index of g, a covered single, or an
    uncovered edge outside the singles raises ``PreconditionViolated``. g
    may be a ``Block``, whose triangle test and neighbour masks are then
    read, not found again. Both cover checks are whole-graph tests on those
    masks: vc_prime covers every edge but the singles and none of them, so
    M_P's endpoints cover G_P exactly when, with vc_prime, they cover g.
    M_P and Procedure 1's matching are ``greedy_matching_indices`` of edge
    lists, so no ``Graph`` of G_P or of the far part is built.
    """
    b = as_block(g)
    require_triangle_free(b)
    g = b.graph
    single_set = set(singles)
    outside = sorted(single_set.difference(range(g.num_edges)))
    if outside:
        raise PreconditionViolated(f"single-edge clusters {outside} are not edges of the graph")
    vcp = set(vc_prime)
    vcp_mask = _mask(vcp.intersection(range(g.num_vertices)))
    for i, e in enumerate(g.edges):
        covered = e[0] in vcp or e[1] in vcp
        if i in single_set and covered:
            raise PreconditionViolated(f"single-edge cluster {i} is already covered")
        if i not in single_set and not covered:
            raise PreconditionViolated(f"edge {i} outside the singles is uncovered")

    edges = g.edges
    t1p = len(single_set)
    order = sorted(single_set)
    mp = {order[j] for j in greedy_matching_indices([edges[i] for i in order])}

    mp_verts = frozenset(v for i in mp for v in edges[i])
    if not is_cover_from_masks(b.nbrs, vcp_mask | _mask(mp_verts)):
        raise Stuck("endpoints of the maximal singles matching miss a single edge")
    if len(mp) <= t1p / 3 + SINGLES_SLOPE * delta * k / 2:
        return SingleEdgeCoverOutcome(
            scope="singles_only",
            cover=mp_verts,
            matching_size=len(mp),
            subcase=None,
            singles_cover=mp_verts,
        )

    # --- Case II -----------------------------------------------------------
    live = single_set | {i for i, (u, v) in enumerate(edges) if u in mp_verts or v in mp_verts}
    far = [i for i in range(g.num_edges) if i not in live]
    claimed: list[int] = []

    def claim(i: int) -> None:
        """Move edge i into M_G taking both endpoints, and prune the live graph."""
        live.difference_update([j for j in live if _touches(edges[i], edges[j])])
        claimed.append(i)

    # Procedure 1: clear everything not touching M_P.
    for j in greedy_matching_indices([edges[i] for i in far]):
        claim(far[j])
    if not mp <= live:
        raise Stuck("far matching touched the singles matching")

    # Procedure 2: matched single edges leaning on two unmatched ones.
    for i in sorted(mp):
        if i in live and sum(_touches(edges[i], edges[j]) for j in live & single_set - mp) >= 2:
            claim(i)

    # Procedure 3: unmatched single edges leaning on two matched ones.
    for j in sorted(single_set - mp):
        if j not in live:
            continue
        incident = [i for i in sorted(live & mp) if _touches(edges[i], edges[j])]
        if len(incident) >= 2:
            claim(incident[0])

    # Procedure 4: plank edges hand their two fresh neighbours to M_G. No
    # live edge touches a claimed one, so a blue edge is fresh when it
    # misses the T edges taken so far.
    blue = [edges[j] for j in sorted(live - mp)]
    t_verts: set[int] = set()

    def fresh_neighbour(vertex: int) -> Optional[Edge]:
        return next((e for e in blue if vertex in e and t_verts.isdisjoint(e)), None)

    m_y: list[int] = []
    m_n: list[int] = []
    for i in sorted(live & mp):
        u, v = edges[i]
        eu = fresh_neighbour(u)
        ev = eu and fresh_neighbour(v)
        if not ev:
            m_n.append(i)
            continue
        if set(eu) & set(ev):
            raise Stuck("plank neighbours share a vertex: triangle-free guarantee broken")
        m_y.append(i)
        t_verts.update(eu + ev)
    size = len(claimed) + 2 * len(m_y) + len(m_n)  # |M_G|: claimed, T and M_N

    cover = {v for i in claimed for v in edges[i]}
    if len(m_y) >= delta * k:
        cover.update(v for i in m_y + m_n for v in edges[i])
        subcase = "many_planks"
        if len(cover) != 2 * size - 2 * len(m_y):  # |T| = 2|M_Y|
            raise Stuck(f"many-planks cover has {len(cover)} != 2|M_G| - |T| vertices")
    else:
        cover |= t_verts
        loose = [e for e in blue if t_verts.isdisjoint(e)]
        for u, v in (edges[i] for i in m_n):
            leaning_u = any(u in e for e in loose)
            leaning_v = any(v in e for e in loose)
            if leaning_u and leaning_v:
                raise Stuck("plank edge escaped Procedure 4")
            cover.add(u if leaning_u else (v if leaning_v else min(u, v)))
        subcase = "few_planks"
        if len(cover) != 2 * size - len(m_n):
            raise Stuck(f"few-planks cover has {len(cover)} != 2|M_G| - |M_N| vertices")

    if not is_cover_from_masks(b.nbrs, _mask(cover)):
        raise Stuck("procedures produced a non-cover of the full graph")
    return SingleEdgeCoverOutcome(
        scope="full_graph",
        cover=frozenset(cover),
        matching_size=size,
        subcase=subcase,
        singles_cover=mp_verts,
    )


# ---------------------------------------------------------------------------
# Means-side cover
# ---------------------------------------------------------------------------

def cover_nonstar_means(g: Cluster) -> CoverResult:
    """Cover of case "means", of size at most 2 + delta(F), the exact 1-means
    extra cost.

    The edge maximizing deg(u) + deg(v) misses at most delta(F) edges, so
    both its endpoints plus one vertex per missed edge give size
    <= 2 + delta(F), checked in exact rationals. The ledger charges it
    1 + (5/2) delta(F), which is at least that when delta >= 2/3. That fails
    on graphs with triangles — a triangle has delta = 0 — hence the
    triangle-free gate. delta(F) is the block's ``means_extra``.
    """
    b = as_block(g)
    require_triangle_free(b)
    _require_non_star(b, "means cover construction")
    g, delta, deg = b.graph, b.means_extra, b.degrees
    best = max(g.edges, key=lambda e: deg[e[0]] + deg[e[1]])
    cover = {best[0], best[1]}
    for e in g.edges:
        if e[0] not in cover and e[1] not in cover:
            cover.add(min(e))
    if not is_vertex_cover(g, cover):
        raise Stuck("means construction produced a non-cover")
    if len(cover) > 2 + delta:
        raise Stuck(f"means cover of {len(cover)} exceeds 2 + delta = {2 + delta}")
    return CoverResult(frozenset(cover), "means")


# ---------------------------------------------------------------------------
# Whole-graph assembly
# ---------------------------------------------------------------------------

def _normalize_clustering(g: Graph, clustering: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    blocks = [tuple(sorted(_edge_index(i) for i in block)) for block in clustering]
    m = g.num_edges
    seen: set[int] = set()
    for block in blocks:
        if not block:
            raise InvalidPartition("empty cluster")
        in_range = 0 <= block[0] and block[-1] < m  # a sorted block's ends bound it
        for i in block:
            if not (in_range or 0 <= i < m):
                raise InvalidPartition(f"edge index {i} out of range")
            if i in seen:
                raise InvalidPartition(f"edge index {i} in two clusters")
            seen.add(i)
    if len(seen) != m:
        raise InvalidPartition("clustering does not cover every edge")
    return blocks


def _edge_index(i: object) -> int:
    """i as an int, if ``operator.index`` takes it (an int or a numpy
    integer); anything else, such as 1.7 or "1", raises ``InvalidPartition``
    naming it rather than being truncated or parsed."""
    try:
        return operator.index(i)
    except TypeError:
        raise InvalidPartition(f"edge index {i!r} is not an integer") from None


def _mask(vertices: Iterable[int]) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def _prune_cover(whole: Block, cover: Iterable[int]) -> frozenset[int]:
    """Drop redundant vertices in ascending id order (keeps covers honest:
    per-cluster unions routinely double-cover shared edges), on the
    neighbour masks of g's ``Block``. The cover is tested once; while it
    covers g, dropping v keeps it a cover exactly when every neighbour of v
    is in it. A set that does not cover g comes back whole, as no vertex
    can be dropped from it, for the caller's final test to refuse."""
    nbrs, kept = whole.nbrs, _mask(cover)
    if is_cover_from_masks(nbrs, kept):
        for v in sorted(cover):
            if not nbrs[v] & ~kept:
                kept ^= 1 << v
    return frozenset(v for v in cover if kept >> v & 1)


def block_count(beta: float, k: int) -> int:
    """ceil(beta * k), the number of blocks cover extraction runs at. A k
    below 1, or else a product that is not finite (beta infinite or NaN, or
    past the float range), or else a beta below 1, raises ``ValueError``."""
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if not math.isfinite(beta * k):
        raise ValueError(f"beta * k must be finite, got beta = {beta!r}, k = {k}")
    if beta < 1:
        raise ValueError(f"beta must be at least 1, got {beta!r}")
    return math.ceil(beta * k)


def soundness_assemble(
    g: Cluster,
    clustering: Sequence[Sequence[int]],
    k: int,
    beta: float = 1.0,
    objective: str = "median",
    delta: float = 0.01,
) -> SoundnessReport:
    """Extract a whole-graph vertex cover from an edge clustering and report
    its ledger, one ``LedgerEntry`` per block and one for the singles.

    A block of one edge is a single, and a block whose edges share a
    vertex (``common_vertex`` of its edges in g) a star that contributes
    that center; neither builds a ``Graph`` or a ``Block``. Each other
    block is read through one ``Block``: it runs the per-cluster
    constructions on it, whose case its entry names, and is charged its
    ``CHARGES`` row on its extra cost under the objective (a float under
    the median, an exact ``Fraction`` under the means, which the means
    construction reads from the same ``Block``). So each non-star block is
    tested for triangles, matched (its M gives the entry's matching number)
    and costed once, and a dispatch block finds its second matching L once.
    g is wrapped in one ``Block`` and tested for triangles once too:
    single-edge blocks the union misses go through
    cover_single_edge_clusters on that ``Block``, and the union cover takes
    both endpoints of its greedy matching M_P. Redundant vertices are
    pruned in ascending order (``_prune_cover``). If the full-graph
    fallback fires, its cover, pruned the same way, replaces the union only
    when it is smaller; the singles entry names the cover kept. The prune
    and the final check that the kept cover covers g read g's neighbour
    masks. The (delta, beta)-ceiling, ``_ceiling`` of the entries, is
    reported next to the realized size. k below 1, beta below 1, a beta * k
    that is not finite, or a delta that is negative or not finite raises
    ``ValueError``.
    """
    whole = as_block(g)
    require_triangle_free(whole)
    g = whole.graph
    check_objective(objective)
    expected = block_count(beta, k)
    check_delta(delta)
    blocks = _normalize_clustering(g, clustering)
    if len(blocks) != expected:
        raise InvalidPartition(f"expected {expected} clusters, got {len(blocks)}")

    def entry(kind: str, block: tuple[int, ...], nu: int, cover: frozenset[int],
              extra: Number = 0, case: Optional[str] = None) -> LedgerEntry:
        row = CHARGES[objective, kind]
        return LedgerEntry(
            kind, block, nu, cover, row.constant, row.slope, extra, row.of(extra), case=case
        )

    entries: list[LedgerEntry] = []
    vc_prime: set[int] = set()
    for block in blocks:
        if len(block) == 1:
            entries.append(entry("single", block, 1, frozenset()))
            continue
        center = common_vertex([g.edges[i] for i in block])
        if center is not None:
            entries.append(entry("star", block, 1, frozenset({center})))
        else:
            sub = Block(subgraph(g, block))
            nu = len(sub.matching)
            extra = extra_cost(sub, objective).value
            if objective == "means":
                kind, built = "means", cover_nonstar_means(sub)
            else:
                kind, build = (
                    ("matching_two", cover_matching_two) if nu == 2
                    else ("dispatch", cover_case_dispatch)
                )
                built = build(sub)
            entries.append(entry(kind, block, nu, built.cover, extra, built.case))
        vc_prime |= entries[-1].cover

    uncovered = tuple(
        i for e in entries if e.kind == "single"
        for i in e.edges if vc_prime.isdisjoint(g.edges[i])
    )
    outcome = cover_single_edge_clusters(whole, uncovered, vc_prime, k, delta) if uncovered else None
    kept = "union"
    singles_cover = outcome.singles_cover if outcome else frozenset()
    pruned = _prune_cover(whole, vc_prime | singles_cover)
    procedures_path = "direct"
    if outcome is not None and outcome.scope == "full_graph":
        procedures_path = "procedures_fallback"
        fallback = _prune_cover(whole, outcome.cover)
        if len(fallback) < len(pruned):
            pruned, kept, singles_cover = fallback, "fallback", outcome.cover
    if not is_cover_from_masks(whole.nbrs, _mask(pruned)):
        raise Stuck("assembled cover is invalid")
    singles = CHARGES[objective, "singles"].constant * delta * k if uncovered else 0.0
    entries.append(
        LedgerEntry("singles", uncovered, 0, singles_cover, singles, 0, 0, singles, kept)
    )

    kinds = Counter(e.kind for e in entries)
    nus = [e.matching_number for e in entries]
    ceiling = _ceiling(entries)
    return SoundnessReport(
        t1=kinds["single"],
        t2=kinds["star"],
        t3=nus.count(2),
        t4=sum(nu >= 3 for nu in nus),
        total_cover_size=len(pruned),
        per_cluster=tuple(entries),
        procedures_path=procedures_path,
        epsilon=2.0 - ceiling / k,
        delta=delta,
        beta=beta,
        cover=pruned,
        predicted_ceiling=ceiling,
    )


def _ceiling(entries: Sequence[LedgerEntry]) -> float:
    """The sum of the entries' charges, added as one fixed order of float
    operations: each kind's constant times its number of entries, kinds in
    ``KINDS`` order, then each slope times the sum of its entries' extra
    costs, those added in block order."""
    counts = Counter(e.kind for e in entries)
    constants = {e.kind: e.constant for e in entries}
    ceiling: Number = 0
    for kind in KINDS:
        if counts[kind]:
            ceiling += constants[kind] * counts[kind]
    extras: dict[Number, Number] = {}
    for e in entries:
        if e.slope:
            extras[e.slope] = extras.get(e.slope, 0) + e.extra
    for slope, total in extras.items():
        ceiling += float(slope) * float(total)
    return float(ceiling)
