"""Graph substrate: representation, structural predicates, matchings, Koenig covers.

Everything downstream (reductions, decompositions, cover extraction) works on
desk-scale undirected simple graphs, so the algorithms here favour auditability
over asymptotics: maximum matching is an exhaustive branch and bound, class
recognition is direct structure checking, and every tie is broken
lexicographically so outputs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional, Sequence

from .errors import EmptyGraph, InstanceTooLarge, NotBipartite, PreconditionViolated, Stuck

Edge = tuple[int, int]

MAX_MATCHING_EDGES = 24  # largest graph the exhaustive maximum matching takes


def _normalize_edge(u: int, v: int) -> Edge:
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph with 0-based vertex ids and an ordered edge list.

    Edges are stored as (u, v) with u < v, in construction order; edge indices
    into this sequence are the currency of matchings and clusterings.
    """

    num_vertices: int
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        if self.num_vertices < 0:
            raise ValueError(f"negative vertex count {self.num_vertices}")
        seen: set[Edge] = set()
        for u, v in self.edges:
            if not (0 <= u < v < self.num_vertices):
                raise ValueError(f"edge ({u},{v}) out of range for n={self.num_vertices}")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            seen.add((u, v))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def adjacency(self) -> list[list[int]]:
        """Sorted adjacency lists (rebuilt on demand; graphs here are tiny)."""
        adj: list[list[int]] = [[] for _ in range(self.num_vertices)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for lst in adj:
            lst.sort()
        return adj

    def degrees(self) -> list[int]:
        deg = [0] * self.num_vertices
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def used_vertices(self) -> list[int]:
        """Vertices incident to at least one edge, ascending."""
        return sorted({v for e in self.edges for v in e})


def make_graph(num_vertices: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph, normalizing each edge to (min, max) order."""
    return Graph(num_vertices, tuple(_normalize_edge(u, v) for u, v in edges))


def graph_from_edges(edges: Iterable[tuple[int, int]]) -> Graph:
    """Convenience constructor: num_vertices = 1 + max id (0 for no edges)."""
    norm = [_normalize_edge(u, v) for u, v in edges]
    n = 1 + max((v for e in norm for v in e), default=-1)
    return Graph(n, tuple(norm))


def subgraph(g: Graph, edge_indices: Iterable[int]) -> Graph:
    """Edge-induced subgraph keeping the host's vertex ids."""
    return Graph(g.num_vertices, tuple(g.edges[i] for i in sorted(set(edge_indices))))


def remove_edges(g: Graph, drop: Iterable[Edge]) -> Graph:
    dropped = {_normalize_edge(*e) for e in drop}
    return Graph(g.num_vertices, tuple(e for e in g.edges if e not in dropped))


# ---------------------------------------------------------------------------
# Edge-list text format
# ---------------------------------------------------------------------------

def parse_edge_list(text: str) -> Graph:
    """Parse the "u v" per-line format.

    Lines starting with ``#`` and blank lines are ignored; an optional header
    line ``p <num_vertices>`` fixes the vertex count (otherwise it is one more
    than the largest id seen). A malformed line, a token that is not an
    integer, a self-loop, a repeated edge, a second header or an edge out of
    range raises ``ValueError`` naming the line. The header may follow the
    edges, so the range is checked once every line is read.
    """
    num_vertices: Optional[int] = None
    lines: dict[Edge, tuple[int, str]] = {}  # each edge's line number and text
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        header = parts[0] == "p"
        try:
            values = [int(tok) for tok in parts[header:]]
            if len(values) != 2 - header:
                raise ValueError("expected 'p n'" if header else "expected 'u v'")
            if not header:
                e = _normalize_edge(*values)
                if e in lines:
                    raise ValueError(f"duplicate edge ({e[0]},{e[1]})")
                lines[e] = (lineno, raw)
            elif num_vertices is not None:
                raise ValueError("a second 'p' header")
            elif values[0] < 0:
                raise ValueError("negative vertex count")
            else:
                num_vertices = values[0]
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}, in {raw!r}") from None
    if num_vertices is None:
        num_vertices = 1 + max((v for e in lines for v in e), default=-1)
    for (u, v), (lineno, raw) in lines.items():
        if u < 0 or v >= num_vertices:
            raise ValueError(
                f"line {lineno}: edge ({u},{v}) out of range for n={num_vertices}, in {raw!r}"
            )
    return Graph(num_vertices, tuple(lines))


def format_edge_list(g: Graph) -> str:
    lines = [f"p {g.num_vertices}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Structural predicates
# ---------------------------------------------------------------------------

def is_triangle_free(g: Graph) -> bool:
    """True iff no three vertices are pairwise adjacent: ``triangle_free_from_masks``
    on g's neighbour masks."""
    return triangle_free_from_masks(neighbour_masks(g), g.edges)


def triangle_free_from_masks(nbrs: list[int], edges: Iterable[Edge]) -> bool:
    """``is_triangle_free`` of the graph whose neighbour masks and edges are
    given, for a caller that has built the masks already."""
    # A common neighbour of an edge's endpoints closes a triangle.
    return not any(nbrs[u] & nbrs[v] for u, v in edges)


def max_degree(g: Graph) -> int:
    return max(g.degrees(), default=0)


def common_vertex(edges: Sequence[Edge]) -> Optional[int]:
    """The vertex shared by *all* given edges, or None.

    For a single edge both endpoints qualify; the smaller one is returned.
    The shared vertices are kept as a bitmask, so that is its lowest set bit.
    """
    if not edges:
        return None
    shared = -1
    for u, v in edges:
        shared &= (1 << u) | (1 << v)
        if not shared:
            return None
    return (shared & -shared).bit_length() - 1


def is_star(g: Graph) -> bool:
    """True iff the graph has >= 1 edge and all edges share a common vertex."""
    return common_vertex(g.edges) is not None


def neighbour_masks(g: Graph) -> list[int]:
    """Each vertex's neighbours as a bitmask."""
    nbrs = [0] * g.num_vertices
    for u, v in g.edges:
        nbrs[u] |= 1 << v
        nbrs[v] |= 1 << u
    return nbrs


def component_masks(nbrs: list[int]) -> list[int]:
    """Vertex masks of the connected components, by least vertex: a bitmask
    flood fill over ``neighbour_masks`` that reads each vertex's mask once."""
    comps = []
    left = (1 << len(nbrs)) - 1
    while left:
        comp = todo = left & -left
        while todo:
            bit = todo & -todo
            todo ^= bit
            grow = nbrs[bit.bit_length() - 1] & ~comp
            comp |= grow
            todo |= grow
        comps.append(comp)
        left ^= comp
    return comps


def edge_components(g: Graph) -> list[list[int]]:
    """Connected components as lists of edge indices (isolated vertices ignored).

    Components are ordered by their smallest edge index; indices ascend within.
    """
    parts = [
        [i for i, (u, _v) in enumerate(g.edges) if comp >> u & 1]
        for comp in component_masks(neighbour_masks(g))
    ]
    return sorted((part for part in parts if part), key=lambda part: part[0])


# ---------------------------------------------------------------------------
# Matchings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Matching:
    """A set of pairwise vertex-disjoint edges of a host graph, by edge index."""

    indices: tuple[int, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for u, v in self.edges:
            if u in seen or v in seen:
                raise ValueError("matching edges share a vertex")
            seen.update((u, v))

    def __len__(self) -> int:
        return len(self.indices)


def _matching_from_indices(g: Graph, indices: Iterable[int]) -> Matching:
    idx = tuple(sorted(indices))
    return Matching(idx, tuple(g.edges[i] for i in idx))


def maximal_matching_greedy(g: Graph) -> Matching:
    """Greedy maximal matching scanning edges in index order
    (``greedy_matching_indices`` of g's edges)."""
    return _matching_from_indices(g, greedy_matching_indices(g.edges))


def greedy_matching_indices(edges: Sequence[Edge]) -> list[int]:
    """Positions, ascending, of the greedy maximal matching that scans
    ``edges`` in order and takes each edge that misses the ones taken, for
    a caller that holds an edge list and no ``Graph``. The matched vertices
    are a bitmask."""
    used = 0
    picked: list[int] = []
    for i, (u, v) in enumerate(edges):
        ends = 1 << u | 1 << v
        if not used & ends:
            picked.append(i)
            used |= ends
    return picked


def maximum_matching(g: Graph) -> Matching:
    """Exhaustive maximum matching with include/exclude branch and bound.

    Edges are branched in ascending index order with the include branch first,
    so the first matching of maximum cardinality encountered is the
    lexicographically smallest sorted index tuple — the documented tie-break.
    The matched vertices are a bitmask. More than ``MAX_MATCHING_EDGES``
    edges raise ``InstanceTooLarge`` before the search. Nothing is kept
    between calls: each call is one search, and a caller that needs a
    cluster's matching again holds on to it.
    """
    m = g.num_edges
    if m > MAX_MATCHING_EDGES:
        raise InstanceTooLarge(f"{m} edges exceeds matching ceiling {MAX_MATCHING_EDGES}")
    masks = [(1 << u) | (1 << v) for u, v in g.edges]
    best: list[int] = []

    def search(i: int, used: int, current: list[int]) -> None:
        nonlocal best
        if len(current) + (m - i) <= len(best):
            return
        if i == m:
            best = list(current)  # the bound above leaves only longer ones
            return
        if not used & masks[i]:
            current.append(i)
            search(i + 1, used | masks[i], current)
            current.pop()
        search(i + 1, used, current)

    search(0, 0, [])
    return _matching_from_indices(g, best)


def require_matching_of(g: Graph, m: Matching) -> None:
    """Raise ``PreconditionViolated`` unless every edge of m is g's edge at
    the index m gives for it, an index in range(g.num_edges)."""
    for i, e in zip(m.indices, m.edges):
        if not (0 <= i < g.num_edges and g.edges[i] == e):
            raise PreconditionViolated(
                f"matching edge {e} at index {i} does not belong to this graph"
            )


def second_maximum_matching(g: Graph, m: Matching) -> Matching:
    """Maximum matching of g minus the edges of m (the host indices are kept)."""
    require_matching_of(g, m)
    taken = set(m.indices)
    remaining = [i for i in range(g.num_edges) if i not in taken]
    sub = Graph(g.num_vertices, tuple(g.edges[i] for i in remaining))
    inner = maximum_matching(sub)
    return _matching_from_indices(g, (remaining[i] for i in inner.indices))


# ---------------------------------------------------------------------------
# Class recognition
# ---------------------------------------------------------------------------

class ClassTag(str, Enum):
    SINGLE_EDGE = "SingleEdge"
    STAR = "Star"
    THREE_P2 = "ThreeP2"
    A_N = "A_n"
    L_N = "L_n"
    BRIDGE = "Bridge"
    C5 = "C5"
    OTHER_NON_STAR = "OtherNonStar"


@dataclass(frozen=True)
class GraphClass:
    """Recognized structural class with a witness that lets callers re-verify it.

    ``n`` is the class parameter for A_n / L_n; ``p``/``q`` are the star sizes
    of a bridge graph (p >= q >= 2 — a bridge with q = 1 *is* L_n and is tagged
    as such).
    """

    tag: ClassTag
    n: Optional[int] = None
    p: Optional[int] = None
    q: Optional[int] = None
    witness: dict = field(default_factory=dict)

    def describe(self) -> str:
        if self.tag is ClassTag.A_N:
            return f"A_{self.n}"
        if self.tag is ClassTag.L_N:
            return f"L_{self.n}"
        if self.tag is ClassTag.BRIDGE:
            return f"Bridge({self.p},{self.q})"
        return self.tag.value


def bridge_structure(g: Graph) -> Optional[tuple[Edge, int, int]]:
    """Detect the two-stars-joined-by-an-edge shape.

    Returns (bridge_edge, p, q) where p / q count the star edges on the two
    sides (both >= 1), or None. Candidate bridge edges are tried in index
    order, so the witness is deterministic.

    b = (s, t) is the bridge iff every other edge touches s or t, the leaves
    left = N(s) - {t} and right = N(t) - {s} are both non-empty, and they are
    disjoint (a shared leaf closes a triangle with b). No edge but b touches
    both s and t, so s and t carry |left| + |right| + 1 edges, and every edge
    touches one of them iff that count is m. The test is
    ``bridge_from_masks`` with nothing cut: a few integer operations per
    candidate, O(m) in all, not O(m^2).
    """
    return bridge_from_masks(neighbour_masks(g), g.edges, g.num_edges, {})


def bridge_from_masks(
    nbrs: list[int], candidates: Iterable[Edge], m: int, cut: dict[int, int]
) -> Optional[tuple[Edge, int, int]]:
    """``bridge_structure`` of the m-edge graph whose neighbour masks are
    ``nbrs`` less ``cut`` (vertex -> bits to clear), tried over
    ``candidates``, which must be edges of that graph, in the order given.

    A candidate (s, t) is the bridge iff its leaf masks, s's and t's masks
    less the cut bits and less each other, are both non-empty and disjoint
    and p + q + 1 = m. A caller can test the graph left by removing edges
    without building it, by cutting each removed edge's ends from each
    other's masks."""
    for b in candidates:
        s, t = b
        left = nbrs[s] & ~cut.get(s, 0) & ~(1 << t)
        right = nbrs[t] & ~cut.get(t, 0) & ~(1 << s)
        if left and right and not left & right:
            p, q = left.bit_count(), right.bit_count()
            if p + q + 1 == m:
                return b, p, q
    return None


def classify(g: Graph) -> GraphClass:
    """Recognize the cluster classes the cost lemmas name.

    The only disconnected graphs that earn a fundamental tag are 3-P2 and the
    A_n family (a star plus one vertex-disjoint edge; A_1 = 2-P2); every other
    disconnected graph is OtherNonStar. Behaviour on graphs with triangles is
    outside the theory; we still return OtherNonStar rather than raising.

    A graph of one edge needs no masks; any other is ``classify_from_masks``
    on one pass's neighbour masks.
    """
    if g.num_edges < 2:
        return classify_from_masks([], g.edges)
    return classify_from_masks(neighbour_masks(g), g.edges)


def classify_from_masks(nbrs: Sequence[int], edges: Sequence[Edge]) -> GraphClass:
    """``classify`` of the graph whose neighbour masks and edges, in index
    order, are given, for a caller that holds the masks already (one edge
    needs none).

    With m >= 2 edges, a star's center is the one vertex of degree m. The
    components are ``component_masks``' that hold an edge; a component of
    two vertices is a lone edge (of 2-P2's two, the one holding
    ``edges[0]``), and the rest of A_n is a star, centered at its vertex of
    degree m - 1 (the lower end of a single edge). A connected graph is C5
    when m = 5 and every vertex with an edge has degree two; the witness
    walks the cycle from its least vertex to that vertex's lesser
    neighbour. The bridge test is ``bridge_from_masks`` over the edges in
    index order.
    """
    m = len(edges)
    if m == 0:
        raise EmptyGraph("cannot classify a graph with no edges")
    if m == 1:
        return GraphClass(ClassTag.SINGLE_EDGE, witness={"edge": edges[0]})
    degs = [mask.bit_count() for mask in nbrs]
    if m in degs:
        return GraphClass(ClassTag.STAR, witness={"center": degs.index(m)})

    comps = [c for c in component_masks(nbrs) if nbrs[(c & -c).bit_length() - 1]]
    if len(comps) >= 2:
        if len(comps) == 3 and m == 3:
            return GraphClass(ClassTag.THREE_P2, witness={"edges": tuple(edges)})
        if len(comps) == 2:
            first, other = comps if comps[0] >> edges[0][0] & 1 else comps[::-1]
            lone, rest = (first, other) if first.bit_count() == 2 else (other, first)
            centers = [v for v, d in enumerate(degs) if d == m - 1 and rest >> v & 1]
            if lone.bit_count() == 2 and centers:
                edge = ((lone & -lone).bit_length() - 1, lone.bit_length() - 1)
                return GraphClass(
                    ClassTag.A_N, n=m - 1, witness={"star_center": centers[0], "lone_edge": edge}
                )
        return GraphClass(ClassTag.OTHER_NON_STAR)

    if m == 5 and all(d in (0, 2) for d in degs):
        start = degs.index(2)
        cycle = [start]
        prev, cur = start, (nbrs[start] & -nbrs[start]).bit_length() - 1
        while cur != start:
            cycle.append(cur)
            prev, cur = cur, (nbrs[cur] & ~(1 << prev)).bit_length() - 1
        return GraphClass(ClassTag.C5, witness={"cycle": cycle})

    bridge = bridge_from_masks(nbrs, edges, m, {})
    if bridge is not None:
        b, p, q = bridge
        if min(p, q) == 1:
            n = max(p, q)
            # Orient the witness so the n-star center comes first.
            s, t = b if p >= q else (b[1], b[0])
            return GraphClass(ClassTag.L_N, n=n, witness={"bridge": b, "centers": (s, t)})
        return GraphClass(
            ClassTag.BRIDGE, p=max(p, q), q=min(p, q), witness={"bridge": b}
        )
    return GraphClass(ClassTag.OTHER_NON_STAR)


# ---------------------------------------------------------------------------
# Covers
# ---------------------------------------------------------------------------

def is_vertex_cover(g: Graph, s: Iterable[int]) -> bool:
    cover = set(s)
    return all(u in cover or v in cover for u, v in g.edges)


def is_cover_from_masks(nbrs: Sequence[int], cover: int) -> bool:
    """``is_vertex_cover`` of the graph whose neighbour masks are given, for
    the vertex set whose bitmask is ``cover``, for a caller that holds the
    masks already: no vertex outside the set has a neighbour outside it."""
    outside = ~cover
    left = outside & ((1 << len(nbrs)) - 1)
    while left:
        low = left & -left
        if nbrs[low.bit_length() - 1] & outside:
            return False
        left ^= low
    return True


def _two_color(g: Graph) -> list[int]:
    """BFS 2-coloring; raises NotBipartite on an odd cycle. Isolated -> color 0."""
    color = [-1] * g.num_vertices
    adj = g.adjacency()
    for start in range(g.num_vertices):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            u = queue.pop(0)
            for w in adj[u]:
                if color[w] == -1:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    raise NotBipartite(f"odd cycle through vertices {u} and {w}")
    return color


def konig_cover(g: Graph) -> set[int]:
    """Minimum vertex cover of a bipartite graph via Koenig's construction.

    Augmenting-path matching from the left class, then the standard
    alternating-reachability set Z: the cover is (L \\ Z) u (R n Z), whose size
    equals the maximum matching size.
    """
    color = _two_color(g)
    adj = g.adjacency()
    left = [v for v in range(g.num_vertices) if color[v] == 0]
    match: dict[int, int] = {}  # vertex -> matched partner, both directions

    def try_augment(u: int, visited: set[int]) -> bool:
        for w in adj[u]:
            if w in visited:
                continue
            visited.add(w)
            if w not in match or try_augment(match[w], visited):
                match[w] = u
                match[u] = w
                return True
        return False

    for u in left:
        if u not in match:
            try_augment(u, set())

    # Alternating reachability from unmatched left vertices.
    z: set[int] = {u for u in left if u not in match}
    frontier = list(z)
    while frontier:
        u = frontier.pop()
        for w in adj[u]:  # u on the left: travel non-matching edges
            if w in z or match.get(u) == w:
                continue
            z.add(w)
            p = match.get(w)  # w on the right: travel its matching edge back
            if p is not None and p not in z:
                z.add(p)
                frontier.append(p)
    cover = {u for u in left if u not in z}
    cover |= {v for v in range(g.num_vertices) if color[v] == 1 and v in z}
    if not is_vertex_cover(g, cover):
        raise Stuck(f"Koenig construction returned a non-cover {sorted(cover)}")
    if 2 * len(cover) != len(match):  # match holds each matched pair twice
        raise Stuck(f"Koenig cover of {len(cover)} != matching of {len(match) // 2}")
    return cover
