"""Constructions from covering problems to Euclidean clustering instances.

A graph with m edges becomes m points in R^n: edge (i, j) maps to the 0/1
vector with ones exactly at coordinates i and j. Squared distances then live
in {2, 4} — 2 when two edges share an endpoint, 4 when they are disjoint —
which is what the cost-threshold arithmetic rides on.

The hypergraph variant targets discrete k-means: a d-uniform hyperedge maps to
the sum of its d vertex indicators, and the candidate centers are the vertex
indicators themselves, giving center-to-point squared distances d-1 (vertex in
the hyperedge) or d+1 (not).
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

from .errors import EmptyGraph
from .graphs import Graph, is_triangle_free, max_degree

Vector = tuple[float, ...]

OBJECTIVES = ("median", "means")

# The hypothesis each objective's graph no_cost_lower is claimed under. For
# means, k < tau leaves some block a non-star, whose means extra cost is at
# least 2/3, while every star block costs its yes share exactly.
NO_SIDE_HYPOTHESIS = {
    "median": "a conjecture: C7 at k = 3 (tau = 4) costs 2 + 2*sqrt(3) < m - k/2 = 5.5",
    "means": "proven for triangle-free G when k < tau and delta*k <= 2/3",
}


@dataclass(frozen=True)
class ClusteringInstance:
    """Point set in R^dimension with target k; centers are free (continuous
    case, ``candidate_centers`` is None) or restricted to a finite set."""

    dimension: int
    points: tuple[Vector, ...]
    k: int
    objective: str
    candidate_centers: Optional[tuple[Vector, ...]] = None

    def __post_init__(self) -> None:
        check_objective(self.objective)
        for name in ("dimension", "k"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        for x in self.points:
            if len(x) != self.dimension:
                raise ValueError("point dimension mismatch")
            if not all(map(math.isfinite, x)):
                raise ValueError(f"point {x} has a non-finite coordinate")
        if self.candidate_centers is not None:
            for c in self.candidate_centers:
                if len(c) != self.dimension:
                    raise ValueError("center dimension mismatch")
                if not all(map(math.isfinite, c)):
                    raise ValueError(f"center {c} has a non-finite coordinate")


@dataclass(frozen=True)
class HypergraphInstance:
    """d-uniform hypergraph on vertices 0..num_vertices-1 plus a target k.
    A hyperedge repeated in any vertex order raises ``ValueError``, as a
    repeated edge does in ``Graph``."""

    d: int
    num_vertices: int
    hyperedges: tuple[tuple[int, ...], ...]
    k: int

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError("uniformity d must be >= 2")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        seen: set[tuple[int, ...]] = set()
        for f in self.hyperedges:
            if len(set(f)) != self.d:
                raise ValueError(f"hyperedge {f} does not have {self.d} distinct vertices")
            if any(not 0 <= u < self.num_vertices for u in f):
                raise ValueError(f"hyperedge {f} out of range")
            key = tuple(sorted(f))
            if key in seen:
                raise ValueError(f"duplicate hyperedge {f}")
            seen.add(key)


@dataclass(frozen=True)
class GapPrediction:
    """Cost thresholds of a reduction. A cover of the target size keeps the
    clustering cost at most ``yes_cost``. ``no_cost_lower`` is the cost the
    absence of such a cover is claimed to force, and for a graph it holds
    only under ``NO_SIDE_HYPOTHESIS[objective]``: proven for means on
    triangle-free graphs with k < tau and delta*k <= 2/3, a conjecture for
    the median, which C7 at k = 3 breaks. The hypergraph's no side is a
    p-fraction of hyperedges left uncovered by every choice of k centers."""

    yes_cost: float
    no_cost_lower: float
    parameters: dict = field(default_factory=dict)


def _indicator(dimension: int, ones: Sequence[int]) -> Vector:
    x = [0.0] * dimension
    for i in ones:
        x[i] = 1.0
    return tuple(x)


def reduce_graph(g: Graph, k: int, objective: str) -> ClusteringInstance:
    """Map each edge (i, j) to the point e_i + e_j in R^num_vertices.

    Triangle-freeness is what the downstream cost analysis assumes; a graph
    with triangles still reduces, with a warning, because the construction
    itself does not care.
    """
    if g.num_edges == 0:
        raise EmptyGraph("graph reduction needs at least one edge")
    if not is_triangle_free(g):
        warnings.warn("graph has triangles; cost thresholds are not guaranteed", stacklevel=2)
    points = tuple(_indicator(g.num_vertices, e) for e in g.edges)
    return ClusteringInstance(g.num_vertices, points, k, objective)


def auto_no_regime(g: Graph, k: int) -> bool:
    """True when k < m / (2 * max_degree): every k-clustering then has some
    cluster of more than 2*max_degree edges, which no single vertex can touch,
    so the instance is a forced "no" regardless of cover structure."""
    delta = max_degree(g)
    return delta > 0 and k < g.num_edges / (2 * delta)


def reduce_hypergraph(h: HypergraphInstance) -> ClusteringInstance:
    """Discrete k-means instance: one point per hyperedge (sum of vertex
    indicators), candidate centers = all vertex indicators."""
    points = tuple(_indicator(h.num_vertices, f) for f in h.hyperedges)
    centers = tuple(_indicator(h.num_vertices, (u,)) for u in range(h.num_vertices))
    return ClusteringInstance(h.num_vertices, points, h.k, "means", centers)


def check_objective(objective: str) -> None:
    """Raise ``ValueError`` unless ``objective`` is one of ``OBJECTIVES``."""
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}")


def check_delta(delta: float) -> None:
    """Raise ``ValueError`` unless the gap parameter delta is finite and
    non-negative."""
    if not (math.isfinite(delta) and delta >= 0):
        raise ValueError(f"delta must be non-negative and finite, got {delta!r}")


def yes_cost(m: int, k: int, objective: str) -> float:
    """The yes cost of the graph reduction: with m edges and a vertex cover of
    size k, k centers cost at most m - k/2 (median) or m - k (means)."""
    return m - k / 2 if objective == "median" else m - float(k)


def predict_gap_graph(m: int, k: int, objective: str, delta: float) -> GapPrediction:
    """Cost thresholds of the graph reduction.

    median: yes m - k/2 vs no-lower m - k/2 + delta*k
    means:  yes m - k   vs no-lower m - k   + delta*k

    The no-lower holds only under ``NO_SIDE_HYPOTHESIS[objective]``.

    k may be at most m: with more centers than points the thresholds would
    go negative.
    """
    check_objective(objective)
    if m < 1 or k < 1:
        raise ValueError("m and k must be >= 1")
    if k > m:
        raise ValueError(f"k = {k} exceeds the m = {m} edges")
    check_delta(delta)
    yes = yes_cost(m, k, objective)
    return GapPrediction(
        yes_cost=yes,
        no_cost_lower=yes + delta * k,
        parameters={"m": m, "k": k, "objective": objective, "delta": delta},
    )


def predict_gap_hypergraph(d: int, n_hyperedges: int, p: float) -> GapPrediction:
    """Discrete k-means thresholds: full cover costs (d-1)N; leaving a
    p-fraction of hyperedges uncovered costs (d-1)(1-p)N + (d+1)pN = (d-1)N + 2pN."""
    if d < 2:
        raise ValueError("d must be >= 2")
    if n_hyperedges < 1:
        raise ValueError("n_hyperedges must be >= 1")
    if not 0 <= p <= 1:
        raise ValueError("p must be in [0, 1]")
    yes = (d - 1) * float(n_hyperedges)
    return GapPrediction(
        yes_cost=yes,
        no_cost_lower=yes + 2 * p * n_hyperedges,
        parameters={"d": d, "N": n_hyperedges, "p": p},
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def parse_hyperedges(text: str, d: Optional[int] = None, k: int = 1) -> HypergraphInstance:
    """One space-separated vertex list per line; # starts a comment.

    Uniformity is inferred from the first hyperedge unless given explicitly.
    A token that is not an integer, a line of the wrong length, a negative
    or repeated vertex, or a hyperedge already read (in any vertex order)
    raises ``ValueError`` naming the line.
    """
    hyperedges: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            f = tuple(sorted(int(tok) for tok in line.split()))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}, in {raw!r}") from None
        if d is None:
            d = len(f)
        if len(f) != d:
            raise ValueError(f"line {lineno}: expected {d} vertices, got {len(f)}")
        if f[0] < 0:  # f is sorted
            raise ValueError(f"line {lineno}: negative vertex {f[0]}, in {raw!r}")
        repeated = [u for u, v in zip(f, f[1:]) if u == v]
        if repeated:
            raise ValueError(f"line {lineno}: repeated vertex {repeated[0]}, in {raw!r}")
        if f in seen:
            raise ValueError(f"line {lineno}: duplicate hyperedge {f}, in {raw!r}")
        seen.add(f)
        hyperedges.append(f)
    if d is None:
        raise ValueError("no hyperedges found")
    num_vertices = 1 + max((u for f in hyperedges for u in f), default=-1)
    return HypergraphInstance(d, num_vertices, tuple(hyperedges), k)


def _vectors(rows: object, name: str) -> tuple[Vector, ...]:
    """A JSON list of lists of numbers as float tuples; any other shape, or
    a number too large for a float, raises ``ValueError``."""
    if not isinstance(rows, list):
        raise ValueError(f"{name} must be a list of vectors, got {rows!r}")
    for x in rows:
        if not isinstance(x, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in x
        ):
            raise ValueError(f"{name} must hold lists of numbers, got {x!r}")
    try:
        return tuple(tuple(float(v) for v in x) for x in rows)
    except OverflowError:
        raise ValueError(f"{name} has a coordinate too large for a float") from None


_JSON_TYPE_NAMES = {list: "an array", str: "a string", bool: "a boolean", int: "a number",
                    float: "a number", type(None): "null"}


def instance_from_dict(obj: dict) -> ClusteringInstance:
    if not isinstance(obj, dict):
        got = _JSON_TYPE_NAMES.get(type(obj), type(obj).__name__)
        raise ValueError(f"instance JSON must be an object, got {got}")
    missing = {"dimension", "points", "k", "objective"} - obj.keys()
    if missing:
        raise ValueError(f"instance JSON is missing fields: {sorted(missing)}")
    centers = obj.get("candidate_centers")
    return ClusteringInstance(
        dimension=obj["dimension"],
        points=_vectors(obj["points"], "points"),
        k=obj["k"],
        objective=obj["objective"],
        candidate_centers=None if centers is None else _vectors(centers, "candidate_centers"),
    )


def instance_to_json(inst: ClusteringInstance) -> str:
    return json.dumps(asdict(inst), sort_keys=True, indent=2) + "\n"


def instance_from_json(text: str) -> ClusteringInstance:
    return instance_from_dict(json.loads(text))
