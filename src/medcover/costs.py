"""Single-cluster cost machinery.

For a cluster of edge-points (the image of a graph under the indicator
reduction) the 1-median cost of several special shapes has an exact closed
form: regular simplices (stars and disjoint-edge packings are both simplices
after the reduction), the star-plus-lone-edge family A_n, and the 3-edge path.
Everything else is solved numerically with Weiszfeld's fixed-point iteration,
hardened at data points via the standard subgradient test. One batched loop,
``_weiszfeld_batch``, does every such solve: ``weiszfeld`` runs it on one
point set, ``weiszfeld_subsets`` on every subset of one, the oracle's pruned
median table (``oracle._median_table``) on the subsets its bounds leave
open, and ``median_costs`` on many graphs' clusters at once.
``_dual_bounds`` brackets a batch's 1-median costs without solving them,
between the cost at any point and the Fermat–Weber dual bound there, and
``_step_bounds`` takes it one classical Weiszfeld step from each row's
centroid: the one bound per row of the pruned median table.

1-means costs need no solver at all: the optimal center is the centroid and
the cost collapses to (2r^2 - sum_v deg(v)^2) / r, one exact rational.

``extra_cost`` measures how far a cluster's 1-center cost sits above the best
possible (star) cost of the same size — the quantity the soundness bounds
charge per non-star cluster.

A ``Block`` is one cluster's ``Graph`` with the facts about it that the
cover constructions, the decomposition and the soundness ledger read: its
neighbour masks and degrees, triangle test, star center, bridge witness,
class, maximum matching M, second matching L and exact means extra cost.
Each is computed the first time it is read and kept on that ``Block``, so
readers of one ``Block`` share it, and it goes when the ``Block`` does.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .errors import DomainError, InstanceTooLarge, NotConverged
from .graphs import (
    ClassTag,
    Edge,
    Graph,
    GraphClass,
    Matching,
    bridge_from_masks,
    classify,
    common_vertex,
    maximum_matching,
    neighbour_masks,
    second_maximum_matching,
    triangle_free_from_masks,
)
from .reduction import check_objective

Number = Union[float, Fraction]

BASIS_CLOSED = "exact_closed_form"
BASIS_UPPER = "numerical_upper"

_SNAP = 1e-12  # distance under which an iterate is treated as sitting on a data point
MAX_CONTINUOUS_POINTS = 12  # largest point set whose 2^n subsets are tabulated
# Weiszfeld's stop rule, and the iterations a row may take before it raises
# ``NotConverged``
WEISZFELD_TOLERANCE = 1e-12
WEISZFELD_MAX_ITER = 100_000


@dataclass(frozen=True)
class MedianSolution:
    """Result of a 1-median solve. ``cost`` is the sum of distances from the
    points to ``center``, measured at that center. ``converged`` is always
    True: a solve that reaches its iteration cap raises ``NotConverged``."""

    center: tuple[float, ...]
    cost: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class ExtraCost:
    """Cost of a cluster above the same-size star baseline.

    basis says how the figure was obtained: ``BASIS_CLOSED`` for an exact
    value (a median closed form as a float, or a means cost as a
    ``Fraction``), ``BASIS_UPPER`` for a numerical upper estimate (Weiszfeld).
    """

    value: Number
    basis: str


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def simplex_median_cost(r: int, s: float) -> float:
    """1-median cost of r vertices of a regular simplex with side s: the
    optimum sits at the centroid and costs s * sqrt(r(r-1)/2)."""
    if r < 1:
        raise ValueError("r must be >= 1")
    if s <= 0:
        raise ValueError("side length must be positive")
    return s * math.sqrt(r * (r - 1) / 2)


def star_median_cost(r: int) -> float:
    """Star with r edges: its edge-points form a simplex of side sqrt(2),
    giving cost sqrt(r(r-1)) — the minimum over all r-edge clusters, and so
    the baseline ``median_extra_cost`` subtracts.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    return math.sqrt(r * (r - 1))


def disjoint_edges_median_cost(r: int) -> float:
    """r pairwise vertex-disjoint edges: simplex of side 2, cost sqrt(2)*sqrt(r(r-1)).

    Evaluated as sqrt(2r(r-1)) so that r=2 yields exactly 2.0.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    return math.sqrt(2.0 * r * (r - 1))


def a_n_median_cost(n: int) -> float:
    """Star with n edges plus one vertex-disjoint edge (r = n+1 edges total):

        sqrt(r(r-1)) + sqrt(3 + 1/(r-1)) - sqrt(r/(r-1))

    For n = 1 this degenerates to 2, matching two disjoint edges.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    r = n + 1
    return star_median_cost(r) + math.sqrt(3 + 1 / (r - 1)) - math.sqrt(r / (r - 1))


def l1_median_cost() -> float:
    """3-edge path (two stars of one edge each joined by a bridge): 1 + sqrt(3)."""
    return 1.0 + math.sqrt(3.0)


# ---------------------------------------------------------------------------
# Numerical 1-median (Weiszfeld with subgradient handling at data points)
# ---------------------------------------------------------------------------

def weiszfeld(points: Sequence[Sequence[float]]) -> MedianSolution:
    """Geometric median by Weiszfeld iteration from the centroid: one row of
    ``_weiszfeld_batch``, which holds the on-point test, escape step, stop
    rule at ``WEISZFELD_TOLERANCE`` and final snap to an optimal data point.
    Raises ``NotConverged`` on reaching ``WEISZFELD_MAX_ITER``, so
    ``converged`` is always True.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("need a non-empty sequence of equal-length vectors")
    costs, centers, iterations = _weiszfeld_batch(pts[None])
    return MedianSolution(tuple(centers[0].tolist()), float(costs[0]), int(iterations[0]), True)


def weiszfeld_subsets(points: Sequence[Sequence[float]]) -> tuple[np.ndarray, np.ndarray]:
    """Geometric median of every non-empty subset of ``points`` at once.

    Returns ``(costs, centers)`` indexed by bitmask: row ``mask`` solves the
    points whose indices are the set bits of ``mask`` (row 0 is unused).
    Subsets of one size are solved together as one ``_weiszfeld_batch``,
    gathered through the index arrays of ``_subsets_by_size``. Raises
    ``NotConverged`` if any subset reaches ``WEISZFELD_MAX_ITER``. More
    than ``MAX_CONTINUOUS_POINTS`` points raise ``InstanceTooLarge`` before
    any table is allocated.
    """
    if len(points) > MAX_CONTINUOUS_POINTS:
        raise InstanceTooLarge(
            f"{len(points)} points exceeds the {MAX_CONTINUOUS_POINTS}-point subset table limit"
        )
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("need a non-empty sequence of equal-length vectors")
    n, dim = pts.shape
    costs = np.zeros(1 << n)
    centers = np.zeros((1 << n, dim))
    for rows, members in _subsets_by_size(n):
        costs[rows], centers[rows], _ = _weiszfeld_batch(pts[members])
    return costs, centers


@functools.lru_cache(maxsize=None)
def _subsets_by_size(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """For each size k = 1..n, the bitmasks of the k-subsets of n points in
    increasing order and, one row per subset, their members' indices in
    increasing order. They depend only on n, so each n is built once per
    process and kept, read-only."""
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    size = bits.sum(axis=1)
    out = []
    for k in range(1, n + 1):
        rows = np.flatnonzero(size == k)
        members = np.nonzero(bits[rows])[1].reshape(len(rows), k)
        rows.flags.writeable = members.flags.writeable = False
        out.append((rows, members))
    return tuple(out)


# Every row takes the classical step, which divides by zero on a row that sits
# on a data point; the subgradient branch then redoes those rows. A starting
# cost that is not finite (an overflow, or a NaN or infinite coordinate)
# raises DomainError.
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _weiszfeld_batch(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Geometric median of each row of a (batch, points, dim) array of
    equal-size blocks, by Weiszfeld iteration from the centroid. This is the
    package's one Weiszfeld loop. Returns ``(costs, centers, iterations)``.

    When an iterate lands within ``_SNAP`` of data points, the classical
    update is undefined; ``_data_point_test`` applies there instead: the
    point is optimal iff ||R|| <= m, and the row then stays put; otherwise
    it steps away along R by (||R|| - m)/L, the step that guarantees
    progress (L is the summed inverse distance to the others). A row stops
    when its relative cost change or its center displacement drops below
    ``WEISZFELD_TOLERANCE`` (no caller sets another), so a row that stays
    put stops at once. Raises ``NotConverged`` if any row reaches
    ``WEISZFELD_MAX_ITER`` iterations, and ``DomainError`` if a starting
    cost is not finite.

    A row that stops beside a data point passing the test strictly
    (||R|| < m) returns that point when it costs less: there the median is
    the point itself, and the iteration's linear crawl toward it (at rate
    about ||R||/m) can meet the stop rule while still measurably above it.
    At ||R|| = m the test is decided by rounding, so the row keeps its
    iterate.

    Rows never mix: every reduction runs along one row's own points in the
    same order whatever the batch holds, so a row's result does not depend
    on the other rows. The working arrays hold the unfinished rows only and
    shrink when rows finish. Each iteration computes distances once, to the
    new iterate; they give that iterate's cost and the next iteration's
    weights, and a row's last distances give its cost and its nearest data
    point. Norms are ``_norms`` and ``_distances`` and sums
    ``np.add.reduce``, the reductions ``np.linalg.norm`` and ``ndarray.sum``
    run, over the same axes of the same arrays. The step's weighted point
    sum is ``np.einsum`` from two coordinates on (``_weighted_sum_for``): it
    adds each row's weighted points in point order, as the reduce of their
    products over the points axis does, without building those products.
    So every float is the one those calls give. The weighted sum is chosen
    once per batch, from the number of coordinates. An iteration whose
    distances are all at least ``_SNAP`` skips the on-point test.
    """
    max_iter, tolerance = WEISZFELD_MAX_ITER, WEISZFELD_TOLERANCE
    y = blocks.mean(axis=1)
    iterations = np.zeros(len(blocks), dtype=np.int64)
    if blocks.shape[1] == 1:
        return np.zeros(len(blocks)), y, iterations
    weighted_sum = _weighted_sum_for(blocks.shape[2])
    costs = np.empty(len(blocks))
    nearest = np.empty(len(blocks), dtype=np.intp)
    active = np.arange(len(blocks))
    pts, ya = blocks, y
    dist = _distances(pts, ya)
    prev_cost = np.add.reduce(dist, axis=1)
    if not np.isfinite(prev_cost).all():
        raise DomainError("a distance to the centroid is not finite")
    for it in range(1, max_iter + 1):
        w = 1.0 / dist
        y_next = weighted_sum(pts, w) / np.add.reduce(w, axis=1)[:, None]
        if dist.min() < _SNAP:
            h = np.flatnonzero((dist < _SNAP).any(axis=1))
            r_vec, r_norm, multiplicity, away = _data_point_test(pts[h], ya[h], dist[h])
            optimal = r_norm <= multiplicity
            y_next[h[optimal]] = ya[h[optimal]]
            move = ~optimal
            if move.any():
                lipschitz = np.add.reduce(np.where(away[move], 1.0 / dist[h[move]], 0.0), axis=1)
                r_m = r_norm[move]
                length = (r_m - multiplicity[move]) / lipschitz
                y_next[h[move]] = ya[h[move]] + length[:, None] * (r_vec[move] / r_m[:, None])
        dist = _distances(pts, y_next)
        cost = np.add.reduce(dist, axis=1)
        done = np.abs(prev_cost - cost) <= tolerance * np.maximum(1.0, cost)
        done |= _norms(y_next - ya) <= tolerance
        if done.any():
            finished = active[done]
            costs[finished], y[finished], iterations[finished] = cost[done], y_next[done], it
            nearest[finished] = dist[done].argmin(axis=1)
            keep = ~done
            active = active[keep]
            if not active.size:
                _snap_to_optimal_point(blocks, y, costs, nearest)
                return costs, y, iterations
            pts, ya, dist, prev_cost = pts[keep], y_next[keep], dist[keep], cost[keep]
        else:
            ya, prev_cost = y_next, cost
    raise NotConverged(
        f"{active.size} of {len(blocks)} {blocks.shape[1]}-point blocks did not "
        f"converge in {max_iter} iterations"
    )


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _step_bounds(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each row's centroid c and the cost there, and two bounds on its
    1-median cost, for a (batch, points, dim) array of equal-size blocks:
    ``_dual_bounds`` at the point y one classical Weiszfeld step from c,
    sum x_i / |x_i - c| over sum 1 / |x_i - c|. A row with a point on c has
    no such step, and its y is c. A cost at c that is not finite raises the
    ``DomainError`` ``_weiszfeld_batch`` raises for its start, which is c
    too."""
    centers = np.einsum("bpd->bd", blocks) / blocks.shape[1]
    diff = blocks - centers[:, None, :]
    dist = np.sqrt(np.einsum("bpd,bpd->bp", diff, diff))
    del diff  # freed before ``_dual_bounds`` builds its own: a table's peak memory
    cost = np.add.reduce(dist, axis=1)
    if not np.isfinite(cost).all():
        raise DomainError("a distance to the centroid is not finite")
    w = 1.0 / dist
    at = np.einsum("bpd,bp->bd", blocks, w) / np.add.reduce(w, axis=1)[:, None]
    on_point = np.isnan(at).any(axis=1)  # a point on c weighs inf, which gives NaN
    at[on_point] = centers[on_point]
    return (centers, cost, *_dual_bounds(blocks, at))


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _dual_bounds(blocks: np.ndarray, at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two bounds on each row's 1-median cost, for a (batch, points, dim)
    array of equal-size blocks and one point y per row: the cost at y
    above, and below the Fermat–Weber dual bound at y. A y with a NaN
    coordinate gives NaN bounds.

    Any vectors u_i with |u_i| <= 1 that sum to 0 give sum |x_i - z| >=
    sum u_i . (x_i - z) = sum u_i . (x_i - y) for every z (Kuhn 1973). Here
    u_i is the unit vector e_i from y to x_i (0 for a point at y), less
    their mean m, scaled down by the largest |e_i - m| when that passes 1;
    at the median the unit vectors sum to 0 and the bound is tight. Since
    e_i . (x_i - y) = |x_i - y|, the dual is (upper - sum m . (x_i - y)) /
    scale. Every x_i - y is rounded relative to its own length, so the
    float dual is off by at most a few ulps of the upper bound per point
    and coordinate.
    """
    r = blocks.shape[1]
    diff = blocks - at[:, None, :]
    dist = np.sqrt(np.einsum("bpd,bpd->bp", diff, diff))
    upper = np.add.reduce(dist, axis=1)
    off = dist > 0.0
    inv = np.divide(1.0, dist, out=np.zeros_like(dist), where=off)
    mean = np.einsum("bpd,bp->bd", diff, inv) / r
    along = np.einsum("bpd,bd->bp", diff, mean)  # m . (x_i - y)
    # |e_i - m|^2 = |e_i|^2 - 2 e_i . m + |m|^2, and |e_i| is 1 off y
    spread = np.where(off, 1.0 - 2.0 * inv * along, 0.0).max(axis=1)
    scale = np.sqrt(np.maximum(1.0, spread + np.einsum("bd,bd->b", mean, mean)))
    return upper, (upper - np.add.reduce(along, axis=1)) / scale


def _weighted_sum_for(dim: int):
    """The weighted point sum of ``_weiszfeld_batch``'s step, sum_p w[b, p]
    * pts[b, p, :], for blocks of ``dim`` coordinates, with the floats of
    ``np.add.reduce(pts * w[:, :, None], axis=1)``. From two coordinates on,
    that reduce adds each row's products in point order, one coordinate
    vector at a time. ``np.einsum`` (unoptimized, so no BLAS) runs its
    inner loop along the coordinates too and adds the points in the same
    order, without building the (batch, points, dim) products; the tests
    check this on the installed numpy. With one coordinate numpy drops the
    length-1 axis and sums the points pairwise, which the einsum does not
    reproduce from 3 points on, so that case keeps the reduce."""
    if dim == 1:
        return lambda pts, w: np.add.reduce(pts * w[:, :, None], axis=1)
    return lambda pts, w: np.einsum("bpd,bp->bd", pts, w)


def _distances(pts: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Distances from each row's points ``pts[b]`` to its point ``y[b]``:
    ``_norms(pts - y[:, None, :])``, squaring the differences in place."""
    diff = pts - y[:, None, :]
    np.multiply(diff, diff, out=diff)
    return np.sqrt(np.add.reduce(diff, axis=-1))


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis: what ``np.linalg.norm(x,
    axis=-1)`` returns for real ``x``, the same ``np.add.reduce`` of the
    squares, without its conjugate copy and dispatch."""
    return np.sqrt(np.add.reduce(x * x, axis=-1))


def _data_point_test(
    pts: np.ndarray, at: np.ndarray, dist: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The subgradient test of each row's 1-median at its point ``at``, from
    the row's distances ``dist`` to it. Returns the summed unit vectors R
    toward the points at least ``_SNAP`` away, ||R||, the multiplicity m of
    the points within ``_SNAP``, and the mask of the points away. ``at`` is
    optimal for its row iff ||R|| <= m.
    """
    away = dist >= _SNAP
    d_away = np.where(away, dist, 1.0)
    r_vec = np.add.reduce(
        np.where(away[:, :, None], (pts - at[:, None, :]) / d_away[:, :, None], 0.0), axis=1
    )
    return r_vec, _norms(r_vec), np.add.reduce(~away, axis=1), away


def _snap_to_optimal_point(
    pts: np.ndarray, y: np.ndarray, cost: np.ndarray, nearest: np.ndarray
) -> None:
    """Move each row of ``_weiszfeld_batch``'s final centers ``y`` and
    ``cost``, in place, to its data point of index ``nearest`` (the one
    nearest to ``y``) where that point costs less and passes
    ``_data_point_test`` strictly (||R|| < m). The point's cost is measured
    first, and only the rows where it is lower take the test.
    """
    point = pts[np.arange(len(pts)), nearest]
    dist = _distances(pts, point)
    at_point = np.add.reduce(dist, axis=1)
    cheaper = np.flatnonzero(at_point < cost)
    if cheaper.size:
        _, r_norm, multiplicity, _ = _data_point_test(pts[cheaper], point[cheaper], dist[cheaper])
        snap = cheaper[r_norm < multiplicity]
        y[snap], cost[snap] = point[snap], at_point[snap]


# ---------------------------------------------------------------------------
# Graph clusters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Block:
    """One cluster's graph, and each fact about it found once: computed
    the first time it is read, kept on this value and nowhere else. Blocks
    of equal graphs compare equal, whatever each has computed. M, L and
    the class are one call each of ``maximum_matching``,
    ``second_maximum_matching`` and ``classify``."""

    graph: Graph

    @property
    def edges(self) -> tuple[Edge, ...]:
        return self.graph.edges

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    @functools.cached_property
    def nbrs(self) -> tuple[int, ...]:
        """Each vertex's neighbours as a bitmask (``neighbour_masks``)."""
        return tuple(neighbour_masks(self.graph))

    @functools.cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(map(int.bit_count, self.nbrs))

    @functools.cached_property
    def triangle_free(self) -> bool:
        return triangle_free_from_masks(self.nbrs, self.edges)

    @functools.cached_property
    def center(self) -> Optional[int]:
        """The vertex every edge holds, the least one for a single edge, or
        None (``common_vertex``, on the edges, so a star needs no masks)."""
        return common_vertex(self.edges)

    @functools.cached_property
    def bridge(self) -> Optional[tuple[Edge, int, int]]:
        """``graphs.bridge_structure``'s witness, on these masks."""
        return bridge_from_masks(self.nbrs, self.edges, self.num_edges, {})

    @functools.cached_property
    def cls(self) -> GraphClass:
        return classify(self.graph)

    @functools.cached_property
    def matching(self) -> Matching:
        """M, the maximum matching."""
        return maximum_matching(self.graph)

    @functools.cached_property
    def second_matching(self) -> Matching:
        """L, the maximum matching of the graph less M's edges."""
        return second_maximum_matching(self.graph, self.matching)

    @functools.cached_property
    def means_extra(self) -> Fraction:
        """The exact 1-means cost above the star's, r - 1."""
        return one_means_cost(self.graph) - (self.num_edges - 1)


Cluster = Union[Graph, Block]


def as_block(g: Cluster) -> Block:
    """g if it is a ``Block``, else a new ``Block`` of g: how every public
    function that reads a cluster's facts takes a ``Graph`` or a ``Block``."""
    return g if isinstance(g, Block) else Block(g)


def cluster_points(g: Graph) -> np.ndarray:
    """Edge-indicator embedding of a cluster: one {0,1}^n point per edge."""
    pts = np.zeros((g.num_edges, g.num_vertices))
    for row, (u, v) in enumerate(g.edges):
        pts[row, u] = 1.0
        pts[row, v] = 1.0
    return pts


def fundamental_median_cost(cls: GraphClass) -> Optional[float]:
    """Exact 1-median cost of a fundamental class that has a closed form:
    3-P2, A_n and L_1. Every other class gives None; L_n for n >= 2 has only
    the proven floors of ``decomposition.residual_class_bound``."""
    if cls.tag is ClassTag.THREE_P2:
        return disjoint_edges_median_cost(3)
    if cls.tag is ClassTag.A_N:
        return a_n_median_cost(cls.n)
    if cls.tag is ClassTag.L_N and cls.n == 1:
        return l1_median_cost()
    return None


def closed_form_median_cost(g: Graph) -> Optional[float]:
    """Exact 1-median cost of the embedded cluster when its class has one:
    ``star_median_cost`` for a star (a single edge is the star with r = 1),
    else ``fundamental_median_cost`` of its class (None when there is none)."""
    cls = classify(g)
    if cls.tag in (ClassTag.SINGLE_EDGE, ClassTag.STAR):
        return star_median_cost(g.num_edges)
    return fundamental_median_cost(cls)


def median_costs(graphs: Sequence[Graph]) -> list[tuple[float, str]]:
    """``median_cost`` of every graph, in input order.

    A graph whose class has a closed form gets it. The rest are grouped by
    (edges, vertices) shape, and each shape's embedded clusters are solved
    as one ``_weiszfeld_batch``; a row's result does not depend on its batch,
    so each cost is the one ``weiszfeld`` gives for that graph alone.
    """
    out: list = [None] * len(graphs)
    shapes: dict[tuple[int, int], list[int]] = {}
    for i, g in enumerate(graphs):
        exact = closed_form_median_cost(g)
        if exact is None:
            shapes.setdefault((g.num_edges, g.num_vertices), []).append(i)
        else:
            out[i] = (exact, BASIS_CLOSED)
    for rows in shapes.values():
        blocks = np.stack([cluster_points(graphs[i]) for i in rows])
        costs, _, _ = _weiszfeld_batch(blocks)
        for i, cost in zip(rows, costs.tolist()):
            out[i] = (cost, BASIS_UPPER)
    return out


def median_cost(g: Graph) -> tuple[float, str]:
    """1-median cost of a cluster: the closed form if its class has one,
    else Weiszfeld's numerical upper estimate. Returns (cost, basis), and
    raises ``NotConverged`` if the solve reaches ``WEISZFELD_MAX_ITER``.
    """
    return median_costs([g])[0]


def one_means_cost(g: Graph) -> Fraction:
    """Optimal 1-means cost of a cluster with r edges, exactly:

        sum_v deg(v) * (1 - deg(v)/r) = (2r^2 - sum_v deg(v)^2) / r

    The optimal center is the centroid, and for indicator points the sum of
    squared distances to it reduces to the degree sum on the left. Every
    edge adds 1 to two degrees, so sum_v deg(v) = 2r on any graph, triangles
    included, and the left side equals the right: one ``Fraction`` of two
    integers instead of a rational sum. A star with r edges gives r - 1, the
    minimum over all r-edge clusters.

    Closed form of the extra cost. Let D be the number of vertex-disjoint
    edge pairs. sum_v deg(v)^2 = sum_v deg(v) + sum_v deg(v)(deg(v) - 1):
    the first sum is 2r, and the second counts each ordered pair of
    distinct edges at a vertex they share, so once per ordered pair that
    meets (two distinct edges share at most one vertex), 2(C(r, 2) - D) in
    all. Hence sum_v deg(v)^2 = r(r + 1) - 2D, and the cost is
    r - 1 + 2D/r: 2D/r above the star.

    On a triangle-free graph that is not a star, 2D >= r - 1. Call an edge
    covering when it meets every other edge. Two covering edges must meet,
    say as uv and uw, and every further edge then holds u (vw would close a
    triangle), which makes a star. So at most one edge covers, each of the
    other r - 1 edges misses some edge, and D, which counts each such miss
    from both ends, is at least (r - 1)/2. The means extra cost of a
    non-star is thus at least (r - 1)/r.

    Per cover number. With tau the size of a minimum vertex cover,
    3D >= r(tau - 1) on a triangle-free graph, so its extra cost is at
    least (2/3)(tau - 1):
    - tau = 1, a star: D = 0, and 0 >= 0.
    - tau >= 4. The edges disjoint from an edge uv are the edges of the
      graph less u and v. A cover of that graph plus u and v covers the
      whole, so its cover number is at least tau - 2, and it has at least
      that many edges. Summed over the edges this count is 2D, so
      2D/r >= tau - 2, which is at least (2/3)(tau - 1) when tau >= 4.
      This case does not use triangle-freeness.
    - tau = 2, with a cover {a, b}; every edge holds a or b. If ab is an
      edge, no vertex is adjacent to both (triangle-free), so the graph is
      ab with p leaves at a and q at b, and p, q >= 1 since it is not a
      star. Only a leaf edge at a and one at b are disjoint: D = pq,
      r = p + q + 1, and 3pq >= p + q + 1 because pq is at least each of
      p, q and 1. If ab is not an edge, let a have p neighbours and b have
      q, c of them common, with 1 <= p <= q (p = 0 is a star). Then
      r = p + q, and an edge at a misses one at b unless both end at the
      same common neighbour, so D = pq - c >= p(q - 1). At p = q = 1,
      c = 1 is the star a-x-b and c = 0 two disjoint edges, 3 >= 2.
      Otherwise q >= 2, and 3p(q - 1) >= p + q: at p = 1 it reads
      2q >= 4, and at p >= 2 the left side less the right is
      p(3q - 4) - q >= 5q - 8 > 0. The three-edge path P4 is the equality
      case of both forms (p = q = 1 with ab an edge; p = 1, q = 2, c = 1).
    - tau = 3. The count above gives only 2D/r >= 1 where 4/3 is needed,
      so the proof grows the graph from a small base instead.
      - Adding an edge keeps the inequality when tau >= 3. Let H and H + e
        both have cover number t, with e = uv. The pairs H + e gains are e
        with each edge of H less u and v. A cover of that graph plus u and
        v covers H + e, so that graph has cover number at least t - 2, and
        so at least t - 2 edges. The left side grows by at least 3(t - 2)
        and the right by t - 1, and 3(t - 2) >= t - 1 once t >= 3. This
        step does not use triangle-freeness.
      - Every triangle-free graph with tau = 3 contains 3K2 or C5. If it
        has three disjoint edges they are a 3K2. Otherwise its matching
        number is at most 2 < tau, so it is not bipartite (Koenig) and has
        an odd cycle. The shortest one is at least 5 long, as there is no
        triangle, and a cycle of length 2l + 1 holds l disjoint edges, so
        l <= 2: the cycle is a C5.
      - Both bases meet it: C5 has r = D = 5 (15 >= 10), and 3K2 has
        r = D = 3 (9 >= 6).
      - Add the graph's other edges to that base one at a time. Every
        graph on the way has cover number 3, between the base's and the
        whole graph's, so each step keeps the inequality.
      The base needs triangle-freeness: K4 has tau = 3 and 3D = 9 < 12.
      ``tests/test_costs.py`` checks both bases and, on every catalogue
      graph up to 8 edges with tau = 3, the base and the step's disjoint
      edge.
    """
    r = g.num_edges
    if r < 1:
        raise ValueError("cluster must have at least one edge")
    return Fraction(2 * r * r - sum(d * d for d in g.degrees()), r)


def extra_cost(g: Cluster, objective: str) -> ExtraCost:
    """Cluster cost above the same-size star baseline.

    median: 1-median cost minus sqrt(r(r-1)); exact when the class has a
    closed form, otherwise a numerical upper estimate.
    means:  1-means cost minus (r-1), always exact (rational arithmetic):
    the block's ``means_extra``, so a ``Block`` computes it once.
    """
    check_objective(objective)
    b = as_block(g)
    if objective == "means":
        return ExtraCost(b.means_extra, BASIS_CLOSED)
    return median_extra_cost(b.graph, *median_cost(b.graph))


def median_extra_cost(g: Graph, cost: float, basis: str) -> ExtraCost:
    """A 1-median cost of g, with its basis, above the same-size star
    baseline ``star_median_cost``."""
    return ExtraCost(cost - star_median_cost(g.num_edges), basis)
