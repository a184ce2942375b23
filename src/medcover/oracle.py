"""Exhaustive desk-scale oracles.

Everything here is deliberately brute force: exact optimal clusterings by
dynamic programming over point subsets or by scanning center subsets, exact
minimum vertex covers by branch and bound, and a canonical-form enumerator
for small triangle-free graphs. These are the independent referees the
constructive machinery is tested against, so they share no code with it
beyond the graph substrate (``graphs``) and the 1-median solver.

The continuous oracle builds its block-cost tables in one pass before the
DP. For median, every one of the 2^n - 1 point subsets gets two bounds at
the point one classical Weiszfeld step from its centroid: the cost there
above and the Fermat–Weber dual bound there below, less the margin
``_BOUND_MARGIN``. The search's own prefix layers, run over the upper
bounds, cap the optimum at every k. A partition that holds a given subset
is floored by the subset's lower bound plus a size floor on the rest
(``_row_selection``, which states the one keep rule). A table is built
for the k of the call that builds it and every larger k: only the subsets
that some partition into at most k' blocks, for some k' >= k, within the
margin of the k' cap can use are solved, by the batched Weiszfeld loop
from the centroid (one batch per subset size, which raises
``NotConverged`` rather than return an unconverged cost). The rest keep
their centroid and its cost; no partition near an optimum at k or above
uses them, so every optimum from k up is the full Weiszfeld table's bit
for bit (``_median_table``). So a table built at k leaves out the rows
that only smaller k can use, mostly the big blocks of k = 1 and 2.
For means every subset of integer points gets its centroid cost from exact
integer subset sums (other points go one subset at a time through
``_centroid_cost_exact``). A cost that overflows float raises ``DomainError``. The subset DP
then keeps layer j as a float64 array over only the 2^(n-j) masks it can
reach, those that hold points 0..j-1, at index mask >> j. Layer 1 is every
other row of the block-cost table, and each later layer is built in numpy
from the previous one through one candidate table per point count
(``_layout``): the candidates' int32 gather indices and their target
groups, of which layer j reads a prefix. Each process builds a table once
per n and keeps it read-only, and a layer costs two gathers and the group
reductions. Its result is the same, bit for bit, as a
Python loop over dicts that resolves ties first-wins within 1e-15: every
mask takes the first candidate, in that loop's order, of its cheapest ones,
and the few masks with two candidates closer than a 1e-14 window replay the
loop exactly. The process keeps one instance, read-only, in one entry
(``_tables_and_layers``): the objective, the exact point tuples, the k its
tables were built for, the tables and DP layers 1..K. A call on the same
points at or above that k builds only the layers it lacks; any other call
empties the entry, then builds afresh, and a build that raises leaves it
empty. The entry is replaced whole, never changed in place. The discrete
oracle walks its center subsets as a combination tree in slices of at
most ``DISCRETE_CHUNK``: a child extends its prefix's nearest-center
distances by one ``np.minimum``, and each subset's cost takes the same
float additions, in the same order, as a per-subset sum. The walk is a
branch and bound: it skips the children of every prefix whose cost with
all later centers added is not below the current best by more than the
1e-15 the scan needs to replace its best, so no skipped subset could have
won. The root's bound is the cost with every center, at most any subset's
cost, so the walk stops once the best is not above it by more than 1e-15.
Until the best is finite, each slice of prefixes is cut to max(1,
``DISCRETE_CHUNK`` // (n - k + 1)), so the first descent holds about one
slice of children per level and the bound acts from the first scored
slice on.

``canonical_form`` works components first: a bitmask flood fill splits the
graph, and a graph with two or more components gets the sorted certificates
of its components, so vertices of different components never tie in one
search. For each connected graph it refines the vertices into ordered
cells by iterated degree refinement, relabelling each round's keys to their
ranks in tuple order as equitable refinement does (McKay & Piperno 2014,
"Practical graph isomorphism, II"), so a round sorts tuples of small ints
and touches only vertices in cells of two or more. It then finds the least
adjacency bitstring one row at a time, branching only on vertices that tie
for the least row (in the spirit of individualization-refinement): one
loop over each state's candidates builds a candidate's row and its split
state in one pass over the blocks. A search raises ``InstanceTooLarge``
when its tie frontier passes ``MAX_CANON_STATES``. The enumerator extends
each connected graph on its neighbour masks and searches each extension
directly, building a ``Graph`` only for a new certificate; a tree gets a
leaf once per orbit, its refinement cells. It composes a disjoint union's
certificate from its parts' certificates the same way as
``canonical_form`` (``_union_form``), without a search.
Every exhaustive routine has an explicit ceiling, and a broken internal
invariant raises ``Stuck`` rather than asserting.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .costs import (
    MAX_CONTINUOUS_POINTS,
    _step_bounds,
    _subsets_by_size,
    _weiszfeld_batch,
)
from .errors import DomainError, InstanceTooLarge, PreconditionViolated, Stuck
from .graphs import (
    Graph,
    component_masks,
    is_triangle_free,
    is_vertex_cover,
    neighbour_masks,
)
from .reduction import ClusteringInstance

MAX_DISCRETE_SUBSETS = 10**6
DISCRETE_CHUNK = 1024  # prefixes or center subsets per slice of the discrete walk
MAX_VC_EDGES = 24
MAX_ENUM_EDGES = 8
MAX_CANON_STATES = 50_000
# The first-wins tie rule of both oracles (``_first_wins``): the margin a
# cost must beat, and the window (relative, at least 1) above the least cost
# inside which another cost makes the scan replay in Python.
_TIE_MARGIN = 1e-15
_TIE_WINDOW = 1e-14
# The median table's margin (``_median_table``), relative to max(1, the
# value it pads). It must exceed everything that can move a cost or a DP
# value: the dual bound's rounding (a few ulps), the first-wins drift of the
# DP (under 2^11 x 1e-15 = 2e-12), the 1e-14 tie window and Weiszfeld's
# 1e-12 stop rule. 1e-9 exceeds each by a factor of at least 500.
_BOUND_MARGIN = 1e-9


@dataclass(frozen=True)
class OracleReport:
    """An exactly-optimal clustering: total cost, the partition of point
    indices, one center per block, and which search produced it (so
    consumers know whether cost carries Weiszfeld tolerance or is exact)."""

    optimal_cost: float
    partition: tuple[tuple[int, ...], ...]
    centers: tuple[tuple[float, ...], ...]
    method: str


def _centroid_cost_exact(points: Sequence[Sequence[float]]) -> tuple[float, tuple[float, ...]]:
    """Sum of squared distances to the centroid. Integer coordinates (the
    only kind our reductions emit) are folded in exact rationals; others are
    added onto 0.0 one at a time, points outer, as ``sum`` of floats does up
    to Python 3.11 (3.12 compensates), so every Python gives the same bits."""
    n = len(points)
    dim = len(points[0])
    if all(float(c).is_integer() for p in points for c in p):
        mean = [Fraction(sum(int(p[d]) for p in points), n) for d in range(dim)]
        sse = sum(
            (Fraction(int(p[d])) - mean[d]) ** 2 for p in points for d in range(dim)
        )
        return float(sse), tuple(float(c) for c in mean)
    sums = [0.0] * dim
    for p in points:
        for d in range(dim):
            sums[d] += p[d]
    mean = [t / n for t in sums]
    sse = 0.0
    for p in points:
        for d in range(dim):
            sse += (p[d] - mean[d]) ** 2
    return sse, tuple(mean)


def _centroid_table(points: Sequence[Sequence[float]]) -> tuple[np.ndarray, np.ndarray]:
    """``_centroid_cost_exact`` for every non-empty subset of ``points``,
    indexed by bitmask (row 0 is unused).

    For integer points the coordinate sums S, squared-norm sums Q and sizes
    r are extended subset by subset (each subset from the one without its
    highest point), and the cost (r*Q - |S|^2) / r and center S / r are each
    one exact-integer division rounded once, so both equal the rational
    values bit for bit. Other points, or integers too large for exact
    float64 division, go through ``_centroid_cost_exact`` one subset at a time.
    """
    pts = np.asarray(points, dtype=float)
    n, dim = pts.shape
    biggest = float(np.abs(pts).max())
    if (pts == np.floor(pts)).all() and n * n * dim * biggest * biggest < 2.0**53:
        ints = pts.astype(np.int64)
        sums = np.zeros((1 << n, dim), dtype=np.int64)
        squares = np.zeros(1 << n, dtype=np.int64)
        sizes = np.zeros(1 << n, dtype=np.int64)
        for i in range(n):
            low, high = 1 << i, 1 << (i + 1)
            sums[low:high] = sums[:low] + ints[i]
            squares[low:high] = squares[:low] + int((ints[i] * ints[i]).sum())
            sizes[low:high] = sizes[:low] + 1
        sizes[0] = 1  # row 0 is unused; keeps its division defined
        numerators = sizes * squares - (sums * sums).sum(axis=1)
        return numerators / sizes, sums / sizes[:, None]
    costs = np.zeros(1 << n)
    centers = np.zeros((1 << n, dim))
    for mask in range(1, 1 << n):
        costs[mask], centers[mask] = _centroid_cost_exact(
            [points[i] for i in range(n) if mask >> i & 1]
        )
    return costs, centers


class _Layout(NamedTuple):
    """The DP candidates at n points, grouped by local target (``_layout``)."""

    source: np.ndarray  # int32: each candidate's local source, target ^ block
    block: np.ndarray  # int32: each candidate's local block
    starts: np.ndarray  # each target group's first candidate
    sizes: np.ndarray  # each group's number of candidates


@functools.lru_cache(maxsize=None)
def _layout(n: int) -> _Layout:
    """Every DP layer's candidates at n points, in one table: the words over
    the n - 1 free points of layer 2, grouped by target in increasing order,
    each group in the order the submask loop meets it. Each process builds
    each n once and keeps it, read-only: 12 tables and about 1.1 MB for
    every n <= 12. The gather indices are int32 and ``_extend`` reads them
    with ``ndarray.take``, about twice as fast as fancy indexing through
    uint16 ones.

    That loop extends the masks of layer j - 1 in the order it first reached
    them, each by every block that holds the mask's lowest missing point, in
    decreasing order, and sets target = mask | block. With finite block
    costs a target's first candidate always lands, so layer j - 1 holds
    every mask that contains points 0..j-2, first reached in decreasing
    order: mask T of layer j first comes from T minus point j - 1, and a
    larger T from a larger mask. A mask offers a target at most one block,
    so each target meets its candidates in decreasing mask order, which is
    increasing block order.

    A candidate of layer j is a word over its f = n - j + 1 free points
    j-1..n-1: each lies in the previous mask, in the block, or in neither,
    and the first one outside the mask lies in the block. The table keeps
    them local, shifted down by j - 1: the source is then the mask's index
    in layer j - 1 (mask >> (j - 1)), and the target t is odd, the mask
    t >> 1 of layer j. The words are built one point at a time, upward, as
    [those with the new point in neither, in the mask, then the one word
    with only the new point in the block, then those with it in the block].
    That order keeps every target's blocks increasing, so a stable sort by
    target groups them, and it keeps a word over the first f points in
    place when later points join neither part: layer j's candidates are the
    table's first (3^f - 1)/2 entries, and its targets the first 2^(f-1)
    groups, 1, 3, ..., 2^f - 1 (``_candidates``).
    """
    free = n - 1  # layer 2's
    small = np.min_scalar_type((1 << free) - 1)  # uint8 or uint16, which numpy sorts by radix
    total = (3 ** free - 1) // 2
    target = np.empty(total, dtype=small)
    block = np.empty(total, dtype=small)
    c = 0  # words so far that hold a block
    for i in range(free):
        bit = 1 << i
        np.bitwise_or(target[:c], bit, out=target[c:2 * c])
        target[2 * c] = 2 * bit - 1
        np.bitwise_or(target[:c], bit, out=target[2 * c + 1:3 * c + 1])
        block[c:2 * c] = block[:c]
        block[2 * c] = bit
        np.bitwise_or(block[:c], bit, out=block[2 * c + 1:3 * c + 1])
        c = 3 * c + 1
    order = np.argsort(target, kind="stable")
    target, block = target[order], block[order]
    starts = np.searchsorted(target, np.arange(1, 1 << free, 2))
    layout = _Layout(
        source=(target ^ block).astype(np.int32),
        block=block.astype(np.int32),
        starts=starts,
        sizes=np.diff(starts, append=total),
    )
    for a in layout:
        a.flags.writeable = False
    return layout


def _candidates(
    n: int, j: int, prev: np.ndarray, block_cost: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Layer j's candidate costs (j >= 2), each its source's value in
    ``prev``, layer j - 1, plus its block's cost, and the starts and sizes
    of their target groups: the prefix of ``_layout(n)`` with f = n - j + 1
    free points. Local block b is mask b << (j - 1), so the block costs are
    read through the strided view ``block_cost[::1 << (j - 1)]``."""
    layout = _layout(n)
    free = n - j + 1
    count, groups = (3 ** free - 1) // 2, 1 << (free - 1)
    cost = prev.take(layout.source[:count])
    cost += block_cost[::1 << (j - 1)].take(layout.block[:count])
    return cost, layout.starts[:groups], layout.sizes[:groups]


def _first_wins(
    value: float, index: int, positions: np.ndarray, costs: np.ndarray
) -> tuple[float, int]:
    """The first-wins scan over ``costs`` at ``positions``, in order, from
    ``value`` set by ``index``: it moves to a cost only when it is below the
    current value by more than ``_TIE_MARGIN``, so within that margin the
    earlier cost wins. Returns the value and index the scan ends on."""
    for i, c in zip(positions.tolist(), costs[positions].tolist()):
        if c < value - _TIE_MARGIN:
            value, index = c, i
    return value, index


def _extend(
    n: int, j: int, prev: np.ndarray, block_cost: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """DP layer j's values and choices (j >= 2) from layer j - 1's values
    ``prev``, each by its mask >> j, the choice as its block >> (j - 1).

    Equal, bit for bit, to the submask loop, which walks the candidates in
    ``_layout``'s order and moves a target to a candidate only when it is
    cheaper than the target's current value by more than 1e-15: the first
    candidate always lands and, within 1e-15, the earlier one wins. When no
    candidate of a target lies above its minimum by at most
    1e-14 * max(1, |minimum|) (ten times 1e-15 plus any rounding of the
    comparison), that chain ends on the first candidate equal to the
    minimum. Any other target replays the chain in Python. Everything that
    depends only on n comes from ``_layout``, so a call is two gathers and
    an add (``_candidates``), the group reductions and the replays.
    """
    cost, starts, sizes = _candidates(n, j, prev, block_cost)
    low = np.minimum.reduceat(cost, starts)
    at = np.flatnonzero(cost <= np.repeat(low, sizes))  # the candidates at their minimum
    first = at.take(np.searchsorted(at, starts))  # each target's first one
    near = cost <= np.repeat(low + _TIE_WINDOW * np.maximum(1.0, np.abs(low)), sizes)
    near[at] = False  # above the minimum, inside the window
    for g in np.flatnonzero(np.logical_or.reduceat(near, starts)).tolist():
        group = np.arange(starts[g], starts[g] + sizes[g])
        low[g], first[g] = _first_wins(math.inf, first[g], group, cost)
    return low, _layout(n).block.take(first)


def _slack(value):
    """``_BOUND_MARGIN`` x max(1, value), elementwise."""
    return _BOUND_MARGIN * np.maximum(1.0, value)


def _row_selection(n: int, upper: np.ndarray, lower: np.ndarray, by_size) -> tuple:
    """The two sides of each k's keep test: its bars, U(k) + ``_slack``, by
    k - 1, and its floors on the rest, F_{k-1}, by k - 1 and the rest's
    point count. Block S of r points passes at k when lower(S) + F_{k-1}(n - r)
    is at most the bar, and a table built at ``first`` solves S when some
    k >= ``first`` passes it (``_median_table``).

    U(k), an upper bound on the k-optimum, is the least of the prefix DP's
    layers 1..k at the full mask, run over ``upper`` through ``_candidates``
    (minima only: a bound needs no tie-break). The floor of a partition that
    holds S is lower(S) plus a floor on the rest, full ^ S, split into at
    most k - 1 blocks: the size floor F_{k-1} of the rest's point count.
    F_0 is 0 on the empty rest and inf on any other. For j >= 1, F_j(m) is 0
    for m <= j and otherwise the least, over r = 1..m, of L(r) +
    F_{j-1}(m - r), where L(r) is the least ``lower`` of the masks of r
    points (so F_1(m) = L(m) for m >= 2): a DP over the n + 1 point counts,
    which ``by_size`` gives each mask.

    Why the floor is safe in floats: the exact floor of a rest R is the
    least ``lower`` sum over the partitions of R into at most j blocks, each
    the ``lower`` of the block that holds R's lowest point plus the exact
    floor of what it leaves. A block of r points has ``lower`` at least
    L(r), every ``lower`` is at least 0, and the size floor adds those
    minima in the same nested order: the first block, plus the rest.
    Rounded addition is monotone, so, by induction on j, the size floor is
    at most the exact floor bit for bit, and every subset the exact floor
    keeps is kept.
    """
    lowest = [0.0] + [float(lower.take(rows).min()) for rows, _ in by_size]  # L by point count
    floors = np.full((n, n + 1), math.inf)
    floors[0, 0] = 0.0  # F_0: at k = 1 only the empty rest
    bars = np.empty(n)
    exact = upper[1::2]  # prefix layer k over upper, by mask >> k
    ceiling = math.inf
    for k in range(1, n + 1):
        if k > 1:
            cost, starts, _ = _candidates(n, k, exact, upper)
            exact = np.minimum.reduceat(cost, starts)
            floor = floors[k - 2].tolist()  # F_{k-2}
            floors[k - 1] = [0.0 if m < k else min(lowest[r] + floor[m - r] for r in range(1, m + 1))
                             for m in range(n + 1)]
        ceiling = min(ceiling, float(exact[-1]))  # the full mask
        bars[k - 1] = ceiling + _slack(ceiling)
    return bars, floors


def _median_table(points: tuple, first: int) -> tuple[np.ndarray, np.ndarray]:
    """The median block table of ``_tables_and_layers`` for k = ``first``
    and up: row ``mask`` holds a cost and center for the points whose
    indices are its set bits, and every optimum read off it, at every
    k >= ``first``, is the full Weiszfeld table's (``costs.weiszfeld_subsets``)
    bit for bit.

    Every row gets the point y one classical Weiszfeld step from its
    centroid (the centroid itself when a point sits on it), the cost at y
    as its upper bound, and the Fermat–Weber dual bound at y less
    ``_slack(upper)``, floored at 0, as its lower bound
    (``costs._step_bounds``). Kuhn's dual bounds the 1-median from below at
    any point, and its float value is off by at most a few ulps of the cost
    at that point (``costs._dual_bounds``), which the slack, taken from the
    same cost, covers. Only the rows some k >= ``first`` keeps, by the keep
    test of ``_row_selection``, are solved, one
    ``_weiszfeld_batch`` per size, from the centroid; a floor on a
    partition is never above the sum of the partition's lower bounds. Rows
    never mix, so a solved row has the full table's bits. The others keep
    the centroid and its cost, a feasible pair no cheaper than the row's
    1-median. y and its cost would do as well, but the step's rounding
    splits the equal costs of congruent blocks by a few ulps, and each mask
    whose candidates then differ by less than the 1e-14 tie window replays
    the DP in Python (``_extend``): over twice as many masks on the
    ``completeness`` graphs at their cover sizes. Weiszfeld from the
    centroid takes the same step first and does not raise the cost after
    it, so U(k), the DP over the upper bounds, caps the k-optimum of either
    table up to rounding the slack covers. A solved cost outside
    [lower, upper + slack] raises ``Stuck``, and ``NotConverged`` can come
    only from a solved row. At ``first`` = 1 every row some k keeps is
    solved; a larger ``first`` skips the big blocks only small k can use.

    Why the optima stay at every k >= ``first``: k does not keep an
    unsolved row, so a partition into at most k blocks that uses one costs
    more than U(k) + slack in either table, so more than
    the k-optimum by more than the slack; a part of one that fills a mask on
    the DP's path to an optimum, completed by the rest of that optimum, is
    such a partition, so it too lies the slack above the optimum's part.
    A partition of solved rows alone costs the same in both tables, so each
    layer j <= k, below ``first`` too, either lies more than the slack above
    the k-optimum at the full mask in both tables or takes its value there
    from solved rows in both. The first-wins DP (``_extend``) moves only on
    a gain of more than 1e-15, so candidates more than 2^11 x 1e-15 above a
    mask's least (a mask has at most 2^11) cannot change where it settles,
    and the slack is far above that: along that path, and at the full mask
    of every layer within the slack of the optimum, both tables pick the
    same block at the same value, and the same layer wins.
    """
    pts = np.asarray(points, dtype=float)
    n, dim = pts.shape
    costs = np.zeros(1 << n)
    centers = np.zeros((1 << n, dim))
    upper = np.zeros(1 << n)
    lower = np.zeros(1 << n)
    by_size = _subsets_by_size(n)
    for rows, members in by_size:
        centers[rows], costs[rows], upper[rows], lower[rows] = _step_bounds(pts[members])
    lower = np.maximum(0.0, lower - _slack(upper))
    bars, floors = _row_selection(n, upper, lower, by_size)
    for r, (rows, members) in enumerate(by_size, 1):
        # k by row, reduced over k: about twice as fast as row by k at 11 points
        keep = (floors[first - 1:, n - r, None] + lower.take(rows) <= bars[first - 1:, None]).any(axis=0)
        rows = rows[keep]
        if not rows.size:
            continue
        solved, at, _ = _weiszfeld_batch(pts[members[keep]])
        high = upper.take(rows)
        if ((solved < lower.take(rows)) | (solved > high + _slack(high))).any():
            raise Stuck("a 1-median cost lies outside its bounds")
        costs[rows], centers[rows] = solved, at
    return costs, centers


def _block_tables(objective: str, points: tuple, first: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only cost and center tables of ``_tables_and_layers``,
    serving every k >= ``first``: ``_median_table`` for median, exact
    centroid sums (valid at every k) for means. A cost that overflows or is
    not finite raises ``DomainError``."""
    try:
        if objective == "median":
            cost_table, center_table = _median_table(points, first)
        else:
            cost_table, center_table = _centroid_table(points)
    except OverflowError:  # an exact cost too large for a float
        raise DomainError("a block cost overflows float") from None
    if not np.isfinite(cost_table[1:]).all():
        raise DomainError("a block cost is not finite")
    cost_table.flags.writeable = center_table.flags.writeable = False
    return cost_table, center_table


def _tables_and_layers(objective: str, points: tuple, k: int) -> tuple:
    """One instance at k >= 1, read-only: each point subset's block cost and
    center by bitmask (row 0 unused), then DP layers j = 1..k as (best,
    choice) pairs over the 2^(n-j) masks that hold points 0..j-1, each at
    index mask >> j: ``best`` is the least cost of serving the mask with j
    blocks and ``choice`` the last of those blocks, shifted down by j - 1.
    Layer 1 is ``block_cost[1::2]``, each mask its own block, and a later
    one ``_extend``'s.

    The process keeps one entry, ``_tables_and_layers.entry``: (objective,
    exact point tuples, the k the tables were built for, cost table, center
    table, layers so far). A call reads it once. An entry on the same
    objective and points whose tables were built at k or below serves the
    call, since a table serves every k from the one it was built at, and
    only the layers it lacks are built. Otherwise the entry is emptied
    first, so the old instance is freed before the new tables are built and
    a build that raises leaves it empty. The call stores its instance as a
    new tuple in one assignment, so a concurrent reader always sees a whole
    one."""
    entry = _tables_and_layers.entry
    if entry is not None and entry[:2] == (objective, points) and k >= entry[2]:
        first, cost_table, center_table, layers = entry[2:]
    else:
        entry = _tables_and_layers.entry = None  # free the old instance before the new tables
        first, layers = k, ()
        cost_table, center_table = _block_tables(objective, points, k)
    n = len(points)
    for j in range(len(layers) + 1, k + 1):
        if j == 1:
            best, choice = cost_table[1::2], np.arange(1, 1 << n, 2, dtype=np.int32)
        else:
            best, choice = _extend(n, j, layers[-1][0], cost_table)
        best.flags.writeable = choice.flags.writeable = False
        layers += ((best, choice),)
    _tables_and_layers.entry = (objective, points, first, cost_table, center_table, layers)
    return cost_table, center_table, layers[:k]


_tables_and_layers.entry = None
_tables_and_layers.cache_clear = lambda: setattr(_tables_and_layers, "entry", None)


def opt_continuous(inst: ClusteringInstance) -> OracleReport:
    """Exact optimum of the instance over all partitions into at most k
    blocks, each block served by its own optimal center.

    Optimal k-clusterings are partition-induced, and splitting a block never
    raises cost, so searching partitions into <= k blocks is exhaustive. A
    cost and center for every one of the 2^n - 1 point subsets are tabulated
    up front. For means they are exact centroid sums. For median
    (``_median_table``) a table built at k solves a subset by batched
    Weiszfeld, at ``costs.WEISZFELD_TOLERANCE``, only when some partition
    into at most k' blocks that holds it, for some k' = k..n, has a
    certified lower bound within ``_BOUND_MARGIN`` (1e-9, relative) of an
    upper bound on the k'-optimum: the subset's own lower bound plus a floor
    on the rest of the partition by its point count (``_row_selection``). The
    subset's bounds are the cost and the dual one Weiszfeld step from its
    centroid. Every other subset keeps its centroid and centroid cost. No
    partition within the margin of an optimum at k or above uses those
    rows, and the margin is far above the DP's 1e-15 tie-break drift, so
    every cost, partition and center equals the full Weiszfeld table's bit
    for bit, at every k the table serves, and ``NotConverged`` can come
    only from a solved subset.

    The search then runs as a subset DP over those tables: layer j holds
    the best cost of serving each point subset with j blocks, one float64
    array over the 2^(n-j) masks that hold points 0..j-1, the only ones it
    reaches. Each new block
    holds the lowest point not yet served, and among candidates within 1e-15
    of each other the first in the submask loop's order wins (see
    ``_extend``), so partitions and costs are the same, bit for bit, as that
    loop's. A block cost that is not finite raises ``DomainError``; more
    than ``MAX_CONTINUOUS_POINTS`` points raise ``InstanceTooLarge`` before
    anything is built.

    One instance stays cached, read-only (``_tables_and_layers``): the
    objective, the exact points, the k its tables were built for, its two
    tables (4096 rows at 12 points) and its layers 1..K (layer j a
    2^(12-j)-entry value array and int32 choice array, the first value
    array a view of the cost table). The same points at any k at or above
    the tables' k reuse them and build only the missing layers, bit for bit
    as a cold call would, since a table serves every k from the one it was
    built at; a k below it or other points build afresh, and the old
    instance is dropped before the new tables are built, so the two are
    never held together. A build that raises leaves nothing cached.
    Concurrent callers may each build the same value; the entry is only
    ever replaced whole, so each reads a whole one and gets an equal report.
    """
    n = len(inst.points)
    if n > MAX_CONTINUOUS_POINTS:
        raise InstanceTooLarge(f"{n} points exceeds the {MAX_CONTINUOUS_POINTS}-point oracle limit")
    if inst.k > n:
        raise PreconditionViolated("k exceeds the number of points")
    # -0.0 == 0.0 in the key; _median_table and _centroid_table give the same rows for either
    points = tuple(map(tuple, inst.points))
    _, center_table, layers = _tables_and_layers(inst.objective, points, inst.k)
    best_j = min(range(1, inst.k + 1), key=lambda j: layers[j - 1][0][-1])  # the full mask
    blocks: list[tuple[int, ...]] = []
    mask = (1 << n) - 1
    for j in range(best_j, 0, -1):
        sub = int(layers[j - 1][1][mask >> j]) << (j - 1)
        blocks.append(tuple(i for i in range(n) if sub >> i & 1))
        mask &= ~sub
    blocks.sort()
    centers = tuple(
        tuple(center_table[sum(1 << i for i in b)].tolist()) for b in blocks
    )
    method = "partition_enum_weiszfeld" if inst.objective == "median" else "partition_enum_centroid"
    return OracleReport(
        optimal_cost=float(layers[best_j - 1][0][-1]),
        partition=tuple(blocks),
        centers=centers,
        method=method,
    )


def _distance_table(inst: ClusteringInstance) -> np.ndarray:
    """Row c holds each point's distance to candidate center c (squared for
    means): coordinate differences, squares by ``np.float_power``, which
    calls libm's ``pow`` as Python's ``**`` does (``np.square`` and an
    array's ``** 2`` multiply instead, which rounds the last bit differently
    for about one double in a thousand), added one at a time in coordinate
    order onto 0.0, then ``sqrt`` for median. (Python's ``sum`` of floats
    does the same additions up to 3.11; from 3.12 it compensates them.)
    Coordinates are squared a block at a time, at most ``DISCRETE_CHUNK`` x
    points squares, so the dimension adds no memory beyond the inputs. A
    finite difference whose square overflows raises ``DomainError``.
    """
    m, n = len(inst.points), len(inst.candidate_centers)
    points = np.array(inst.points, dtype=float).reshape(m, inst.dimension)
    centers = np.array(inst.candidate_centers, dtype=float).reshape(n, inst.dimension)
    table = np.zeros((n, m))
    step = max(1, DISCRETE_CHUNK // n)  # coordinates per block
    for lo in range(0, inst.dimension, step):
        # [coordinate, center, point]
        diff = points.T[lo:lo + step, None, :] - centers.T[lo:lo + step, :, None]
        squares = np.float_power(diff, 2.0)
        if (np.isinf(squares) & np.isfinite(diff)).any():
            raise DomainError("a squared distance overflows float")
        for layer in squares:
            table += layer
    return table if inst.objective == "means" else np.sqrt(table)


@dataclass
class _TreeLevel:
    """The children of one slice of prefixes in ``_cheapest_subset``'s walk."""

    near: np.ndarray  # each prefix's distance from every point to its nearest center
    ends: np.ndarray  # each prefix's newest center
    parent: np.ndarray  # each child's prefix, as a row of ``near``
    last: np.ndarray  # each child's newest center
    bound: Optional[np.ndarray] = None  # each prefix's bound, built at its first use
    taken: Optional[np.ndarray] = None  # the children of the slice being walked
    stop: int = 0  # the children before ``stop`` have been sliced

    def bounds(self, suffix: np.ndarray) -> np.ndarray:
        """Each prefix's cost with every later center added: its distances
        against row ``end + 1`` of the suffix-minimum table, built once."""
        if self.bound is None:
            later = suffix.take(self.ends + 1, 0)
            self.bound = _point_sums(np.minimum(later, self.near, out=later))
        return self.bound


def _point_sums(rows: np.ndarray) -> np.ndarray:
    """Each row's entries added one at a time in column order onto 0.0."""
    sums = np.zeros(len(rows))
    for column in rows.T:
        sums += column
    return sums


def _cheapest_subset(table: np.ndarray, k: int) -> tuple[float, Optional[tuple[int, ...]]]:
    """The k-subset of the table's rows, and its cost, that a scan in
    ``itertools.combinations`` order keeps when it replaces its best only
    with a subset cheaper by more than 1e-15; ``(inf, None)`` when no cost
    is finite.

    The subsets are walked depth first as a combination tree, by branch and
    bound. A prefix is kept as each point's distance to its nearest chosen
    center, and a child adds one center with one ``np.minimum``. Each level
    is walked in slices of at most ``DISCRETE_CHUNK`` prefixes or subsets,
    and a slice of prefixes is cut short where their children would pass
    ``DISCRETE_CHUNK`` x points (one prefix is always taken). A level thus
    holds at most ``DISCRETE_CHUNK`` x points distances and
    max(``DISCRETE_CHUNK`` x points, n - k + 1) child indices, whatever
    C(n, k) is; the suffix-minimum table below is as large as ``table``. A
    subset's cost adds its points' distances one at a time in point order
    onto 0.0 (``_point_sums``).

    A prefix's bound is its cost with every later center added: the same
    additions over the elementwise minimum of its distances and row
    ``last + 1`` of a suffix-minimum table (row i is the least distance to
    centers i..n-1, row n is inf). Minima are exact and rounded addition is
    monotone, so the bound is at most the cost of each of the prefix's
    completions. Once the best is finite, a slice skips every child whose
    prefix's bound is not below the current best by more than 1e-15. The
    scan replaces its best only with a subset cheaper by more than 1e-15,
    and the best never rises, so no skipped subset could have replaced it:
    the chain of replacements, and so the result, is the unpruned scan's.
    A level's bounds are built at its first slice with a finite best.

    The root's bound, built at the first new best, is the cost with every
    center, at most every subset's cost by the same argument. After each
    new best the walk stops when that bound is not below the best by more
    than 1e-15: no subset left could replace it, so the stop only drops
    work that would change nothing. And while the best is still inf (no
    finite cost scored yet), each slice of prefixes is cut to
    max(1, ``DISCRETE_CHUNK`` // (n - k + 1)), so their children fit one
    slice: the first descent reaches a subset after about one slice per
    level, not whole levels, and the bound acts from then on. Slicing only
    regroups the scan, in the same order, so neither changes the result.

    Within a slice, only subsets cheaper than the best so far by more than
    1e-15 can take its place, and the chain of such replacements ends near
    the slice's least cost ``low`` (the argument of ``_extend``). When no
    other cost lies in (low, low + 1e-14 * max(1, low)], the chain ends on
    the first subset at ``low``. Otherwise it is replayed in Python over
    the slice's subsets that beat the best so far by more than 1e-15.
    """
    n, m = table.shape
    best_cost: float = math.inf
    best_subset: Optional[tuple[int, ...]] = None
    suffix = np.full((n + 1, m), math.inf)
    np.minimum.accumulate(table[::-1], axis=0, out=suffix[n - 1::-1])

    def level(depth: int, near: np.ndarray, last: np.ndarray) -> _TreeLevel:
        """The children of the prefixes that end at ``last``; the center at
        ``depth`` (counting from 0) is at most n - k + depth."""
        count = n - k + depth - last
        parent = np.repeat(np.arange(len(last)), count)
        first = last + 1 - (np.cumsum(count) - count)
        return _TreeLevel(near, last, parent, np.arange(len(parent)) + first.take(parent))

    stack = [level(0, np.full((1, m), math.inf), np.array([-1]))]
    while stack:
        top = stack[-1]
        if top.stop >= len(top.parent):
            stack.pop()
            continue
        start = top.stop
        internal = len(stack) < k
        width = DISCRETE_CHUNK
        if internal and best_cost == math.inf:  # the first descent: one slice of children
            width = max(1, DISCRETE_CHUNK // (n - k + 1))
        last = top.last[start:start + width]
        if internal and len(last) * (n - k + 1) > DISCRETE_CHUNK * m:
            children = np.cumsum(n - k + len(stack) - last)
            last = last[:max(1, int(np.searchsorted(children, DISCRETE_CHUNK * m, side="right")))]
        top.stop = start + len(last)
        top.taken = np.arange(start, top.stop)
        if best_cost < math.inf:
            bound = top.bounds(suffix).take(top.parent[top.taken])
            top.taken = top.taken[bound < best_cost - _TIE_MARGIN]
            if not len(top.taken):
                continue
        near = top.near.take(top.parent.take(top.taken), 0)
        last = top.last.take(top.taken)
        np.minimum(near, table.take(last, 0), out=near)
        if internal:
            stack.append(level(len(stack), near, last))
            continue
        costs = _point_sums(near)
        i = int(costs.argmin())  # the first subset at the slice's least cost
        low = float(costs[i])
        if not low < best_cost - _TIE_MARGIN:
            continue
        if ((costs > low) & (costs <= low + _TIE_WINDOW * max(1.0, low))).any():
            beat = np.flatnonzero(costs < best_cost - _TIE_MARGIN)
            low, i = _first_wins(best_cost, i, beat, costs)
        best_cost = low
        subset = []
        for frame in reversed(stack):  # follow the winner's prefixes up to the root
            j = int(frame.taken[i])
            subset.append(int(frame.last[j]))
            i = int(frame.parent[j])
        best_subset = tuple(reversed(subset))
        if not stack[0].bounds(suffix)[0] < best_cost - _TIE_MARGIN:
            break  # no subset costs less than the root's bound
    return best_cost, best_subset


def opt_discrete(inst: ClusteringInstance) -> OracleReport:
    """Exact optimum when centers must come from the candidate list: try
    every k-subset, assign each point to its nearest chosen center.

    A subset's cost adds each point's nearest chosen distance in point
    order, and the first subset, in ``itertools.combinations`` order,
    cheaper than the best before it by more than 1e-15 wins, so ties
    resolve to the earliest subset. The distances are tabulated in numpy
    (``_distance_table``) and the subsets walked as a combination tree in
    slices of at most ``DISCRETE_CHUNK``, by branch and bound
    (``_cheapest_subset``): a subtree is skipped only where a lower bound
    on all its costs shows none could replace the best, and the walk stops
    once the best reaches the cost with every center, which no subset can
    beat. Until a finite cost is scored, its slices of prefixes are about
    one slice of children wide. Costs, partition and centers equal a
    one-subset-at-a-time scan of every subset bit for bit.
    No points, no candidate centers, or k above their count raise
    ``PreconditionViolated``, and more than ``MAX_DISCRETE_SUBSETS``
    subsets raise ``InstanceTooLarge``, before anything is built.
    """
    if inst.candidate_centers is None:
        raise PreconditionViolated("instance has no candidate centers")
    if not inst.points:
        raise PreconditionViolated("instance has no points")
    centers = inst.candidate_centers
    if inst.k > len(centers):
        raise PreconditionViolated(f"k={inst.k} exceeds the {len(centers)} candidate centers")
    if math.comb(len(centers), inst.k) > MAX_DISCRETE_SUBSETS:
        raise InstanceTooLarge(
            f"C({len(centers)}, {inst.k}) subsets exceed the {MAX_DISCRETE_SUBSETS} limit"
        )
    with np.errstate(over="ignore"):  # a float sum that overflows is inf, as in Python
        table = _distance_table(inst)
        best_cost, best_subset = _cheapest_subset(table, inst.k)
    if best_subset is None:
        raise PreconditionViolated("no center subset has a finite cost")
    # argmin takes the first of equal distances: the lowest center index
    homes = table[list(best_subset)].argmin(axis=0).tolist()
    assignment: dict[int, list[int]] = {c: [] for c in best_subset}
    for i, h in enumerate(homes):
        assignment[best_subset[h]].append(i)
    pairs = [(tuple(pts), centers[c]) for c, pts in assignment.items() if pts]
    pairs.sort()
    return OracleReport(
        optimal_cost=best_cost,
        partition=tuple(p for p, _ in pairs),
        centers=tuple(tuple(map(float, c)) for _, c in pairs),
        method="center_subset_enum",
    )


def min_vertex_cover(g: Graph) -> set[int]:
    """Exact minimum vertex cover by branch and bound over the sorted edges:
    at the first uncovered edge (u, v), u < v, take u, then v. A branch
    stops once its cover plus a greedy matching of the edges it leaves
    uncovered (each matched edge needs its own vertex) reaches the best size
    found, so only a strictly smaller cover ever replaces the best.

    Deterministic: among minimum covers the lexicographically smallest (as a
    sorted tuple), S, is returned, whatever the order of ``g.edges``. Every
    cover met before S is larger, so the bound, at most |S| on S's path,
    never cuts that path. No other minimum cover C is met first: C's path
    would leave S's at an edge (u, v) by taking u where S's took v, so u is
    not in S; every later pick on either path is at least u, so C and S
    agree below u, and then C has u where S has a larger vertex, making C
    the smaller. More than ``MAX_VC_EDGES`` edges raise ``InstanceTooLarge``
    before the search."""
    if g.num_edges > MAX_VC_EDGES:
        raise InstanceTooLarge(f"{g.num_edges} edges exceeds the {MAX_VC_EDGES}-edge limit")
    edges = sorted(g.edges)
    best = [{v for e in edges for v in e}]

    def search(cover: set[int], start: int) -> None:
        first = None
        bound = len(cover)
        matched: set[int] = set()
        for i in range(start, len(edges)):
            u, v = edges[i]
            if u in cover or v in cover:
                continue
            if first is None:
                first = i
            if u not in matched and v not in matched:
                matched.update(edges[i])
                bound += 1
        if bound >= len(best[0]):
            return
        if first is None:
            best[0] = cover
            return
        for pick in edges[first]:
            search(cover | {pick}, first + 1)

    search(set(), 0)
    if not is_vertex_cover(g, best[0]):
        raise Stuck(f"branch and bound returned a non-cover {sorted(best[0])}")
    return best[0]


# ---------------------------------------------------------------------------
# Triangle-free graph generation
# ---------------------------------------------------------------------------

def _refine_classes(nbrs: list[int]) -> list[list[int]]:
    """Stable equitable partition of the vertices whose neighbour masks are
    ``nbrs`` (iterated degree refinement), each cell in increasing vertex
    order.

    The partition is the one nested keys give: a vertex's key starts as its
    degree, and each round replaces it with (own key, sorted neighbour
    keys) until a round splits no cell. The cells come in the tuple order
    of their keys.

    Neither the keys nor their tuples are built. A key is held as its
    cell's rank in that order, which the ranks reproduce: a round compares
    its cells' old ranks first, then the sorted old ranks of their
    neighbours, so a cell splits only where the nested keys differ, and its
    parts keep their place among the other cells, in the order of those
    neighbour ranks. A vertex in a cell of one never splits again, so a
    round computes nothing for it, and refinement stops once every cell is
    one vertex.
    """
    n = len(nbrs)
    hoods = []
    for mask in nbrs:
        hood = []
        while mask:
            bit = mask & -mask
            hood.append(bit.bit_length() - 1)
            mask ^= bit
        hoods.append(hood)
    by_degree: dict[int, list[int]] = {}
    for v, hood in enumerate(hoods):
        by_degree.setdefault(len(hood), []).append(v)
    cells = [by_degree[d] for d in sorted(by_degree)]
    while len(cells) < n:
        rank = [0] * n
        for i, cell in enumerate(cells):
            for v in cell:
                rank[v] = i
        parts = []
        for cell in cells:
            if len(cell) == 1:
                parts.append(cell)
                continue
            split: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                split.setdefault(tuple(sorted([rank[u] for u in hoods[v]])), []).append(v)
            parts += [split[near] for near in sorted(split)]
        if len(parts) == len(cells):
            break
        cells = parts
    return cells


def canonical_form(g: Graph) -> str:
    """Canonical certificate: isomorphic graphs get equal strings.

    A graph with at most one connected component gets ``"n:bits"``, the
    least row-major upper-triangle adjacency bitstring over all vertex
    orders that list the cells of ``_refine_classes`` in their order. A
    graph with two or more components gets its components' certificates,
    sorted and joined by ``"+"`` (``_union_form``); each component (an
    isolated vertex is one, ``"1:"``) is relabelled in increasing vertex
    order first. So a union of k disjoint edges costs k one-edge searches,
    not a search through the 2^k·k! orders in which vertices of different
    components tie, and ``MAX_CANON_STATES`` bounds each component's search
    on its own.
    """
    nbrs = neighbour_masks(g)
    comps = component_masks(nbrs)
    if len(comps) <= 1:
        return _connected_form(nbrs, _refine_classes(nbrs))
    forms = []
    for comp in comps:
        members = [v for v in range(g.num_vertices) if comp >> v & 1]
        label = {v: i for i, v in enumerate(members)}
        part = Graph(len(label), tuple((label[u], label[v]) for u, v in g.edges if u in label))
        masks = neighbour_masks(part)
        forms.append(_connected_form(masks, _refine_classes(masks)))
    return _union_form(forms)


def _union_form(forms: Iterable[str]) -> str:
    """A disjoint union's certificate: its parts' certificates, sorted and
    joined by ``"+"``."""
    return "+".join(sorted(forms))


def _connected_form(nbrs: list[int], cells: list[list[int]]) -> str:
    """``"n:bits"`` for a graph with at most one component, whose neighbour
    masks are ``nbrs`` and whose ``_refine_classes`` are ``cells``.

    The least string is found one row at a time. A search state is an
    ordered list of vertex blocks holding the positions still to fill; the
    next position takes a vertex u from the first block. Row p is least when
    every later block lists u's non-neighbours before its neighbours, so its
    value depends only on u's neighbour count per block, and splitting each
    block that way keeps exactly the orders that attain it. Only candidates
    whose row is least survive, so the search branches on ties alone. A
    candidate with the same neighbourhood as one already tried from its
    state is a twin (swapping the two is an automorphism) and is skipped,
    and identical states are merged. A tie frontier larger than
    ``MAX_CANON_STATES`` raises ``InstanceTooLarge``.

    Each candidate's row and split state are built in one pass over its
    state's blocks, led by the first block less the candidate (empty when
    the first block is one vertex, and then it adds no row bits and no
    split block). Row p is held as an int of fixed width n-1-p, built block
    by block as ``(row << size) | ((1 << near) - 1)``; for equal widths int
    order is bitstring order. The rows are appended to one int, formatted
    as a bitstring once, at the end.
    """
    n = len(nbrs)
    frontier = {tuple([sum([1 << v for v in cell]) for cell in cells])}
    bits = 0
    for width in range(n - 1, -1, -1):
        best = 1 << width  # above every row of this width
        nxt: set[tuple[int, ...]] = set()
        for state in frontier:
            first, rest = state[0], state[1:]
            tried = set()
            todo = first
            while todo:
                bit = todo & -todo
                todo ^= bit
                hood = nbrs[bit.bit_length() - 1]
                if hood in tried:
                    continue
                tried.add(hood)
                row = 0
                split = []  # each block split into non-neighbours, then neighbours
                for block in (first ^ bit, *rest):
                    near = block & hood
                    row = (row << block.bit_count()) | ((1 << near.bit_count()) - 1)
                    if near != block:
                        split.append(block ^ near)
                    if near:
                        split.append(near)
                if row > best:
                    continue
                if row < best:
                    best, nxt = row, set()
                nxt.add(tuple(split))
                if len(nxt) > MAX_CANON_STATES:
                    raise InstanceTooLarge(
                        f"canonical form search exceeds {MAX_CANON_STATES} tied states"
                    )
        bits = (bits << width) | best
        frontier = nxt
    total = n * (n - 1) // 2
    return f"{n}:{format(bits, f'0{total}b') if total else ''}"


def _single_edge_extensions(
    nbrs: list[int], orbits: Optional[list[list[int]]]
) -> Iterator[tuple[tuple[int, int], list[int]]]:
    """The one-edge extensions of the connected graph whose neighbour masks
    are ``nbrs`` that stay triangle-free, as (new edge, the extension's
    neighbour masks): an edge between two non-adjacent vertices with no
    common neighbour, then a fresh leaf, vertex n, on each vertex, in
    vertex order. An extension's masks are its parent's with one bit set
    at each end of the new edge.

    Twins (vertices with equal neighbourhoods) are extended from only the
    lowest-indexed vertex of each class, at both ends of an inner edge and at
    the attaching end of a leaf. Swapping two twins is an automorphism of
    the parent, so a skipped extension is isomorphic to one that comes
    earlier in this order, and the first extension seen of each
    isomorphism class is the same as without the pruning. ``orbits``, when
    given, are the parent's orbits, each in increasing vertex order, and a
    leaf goes only on the lowest vertex of each: an automorphism maps any
    vertex of an orbit to any other, so the same argument holds, and an
    orbit holds the twins of its vertices, so the lowest vertex of an
    orbit is the lowest of its twin class too. The enumerator passes them
    for a tree, whose ``_refine_classes`` cells are its orbits.

    An inner edge is tried only when it touches every leaf of the parent.
    If a leaf l of the parent is neither end of the new edge, l is still a
    leaf of the extension h, so h - l is a connected triangle-free graph
    of the previous level with one vertex fewer than the parent. Levels
    sort by vertex count first, so that graph's class is extended before
    the parent, and its leaf extension at l's neighbour (or the lowest
    vertex of that vertex's twin class or orbit) already gave h's class.
    The first extension seen of each class is again unchanged.
    """
    n = len(nbrs)
    leaves = sum([1 << v for v in range(n) if nbrs[v].bit_count() == 1])
    lowest: dict[int, int] = {}
    reps = [v for v in range(n) if lowest.setdefault(nbrs[v], v) == v]
    for i, u in enumerate(reps):
        for v in reps[i + 1:]:
            if nbrs[u] >> v & 1 or nbrs[u] & nbrs[v] or leaves & ~(1 << u | 1 << v):
                continue
            child = nbrs.copy()
            child[u] |= 1 << v
            child[v] |= 1 << u
            yield (u, v), child
    for u in reps if orbits is None else sorted(orbit[0] for orbit in orbits):
        child = nbrs + [1 << u]
        child[u] |= 1 << n
        yield (u, n), child


def enumerate_triangle_free(
    max_edges: int, include_disconnected: bool = False
) -> Iterator[Graph]:
    """All triangle-free graphs with 1..max_edges edges and no isolated
    vertices, up to isomorphism — connected by default, optionally also the
    disconnected ones (disjoint unions of the connected catalogue).

    Built level by level from the one-vertex graph: every connected graph
    with m edges arises from one with m-1 edges by adding an edge (between
    existing vertices or to a fresh leaf), so extending and deduplicating by
    canonical form is exhaustive. An extension of a connected graph is
    connected, so each is certified by ``_connected_form`` on its
    neighbour masks, and a ``Graph`` is built only for a certificate not
    seen before. An inner edge that leaves a leaf of its parent untouched
    is not tried, and a tree gets a leaf only at the lowest vertex of each
    orbit: the same class comes earlier in the level (see
    ``_single_edge_extensions``). A tree's orbits are its
    ``_refine_classes`` cells, kept from its own search. Two vertices that
    refinement leaves in one cell have isomorphic universal covers rooted
    at them (Angluin 1980), and a tree is its own universal cover, so an
    automorphism of the tree maps one to the other; refinement never
    splits an orbit. A disjoint union's certificate is composed
    from its parts' certificates, which the levels already computed, by
    ``_union_form``, as ``canonical_form`` composes it, so unions cost no
    search; the disconnected catalogue therefore reaches ``MAX_ENUM_EDGES``
    too.
    Deterministic output order: edge count, then vertex count, then
    certificate. More than ``MAX_ENUM_EDGES`` edges raise
    ``InstanceTooLarge`` at the call, before a generator is returned.
    """
    if max_edges > MAX_ENUM_EDGES:
        raise InstanceTooLarge(f"enumeration capped at {MAX_ENUM_EDGES} edges")
    return _triangle_free_graphs(max_edges, include_disconnected)


def _triangle_free_graphs(max_edges: int, include_disconnected: bool) -> Iterator[Graph]:
    """The graphs of ``enumerate_triangle_free``, in its order."""
    # (edge count, certificate, graph) of every connected graph, level by level
    catalogue: list[tuple[int, str, Graph]] = []
    # each graph of a level with its neighbour masks, and its orbits if a tree
    level = [(Graph(1, ()), [0], [[0]])]
    for m in range(1, max_edges + 1):
        seen: dict[str, tuple[Graph, list[int], Optional[list[list[int]]]]] = {}
        for g, nbrs, orbits in level:
            for edge, child in _single_edge_extensions(nbrs, orbits):
                cells = _refine_classes(child)
                cert = _connected_form(child, cells)
                if cert not in seen:
                    n = len(child)
                    graph = Graph(n, tuple(sorted(g.edges + (edge,))))
                    seen[cert] = (graph, child, cells if n == m + 1 else None)
        certs = sorted(seen, key=lambda c: (int(c.split(":")[0]), c))
        level = [seen[c] for c in certs]
        catalogue.extend((m, c, seen[c][0]) for c in certs)
        yield from (g for g, _nbrs, _orbits in level)
    if not include_disconnected:
        return
    # Disjoint unions: multisets of >= 2 connected pieces, non-decreasing by
    # catalogue index so each multiset appears once.

    def unions(
        start: int, budget: int, parts: list[tuple[int, str, Graph]]
    ) -> Iterator[list[tuple[int, str, Graph]]]:
        if len(parts) >= 2:
            yield parts
        for idx in range(start, len(catalogue)):
            m, _cert, _g = catalogue[idx]
            if m <= budget:
                yield from unions(idx, budget - m, parts + [catalogue[idx]])

    combos = []
    for parts in unions(0, max_edges, []):
        offset = 0
        edges: list[tuple[int, int]] = []
        for _m, _cert, part in parts:
            edges.extend((u + offset, v + offset) for u, v in part.edges)
            offset += part.num_vertices
        cert = _union_form(c for _m, c, _g in parts)
        combos.append(((len(edges), offset, cert), Graph(offset, tuple(sorted(edges)))))
    combos.sort(key=lambda combo: combo[0])
    for _key, g in combos:
        yield g


def random_triangle_free(n: int, target_degree: int, seed: int) -> Graph:
    """Seeded rejection sampler: shuffle all vertex pairs, insert an edge
    whenever it keeps the graph triangle-free with max degree <=
    target_degree. The result is maximal for the visit order, deterministic
    per seed. target_degree=1 yields a matching."""
    if target_degree < 1:
        raise PreconditionViolated("target degree must be at least 1")
    rng = random.Random(seed)
    pairs = list(itertools.combinations(range(n), 2))
    rng.shuffle(pairs)
    adj: list[set[int]] = [set() for _ in range(n)]
    edges: list[tuple[int, int]] = []
    for u, v in pairs:
        if len(adj[u]) >= target_degree or len(adj[v]) >= target_degree:
            continue
        if adj[u] & adj[v]:
            continue
        adj[u].add(v)
        adj[v].add(u)
        edges.append((u, v))
    g = Graph(n, tuple(sorted(edges)))
    if not is_triangle_free(g):
        raise Stuck(f"rejection sampler kept a triangle (seed {seed})")
    return g
