"""Exhaustive reference solvers and the triangle-free graph catalogue."""

import dataclasses
import functools
import gc
import hashlib
import itertools
import math
import random
import sys
import threading
import time
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medcover import costs, oracle
from medcover.costs import weiszfeld, weiszfeld_subsets
from medcover.errors import DomainError, InstanceTooLarge, NotConverged, PreconditionViolated
from medcover.graphs import (
    Graph,
    component_masks,
    graph_from_edges,
    is_triangle_free,
    is_vertex_cover,
    make_graph,
    max_degree,
    neighbour_masks,
)
from medcover.oracle import (
    _centroid_cost_exact,
    _centroid_table,
    canonical_form,
    enumerate_triangle_free,
    min_vertex_cover,
    opt_continuous,
    opt_discrete,
    random_triangle_free,
)
from medcover.reduction import (
    ClusteringInstance,
    HypergraphInstance,
    reduce_graph,
    reduce_hypergraph,
)
from medcover.suites import completeness_instances
from test_costs import CROSS, _centroid_on_a_point

C5 = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
P4 = [(0, 1), (1, 2), (2, 3)]


# ---------------------------------------------------------------------------
# Continuous and discrete optima
# ---------------------------------------------------------------------------

def test_continuous_p4_two_clusters():
    rep = opt_continuous(reduce_graph(graph_from_edges(P4), k=2, objective="median"))
    assert rep.optimal_cost == pytest.approx(math.sqrt(2), abs=1e-9)
    assert rep.method == "partition_enum_weiszfeld"
    assert sorted(len(b) for b in rep.partition) == [1, 2]


def test_continuous_c5_known_values():
    g = graph_from_edges(C5)
    one = opt_continuous(reduce_graph(g, k=1, objective="median"))
    assert one.optimal_cost == pytest.approx(math.sqrt(30), abs=1e-9)
    three = opt_continuous(reduce_graph(g, k=3, objective="median"))
    assert three.optimal_cost == pytest.approx(1 + math.sqrt(3), abs=1e-9)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 2: Weiszfeld's stop rule is absolute below a cost of 1, so the "
    "median optimum of points scaled by 2^-20 is 2.5e-7 (relative) above the "
    "scaled optimum; a stop on the certified gap would make it hold"))
def test_the_median_optimum_scales_with_the_points():
    inst = reduce_graph(graph_from_edges(P4), k=1, objective="median")
    scale = 2.0 ** -20
    points = tuple(tuple(c * scale for c in p) for p in inst.points)
    small = ClusteringInstance(inst.dimension, points, 1, "median")
    want = opt_continuous(inst).optimal_cost
    assert opt_continuous(small).optimal_cost / scale == pytest.approx(want, rel=1e-12, abs=0)


def test_continuous_means_is_exact_on_partitions():
    g = graph_from_edges([(0, 1), (2, 3)])
    rep = opt_continuous(reduce_graph(g, k=1, objective="means"))
    assert rep.optimal_cost == pytest.approx(2.0, abs=0)
    assert rep.method == "partition_enum_centroid"


def test_continuous_partition_is_a_partition():
    g = graph_from_edges(C5)
    rep = opt_continuous(reduce_graph(g, k=2, objective="median"))
    flat = sorted(i for b in rep.partition for i in b)
    assert flat == list(range(5))
    assert len(rep.partition) <= 2


def test_continuous_point_cap():
    g = graph_from_edges([(0, i) for i in range(1, 14)])  # 13 edges
    with pytest.raises(InstanceTooLarge):
        opt_continuous(reduce_graph(g, k=2, objective="median"))


def _fingerprint(rep):
    return (
        rep.optimal_cost.hex(),
        rep.partition,
        tuple(tuple(c.hex() for c in center) for center in rep.centers),
        rep.method,
    )


def _cold():
    """Empty the continuous oracle's cache of tables and DP layers."""
    oracle._tables_and_layers.cache_clear()


def _key(inst):
    return inst.objective, tuple(map(tuple, inst.points))


def _count_table_builds(monkeypatch):
    builds = []
    for name in ("_median_table", "_centroid_table"):
        build = getattr(oracle, name)

        def counted(*args, _build=build, _name=name, **kwargs):
            builds.append(_name)
            return _build(*args, **kwargs)

        monkeypatch.setattr(oracle, name, counted)
    return builds


def test_continuous_reuse_matches_cold_calls(monkeypatch):
    a = random_triangle_free(7, 3, seed=3)
    b = random_triangle_free(7, 3, seed=4)
    # -0.0 == 0.0 in the key; both cost tables give 0.0 for either
    zero = ClusteringInstance(2, ((0.0, 1.0), (10.0, 1.0), (11.0, 1.0)), 2, "median")
    signed = ClusteringInstance(2, ((-0.0, 1.0), (10.0, 1.0), (11.0, 1.0)), 2, "median")
    calls = (
        [(a, "median", k) for k in (1, 2, 3, 4, 5, 6)]  # k rising
        + [(a, "median", k) for k in (5, 3, 3, 1)]  # falling, then repeated
        + [(a, "means", k) for k in (4, 6, 2)]  # another objective
        # another graph: a fall to 3 the table built at 2 serves, then one below it
        + [(b, "median", k) for k in (2, 5, 3, 1)]
        + [(zero, None, 2), (signed, None, 2)]
    )

    def solve(g, objective, k):
        inst = g if objective is None else reduce_graph(g, k=k, objective=objective)
        return _fingerprint(opt_continuous(inst))

    _cold()
    builds = _count_table_builds(monkeypatch)
    warm = [solve(*call) for call in calls]
    # a table built at k serves every k from k up, so only a new key or a
    # fall below the table's k builds: a median at 1 (its falls reuse it);
    # a means at 4 and the fall to 2; b at 2 and the fall to 1; zero
    # (signed is the same key)
    assert len(builds) == 6
    for call, got in zip(calls, warm):
        _cold()
        assert solve(*call) == got, call


def test_continuous_reuse_is_safe_across_threads():
    instances = [
        reduce_graph(random_triangle_free(6, 3, seed=s), k=k, objective=objective)
        for s in (3, 4) for objective in ("median", "means") for k in (1, 3, 2)
    ]
    cold = []
    for inst in instances:
        _cold()
        cold.append(_fingerprint(opt_continuous(inst)))
    results: dict[int, list] = {}

    def worker(t):
        order = instances[t:] + instances[:t]
        results[t] = [_fingerprint(opt_continuous(inst)) for inst in order * 3]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(th.is_alive() for th in threads)
    for t in range(4):
        assert results[t] == (cold[t:] + cold[:t]) * 3, t


def test_continuous_failed_table_build_leaves_no_slot(monkeypatch):
    # the line's centroid is its data point 0, which is not its median, so
    # the full block, which k = 1 solves, needs more than one iteration
    line = ((-6.0, 0.0), (0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0))
    median = ClusteringInstance(2, line, 1, "median")
    opt_continuous(ClusteringInstance(2, line, 1, "means"))
    with monkeypatch.context() as patch:
        patch.setattr(costs, "WEISZFELD_MAX_ITER", 1)
        with pytest.raises(NotConverged):
            opt_continuous(median)
    # the failed build was not cached: the next call builds again
    builds = _count_table_builds(monkeypatch)
    got = _fingerprint(opt_continuous(median))
    assert builds == ["_median_table"]
    _cold()
    assert _fingerprint(opt_continuous(median)) == got


def test_a_larger_k_on_the_same_points_builds_only_the_missing_layers(monkeypatch):
    inst = reduce_graph(random_triangle_free(7, 3, seed=3), k=2, objective="median")
    _cold()
    opt_continuous(inst)
    extended = []
    extend = oracle._extend

    def counted(n, j, prev, block_cost):
        extended.append(j)
        return extend(n, j, prev, block_cost)

    monkeypatch.setattr(oracle, "_extend", counted)
    builds = _count_table_builds(monkeypatch)
    warm = _fingerprint(opt_continuous(dataclasses.replace(inst, k=4)))
    assert extended == [3, 4] and builds == []
    _cold()
    assert _fingerprint(opt_continuous(dataclasses.replace(inst, k=4))) == warm


def test_another_instance_frees_the_previous_tables_and_layers():
    a = reduce_graph(random_triangle_free(6, 3, seed=3), k=3, objective="median")
    b = reduce_graph(random_triangle_free(6, 3, seed=4), k=3, objective="median")
    assert _key(a) != _key(b)
    opt_continuous(a)
    entry = oracle._tables_and_layers(*_key(a), a.k)
    refs = [weakref.ref(entry[0]), weakref.ref(entry[1]),
            *(weakref.ref(x) for layer in entry[2] for x in layer)]
    del entry
    opt_continuous(b)
    gc.collect()
    assert [r() for r in refs] == [None] * len(refs)


def test_the_previous_instance_is_freed_before_the_new_tables_are_built(monkeypatch):
    a = reduce_graph(random_triangle_free(6, 3, seed=3), k=3, objective="median")
    b = reduce_graph(random_triangle_free(6, 3, seed=4), k=3, objective="median")
    opt_continuous(a)
    entry = oracle._tables_and_layers(*_key(a), a.k)
    refs = [weakref.ref(entry[0]), weakref.ref(entry[1]),
            *(weakref.ref(x) for layer in entry[2] for x in layer)]
    del entry
    alive = []
    build = oracle._median_table

    def checked(points, first):
        gc.collect()
        alive.append(sum(r() is not None for r in refs))
        return build(points, first)

    monkeypatch.setattr(oracle, "_median_table", checked)
    opt_continuous(b)
    assert alive == [0]


def test_a_repeated_call_is_one_cache_hit(monkeypatch):
    inst = reduce_graph(random_triangle_free(6, 3, seed=3), k=3, objective="means")
    _cold()
    first = _fingerprint(opt_continuous(inst))
    extended = []
    extend = oracle._extend
    monkeypatch.setattr(oracle, "_extend", lambda n, j, *rest: extended.append(j) or extend(n, j, *rest))
    builds = _count_table_builds(monkeypatch)
    assert _fingerprint(opt_continuous(inst)) == first
    assert builds == [] and extended == []


def _dict_layers(block_cost, n, kmax):
    """Reference: the subset DP over dicts that the array layers replace.

    ``best[j]`` maps each mask that j blocks reach to its cheapest cost, in
    the order the loop first reaches it, and ``choice[(j, mask)]`` is the
    block that attains it. Masks are extended in that order, each by every
    block holding its lowest missing point, in decreasing order; a candidate
    replaces the current value only when cheaper by more than 1e-15, so
    within 1e-15 the earlier candidate wins.
    """
    full = (1 << n) - 1
    best = [{0: 0.0}]
    choice = {}
    for j in range(1, kmax + 1):
        cur = {}
        for mask, base in best[j - 1].items():
            rest = full & ~mask
            if rest == 0:
                continue
            low = rest & -rest
            sub = rest
            while sub:
                if sub & low:
                    cost = base + block_cost[sub]
                    nxt = mask | sub
                    if cost < cur.get(nxt, math.inf) - 1e-15:
                        cur[nxt] = cost
                        choice[(j, nxt)] = sub
                sub = (sub - 1) & rest
        best.append(cur)
    return best, choice


def _dict_report(inst, best, choice, center_table):
    """Reference: the report read off the dict layers."""
    n = len(inst.points)
    full = (1 << n) - 1
    kmax = min(inst.k, n)
    best_j = min((j for j in range(1, kmax + 1) if full in best[j]), key=lambda j: best[j][full])
    blocks = []
    mask = full
    for j in range(best_j, 0, -1):
        sub = choice[(j, mask)]
        blocks.append(tuple(i for i in range(n) if sub >> i & 1))
        mask &= ~sub
    blocks.sort()
    centers = tuple(tuple(center_table[sum(1 << i for i in b)].tolist()) for b in blocks)
    method = "partition_enum_weiszfeld" if inst.objective == "median" else "partition_enum_centroid"
    return oracle.OracleReport(best[best_j][full], tuple(blocks), centers, method)


def _assert_matches_dict_loop(inst, ks):
    """Solve ``inst`` at each k of ``ks`` in turn, on one key, and compare
    every report and then every cached DP layer with the dict loop's."""
    n = len(inst.points)
    reports = [opt_continuous(dataclasses.replace(inst, k=k)) for k in ks]
    block_cost, center_table, layers = oracle._tables_and_layers(*_key(inst), max(ks))
    best, choice = _dict_layers(block_cost.tolist(), n, max(ks))
    for k, rep in zip(ks, reports):
        want = _dict_report(dataclasses.replace(inst, k=k), best, choice, center_table)
        assert _fingerprint(rep) == _fingerprint(want), k
    for j in range(1, max(ks) + 1):
        layer_best, layer_choice = layers[j - 1]
        # index i holds mask (i << j) | ((1 << j) - 1), its block shifted down by j - 1
        finite = np.flatnonzero(np.isfinite(layer_best)).tolist()
        reached = [(i << j) | ((1 << j) - 1) for i in finite]
        assert reached == sorted(best[j]), j
        assert list(best[j]) == reached[::-1], j  # the loop reaches masks in decreasing order
        got = [float(layer_best[i]).hex() for i in finite]
        assert got == [best[j][m].hex() for m in reached], j
        assert [int(layer_choice[i]) << (j - 1) for i in finite] == [choice[(j, m)] for m in reached], j


def _tie_prone_sets():
    doubled = reduce_graph(random_triangle_free(6, 3, seed=3), k=1, objective="means").points
    return [
        [(1.0, 2.0)] * 7,  # all points equal
        [(0.0, 0.0), (1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)],  # the cross
        [(float(i), 0.0) for i in range(9)],  # collinear integer points
        [p for p in doubled[:5] for _ in range(2)],  # each point twice
    ]


def _differential_calls(family):
    """(instance, the k values it is solved at in turn) for each family."""
    if family == "completeness":
        for g in completeness_instances(16, 0):
            k = len(min_vertex_cover(g))
            for objective in ("median", "means"):
                yield reduce_graph(g, k=k, objective=objective), [k]
    elif family == "ladder":  # k rising on one key, as the benchmark's ladder does
        for seed in (0, 1):
            g = random_triangle_free(7, 3, seed=seed)
            for objective in ("median", "means"):
                yield reduce_graph(g, k=1, objective=objective), range(1, 7)
    elif family == "ties":
        for points in _tie_prone_sets():
            for objective in ("median", "means"):
                inst = ClusteringInstance(len(points[0]), tuple(points), 1, objective)
                yield inst, range(1, len(points) + 1)
    else:  # k = n on the largest instances the oracle takes
        g = next(g for g in completeness_instances(40, 0) if g.num_edges == 12)
        for objective in ("median", "means"):
            yield reduce_graph(g, k=12, objective=objective), [12]


@pytest.mark.parametrize("family", ["completeness", "ladder", "ties", "k_equals_n"])
def test_array_dp_matches_the_dict_loop_bit_for_bit(family):
    _cold()
    for inst, ks in _differential_calls(family):
        _assert_matches_dict_loop(inst, list(ks))


def _median_point_sets(family):
    """(points, the k values they are solved at in turn) for each family of
    the pruned median table's checks."""
    if family == "ties":
        for points in _tie_prone_sets():
            yield points, range(1, len(points) + 1)
    elif family == "completeness":  # under two relabellings each
        for seed in (1, 2):
            rng = random.Random(seed)
            for g in completeness_instances(8, 0):
                perm = rng.sample(range(g.num_vertices), g.num_vertices)
                relabelled = make_graph(g.num_vertices, sorted(
                    tuple(sorted((perm[u], perm[v]))) for u, v in g.edges))
                points = reduce_graph(relabelled, k=1, objective="median").points
                yield points, range(1, len(points) + 1)
    elif family == "ladder":  # k rising on one cache entry, then falling
        for seed in (0, 1):
            points = reduce_graph(random_triangle_free(7, 3, seed=seed), k=1, objective="median").points
            yield points, [*range(1, len(points) + 1), *range(len(points) - 1, 0, -1)]
    else:  # 40 seeded reductions of 9-12 points: 7 vertices give 9-10 edges, 8 give 11-12
        found = 0
        for seed in itertools.count():
            g = random_triangle_free(7 + seed % 2, 3, seed=seed)
            if 9 <= g.num_edges <= 12:
                points = reduce_graph(g, k=1, objective="median").points
                yield points, range(1, len(points) + 1)
                found += 1
                if found == 40:
                    return


@functools.lru_cache(maxsize=None)
def _full_median_table(points):
    """``weiszfeld_subsets`` of every subset, kept for the checks below."""
    return weiszfeld_subsets(points)


@functools.lru_cache(maxsize=None)
def _full_median_dict_loop(points):
    """The dict loop's layers over ``_full_median_table``, up to k = n."""
    return _dict_layers(_full_median_table(points)[0].tolist(), len(points), len(points))


def _builds_over_walk(points, ks, builds):
    """Solve ``points`` from a cold cache at each k of ``ks`` in turn, every
    report the dict loop's over the full Weiszfeld table; the table builds
    the walk made."""
    best, choice = _full_median_dict_loop(points)
    _cold()
    builds.clear()
    for k in ks:
        inst = ClusteringInstance(len(points[0]), points, k, "median")
        want = _dict_report(inst, best, choice, _full_median_table(points)[1])
        assert _fingerprint(opt_continuous(inst)) == _fingerprint(want), (points, k)
    return len(builds)


@pytest.mark.parametrize("family", ["ties", "completeness", "ladder", "seeded"])
def test_pruned_median_table_keeps_every_optimum_bit_for_bit(family, monkeypatch):
    # the dict loop over the full Weiszfeld table is the reference; the
    # pruned table must give its cost, partition and centers at every k
    builds = _count_table_builds(monkeypatch)
    sizes = Counter()
    for points, ks in _median_point_sets(family):
        points = tuple(map(tuple, points))
        sizes[len(points)] += 1
        # rising k extends one entry, and so does a fall the table serves;
        # a fall below the k the table was built for builds afresh
        assert _builds_over_walk(points, ks, builds) == len(set(itertools.accumulate(ks, min))), points
    if family == "seeded":
        assert sorted(sizes) == [9, 10, 11, 12] and sum(sizes.values()) == 40


@pytest.mark.parametrize("family", ["ties", "completeness", "ladder", "seeded"])
def test_a_table_first_built_above_k_1_keeps_every_optimum_bit_for_bit(family, monkeypatch):
    # each point set's table is built at k = n, n - 1, ..., 2 in turn, so it
    # solves only the rows k and up keep: the first call is at n, and each
    # later build is a fall, from a rise of up to two, to one below the k
    # the table was built for, which drops the entry first as a cold call
    # does. Last comes a fall to k = 1: one build at each k = n..1, and
    # none at a rise
    builds = _count_table_builds(monkeypatch)
    for points, _ in _median_point_sets(family):
        points = tuple(map(tuple, points))
        n = len(points)
        ks = [*(k for first in range(n, 1, -1) for k in (first, min(first + 2, n))), 1]
        assert _builds_over_walk(points, ks, builds) == n, points


def test_a_cold_table_at_the_cover_size_solves_only_the_rows_it_can_use(monkeypatch):
    solved = []
    batch = oracle._weiszfeld_batch

    def counted(blocks):
        solved.append(len(blocks))
        return batch(blocks)

    monkeypatch.setattr(oracle, "_weiszfeld_batch", counted)
    graphs = list(completeness_instances(8, 0))
    for at_cover in (True, False):
        solved.clear()
        for g in graphs:
            _cold()
            k = len(min_vertex_cover(g)) if at_cover else 1
            opt_continuous(reduce_graph(g, k=k, objective="median"))
        # of 6,008 subsets; a table first built at k = 1 serves every k. The
        # bounds at the centroid alone pick 832 and 1,439; those one
        # Weiszfeld step from it keep under a third of them
        assert sum(solved) == (264 if at_cover else 459), at_cover


def _bound_families(family):
    if family == "centroid_on_a_point":
        return [CROSS, CROSS + [(0.0, -1.0)], *_centroid_on_a_point(6, 8)]
    return [points for points, _ in _median_point_sets(family)]


@pytest.mark.parametrize("family", ["ties", "completeness", "ladder", "seeded", "centroid_on_a_point"])
def test_centroid_bounds_hold_every_median_cost(family):
    # the bounds _median_table takes for each row, from the centroid and one
    # classical Weiszfeld step from it, hold the row's Weiszfeld cost
    for points in _bound_families(family):
        points = tuple(map(tuple, points))
        cost, _ = _full_median_table(points)
        upper, lower = _median_bounds(points)
        assert (lower[1:] <= cost[1:]).all(), points
        assert (cost[1:] <= upper[1:] * (1 + oracle._BOUND_MARGIN)).all(), points


@pytest.mark.parametrize("family", ["ties", "completeness", "ladder", "seeded", "centroid_on_a_point"])
def test_the_bound_one_step_from_the_centroid_holds_every_median_cost(family):
    # _median_table's one pair of bounds per row, taken one classical
    # Weiszfeld step from the centroid, or at the centroid where a point
    # sits on it and the step is undefined; and the centroid and its cost,
    # which the rows it does not solve keep
    on_point_rows = 0
    for points in _bound_families(family):
        pts = np.asarray(points, dtype=float)
        for rows, members in costs._subsets_by_size(len(pts)):
            blocks = pts[members]
            centroid = np.einsum("bpd->bd", blocks) / blocks.shape[1]
            on_point = (blocks == centroid[:, None, :]).all(axis=2).any(axis=1)
            centers, centroid_cost, *bounds = costs._step_bounds(blocks)
            at_centroid = costs._dual_bounds(blocks, centroid)
            assert centers.tobytes() == centroid.tobytes(), points
            assert centroid_cost.tobytes() == at_centroid[0].tobytes(), points
            for got, want in zip(bounds, at_centroid):
                assert got[on_point].tobytes() == want[on_point].tobytes(), points
            if blocks.shape[1] >= 3:
                on_point_rows += np.count_nonzero(on_point)
    if family == "centroid_on_a_point":
        assert on_point_rows > 0


def _median_bounds(points):
    """Each subset's upper and lower bound, as ``_median_table`` takes them."""
    pts = np.asarray(points, dtype=float)
    upper, dual = np.zeros(1 << len(pts)), np.zeros(1 << len(pts))
    for rows, members in costs._subsets_by_size(len(pts)):
        _, _, upper[rows], dual[rows] = costs._step_bounds(pts[members])
    return upper, np.maximum(0.0, dual - oracle._slack(upper))


def _exact_floor_rows(points):
    """Reference for the keep test of ``_row_selection``: for each
    k = 1..n, a flag per row, whether a partition into at most k blocks
    that holds it reaches the cap's slack under the exact floor of the
    rest. L_j(R), the least ``lower`` sum over the partitions of R into at
    most j blocks, is recursed over the blocks that hold R's lowest point:
    0 on an empty R or one of at most j >= 2 points, the rest's own
    ``lower`` at j = 1, and no partition (inf) at j = 0."""
    upper, lower = _median_bounds(points)
    n, lows = len(points), lower.tolist()
    full = (1 << n) - 1

    @functools.lru_cache(maxsize=None)
    def floor(rest, j):
        if rest == 0 or (j >= 2 and bin(rest).count("1") <= j):
            return 0.0
        if j <= 1:
            return lows[rest] if j else math.inf
        low, others = rest & -rest, rest & (rest - 1)
        best, sub = math.inf, others
        while True:  # every block low | sub, sub a submask of the others
            block = low | sub
            best = min(best, lows[block] + floor(rest ^ block, j - 1))
            if not sub:
                return best
            sub = (sub - 1) & others

    kept = []
    exact, ceiling = upper[1::2], math.inf  # the cap, as _row_selection builds it
    for k in range(1, n + 1):
        if k > 1:
            cost, starts, _ = oracle._candidates(n, k, exact, upper)
            exact = np.minimum.reduceat(cost, starts)
        ceiling = min(ceiling, float(exact[-1]))
        bar = ceiling + float(oracle._slack(ceiling))
        kept.append(np.array([False] + [lows[s] + floor(full ^ s, k - 1) <= bar
                                        for s in range(1, full + 1)]))
    return kept, upper, lower


def _small_point_sets():
    """The tie-prone sets and ``completeness_instances(8, 0)`` reductions
    of at most 8 points, then 20 seeded sets of small integer points."""
    yield from (points for points in _tie_prone_sets() if len(points) <= 8)
    for g in completeness_instances(8, 0):
        if g.num_edges <= 8:
            yield reduce_graph(g, k=1, objective="median").points
    for seed in range(20):
        rng = random.Random(seed)
        dim = rng.randint(1, 3)
        yield [tuple(float(rng.randint(0, 3)) for _ in range(dim)) for _ in range(rng.randint(3, 8))]


def test_row_selection_keeps_every_row_the_exact_floor_keeps(monkeypatch):
    # the size floor is never above the exact floor, so a table first built
    # at ``first`` solves every row the exact rule keeps at some k >= first.
    # Rows are told apart by their blocks' bytes, counted: repeated points
    # give equal blocks
    solved = Counter()
    batch = oracle._weiszfeld_batch

    def recorded(blocks):
        solved.update(block.tobytes() for block in blocks)
        return batch(blocks)

    monkeypatch.setattr(oracle, "_weiszfeld_batch", recorded)
    sets = 0
    for points in _small_point_sets():
        points = tuple(map(tuple, points))
        kept, _, _ = _exact_floor_rows(points)
        pts = np.asarray(points, dtype=float)
        for first in range(1, len(points) + 1):
            solved.clear()
            oracle._median_table(points, first)
            want = np.logical_or.reduce(kept[first - 1:])
            for rows, members in costs._subsets_by_size(len(points)):
                wanted = Counter(block.tobytes() for block in pts[members[want.take(rows)]])
                assert not wanted - solved, (points, first)
        sets += 1
    assert sets == 24


def test_the_size_floors_start_at_the_empty_rest_and_never_rise_with_k():
    # F_0 holds only the empty rest, F_1 is the least lower bound of each
    # size, F_j is 0 on at most j points, a rest may take one more block at
    # each k, so no floor rises with it, and every F_j, j >= 1, is a finite
    # sum of lower bounds
    for n in range(1, oracle.MAX_CONTINUOUS_POINTS + 1):
        for seed in range(3):
            rng = random.Random(100 * n + seed)
            dim = rng.randint(1, 3)
            points = [tuple(float(rng.randint(0, 3)) for _ in range(dim)) for _ in range(n)]
            upper, lower = _median_bounds(points)
            by_size = costs._subsets_by_size(n)
            _, floors = oracle._row_selection(n, upper, lower, by_size)
            assert floors.shape == (n, n + 1)
            assert floors[0].tolist() == [0.0] + [math.inf] * n, points
            if n > 1:  # F_1(m) = L(m), m >= 2
                assert floors[1, 2:].tolist() == [lower.take(rows).min() for rows, _ in by_size[1:]], points
            for j in range(1, n):
                assert (floors[j, :j + 1] == 0.0).all(), (points, j)
            assert (floors[1:] <= floors[:-1]).all(), points
            assert np.isfinite(floors[1:]).all(), points


@pytest.mark.parametrize("n", range(3, oracle.MAX_CONTINUOUS_POINTS + 1))
def test_the_tables_at_n_points_extend_those_at_n_minus_one(n):
    # every array of the candidate layout, and every size's (rows, members)
    # pair of the subset index, at n - 1 points is a prefix of its match at n
    for short, full in zip(oracle._layout(n - 1), oracle._layout(n)):
        assert np.array_equal(short, full[:len(short)])
    by_size = costs._subsets_by_size(n)
    for k, (rows, members) in enumerate(costs._subsets_by_size(n - 1)):
        assert np.array_equal(rows, by_size[k][0][:len(rows)]), k + 1
        assert np.array_equal(members, by_size[k][1][:len(members)]), k + 1


def test_memoised_candidates_equal_a_fresh_build():
    # earlier tests have filled the memo; none of them may have changed it
    for n in range(1, oracle.MAX_CONTINUOUS_POINTS + 1):
        kept = oracle._layout(n)
        assert oracle._layout(n) is kept
        fresh = oracle._layout.__wrapped__(n)
        assert kept._fields == fresh._fields == ("source", "block", "starts", "sizes")
        for a, b in zip(kept, fresh):
            assert a.dtype == b.dtype and np.array_equal(a, b), n
        assert kept.source.dtype == kept.block.dtype == np.int32
        targets = kept.source ^ kept.block
        for j in range(2, n + 1):
            # layer j's slice: its f free points' words, grouped by the odd local targets
            free = n - j + 1
            count, groups = (3 ** free - 1) // 2, 1 << (free - 1)
            assert (targets[:count] < 1 << free).all() and (targets[count:] >= 1 << free).all(), (n, j)
            assert kept.sizes[:groups].sum() == count, (n, j)
            assert np.array_equal(targets[kept.starts[:groups]], np.arange(1, 1 << free, 2)), (n, j)


@pytest.mark.parametrize("n", [1, 4, 6, 12])
def test_memoised_candidates_are_read_only(n):
    for a in oracle._layout(n):
        with pytest.raises(ValueError):
            a[0] = 0


@pytest.mark.parametrize("objective", ["median", "means"])
def test_cached_tables_and_layers_are_read_only(objective):
    inst = reduce_graph(random_triangle_free(6, 3, seed=3), k=3, objective=objective)
    opt_continuous(inst)
    block_cost, center_table, layers = oracle._tables_and_layers(*_key(inst), inst.k)
    assert len(layers) == inst.k
    cached = [block_cost, center_table, *(a for layer in layers for a in layer)]
    for a in cached:
        with pytest.raises(ValueError):
            a[0] = 0


def test_continuous_rejects_non_finite_block_costs(monkeypatch):
    # finite points whose costs overflow float: the exact means cost of the
    # pair is 2e400, and the median's distances square past the float range.
    # Two points at 1e308 overflow no power: their means centroid sums reach
    # inf, which the finiteness check on the cost table catches
    builds = _count_table_builds(monkeypatch)
    far = ((1e200, 0.0), (0.5, 0.0), (-1e200, 0.0))
    twins = ((1e308, 0.5), (1e308, 0.5))
    cases = [
        (far, 2, "median", "a distance to the centroid is not finite"),
        (far, 2, "means", "a block cost overflows float"),
        (twins, 1, "median", "a distance to the centroid is not finite"),
        (twins, 1, "means", "a block cost is not finite"),
    ]
    for points, k, objective, message in cases:
        inst = ClusteringInstance(2, points, k, objective)
        for _ in range(2):  # a build that raises is not cached: the next call builds again
            with pytest.raises(DomainError, match=message):
                opt_continuous(inst)
    assert builds == (["_median_table"] * 2 + ["_centroid_table"] * 2) * 2


def test_discrete_hypergraph_cover_geometry():
    h = HypergraphInstance(
        d=3, num_vertices=5,
        hyperedges=((0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 3, 4)), k=2,
    )
    rep = opt_discrete(reduce_hypergraph(h))
    # vertices {0, 2} hit all four hyperedges, so every point sits at the
    # near distance: cost (d-1) * N = 8
    assert rep.optimal_cost == pytest.approx(8.0, abs=0)
    assert rep.method == "center_subset_enum"
    assert rep.centers[0].index(1.0) == 0
    assert rep.centers[1].index(1.0) == 2  # lowest-index tie rule


def test_discrete_requires_candidates():
    inst = reduce_graph(graph_from_edges(P4), k=1, objective="median")
    with pytest.raises(PreconditionViolated):
        opt_discrete(inst)


def test_discrete_rejects_k_above_candidate_count():
    inst = ClusteringInstance(1, ((0.0,), (1.0,)), 3, "median", ((0.0,), (1.0,)))
    with pytest.raises(PreconditionViolated):
        opt_discrete(inst)


@functools.lru_cache(maxsize=None)
def _discrete_by_subset_loop(inst):
    """Reference: score one center subset at a time, adding floats one at a
    time left to right onto 0.0 (spelled out, since ``sum`` compensates its
    additions from Python 3.12 on)."""
    centers = inst.candidate_centers
    squared = inst.objective == "means"

    def dist(p, c):
        s = 0.0
        for a, b in zip(p, c):
            s += (a - b) ** 2
        return s if squared else math.sqrt(s)

    d = [[dist(p, c) for c in centers] for p in inst.points]
    best_cost = math.inf
    best_subset = None
    for subset in itertools.combinations(range(len(centers)), inst.k):
        cost = 0.0
        for row in d:
            cost += min(row[c] for c in subset)
        if cost < best_cost - 1e-15:
            best_cost = cost
            best_subset = subset
    assignment = {c: [] for c in best_subset}
    for i, row in enumerate(d):
        assignment[min(best_subset, key=lambda c: (row[c], c))].append(i)
    pairs = sorted((tuple(pts), centers[c]) for c, pts in assignment.items() if pts)
    return best_cost, tuple(p for p, _ in pairs), tuple(tuple(map(float, c)) for _, c in pairs)


def _tie_prone_instances(seed, count):
    """Small-integer points and candidate centers, so many subsets tie."""
    rng = random.Random(seed)

    def grid_points(size, dim):
        return tuple(tuple(float(rng.randint(-2, 2)) for _ in range(dim)) for _ in range(size))

    for _ in range(count):
        dim = rng.randint(1, 3)
        centers = grid_points(rng.randint(1, 9), dim)
        points = grid_points(rng.randint(1, 10), dim)
        k = rng.randint(1, len(centers))
        yield ClusteringInstance(dim, points, k, rng.choice(["median", "means"]), centers)


def _assert_matches_subset_loop(inst):
    rep = opt_discrete(inst)
    cost, partition, centers = _discrete_by_subset_loop(inst)
    assert (rep.optimal_cost.hex(), rep.partition, rep.centers) == (
        cost.hex(), partition, centers
    ), inst


def _extreme_k_instances(seed):
    """k = 1, 2, n - 1 and n over n candidate centers, on both objectives."""
    rng = random.Random(seed)
    for n in range(1, 10):
        dim = rng.randint(1, 3)
        centers = tuple(tuple(rng.uniform(-2, 2) for _ in range(dim)) for _ in range(n))
        points = tuple(tuple(rng.uniform(-2, 2) for _ in range(dim)) for _ in range(rng.randint(1, 9)))
        for k in sorted({1, 2, n - 1, n} & set(range(1, n + 1))):
            for objective in ("median", "means"):
                yield ClusteringInstance(dim, points, k, objective, centers)


def _large_cost_instances(seed, count):
    """Every point at least 3,000 from every center, so every cost is above
    1e3 and 1e-15 is below one ulp of it."""
    for inst in _tie_prone_instances(seed, count):
        scale = 1e4 if inst.objective == "median" else 200.0

        def grow(vectors, shift):  # integer grid offsets, so points sit 0.3 * scale off the grid
            return tuple((x[0] * scale + shift, *(v * scale for v in x[1:])) for x in vectors)

        yield dataclasses.replace(
            inst,
            points=grow(inst.points, 0.3 * scale),
            candidate_centers=grow(inst.candidate_centers, 0.0),
        )


def _near_tie_instances(seed, count):
    """Each center next to a copy nudged by 1 to 200 ulps per coordinate, so
    subsets that swap a center for its copy cost a few ulps more or less:
    inside the 1e-15 rule, inside the 1e-14 band that starts a replay, and
    just above it."""
    rng = random.Random(seed)
    for _ in range(count):
        dim = rng.randint(1, 2)
        scale = rng.choice([1.0, 1.0, 1e3])
        base = [tuple(rng.uniform(-3, 3) * scale for _ in range(dim)) for _ in range(rng.randint(2, 4))]
        centers = []
        for b in base:
            centers.append(b)
            centers.append(tuple(v + rng.randint(-200, 200) * math.ulp(v) for v in b))
        points = tuple(
            tuple(v + rng.uniform(-1, 1) * scale for v in rng.choice(base))
            for _ in range(rng.randint(2, 8))
        )
        k = rng.randint(1, len(centers))
        yield ClusteringInstance(dim, points, k, rng.choice(["median", "means"]), tuple(centers))


def _pow_rounding_instances(seed):
    """One point and one center at 0, so the cost is the point's square. The
    points come from a seeded stream where libm's pow(x, 2.0), which ``**``
    calls, rounds differently from x * x (if it ever does)."""
    rng = random.Random(seed)
    xs = [x for x in (rng.uniform(-1e3, 1e3) for _ in range(50_000)) if x ** 2 != x * x]
    for x in xs[:8] or [rng.uniform(-1e3, 1e3)]:
        for objective in ("median", "means"):
            yield ClusteringInstance(1, ((x,),), 1, objective, ((0.0,),))


def _benchmark_like_instances(seed):
    """The catalogue benchmark's kind of hypergraph on 16 vertices, for d =
    2, 3, 4: 12 hyperedges that each meet a planted 6-set (k = 6), and
    pairwise disjoint hyperedges with k one below their count."""
    rng = random.Random(seed)
    for d in (2, 3, 4):
        planted = rng.sample(range(16), 6)
        edges = set()
        while len(edges) < 12:
            s = rng.choice(planted)
            edges.add(tuple(sorted([s, *rng.sample([u for u in range(16) if u != s], d - 1)])))
        yield reduce_hypergraph(HypergraphInstance(d, 16, tuple(sorted(edges)), 6))
        order = rng.sample(range(16), 16)
        count = min(7, 16 // d)
        disjoint = tuple(sorted(tuple(sorted(order[i * d:(i + 1) * d])) for i in range(count)))
        yield reduce_hypergraph(HypergraphInstance(d, 16, disjoint, count - 1))


def _tie_at_the_bound_instances(seed, count):
    """Centers repeated from a few sites and points that all coincide, so
    every subset that holds a copy of the nearest site costs the same, bit
    for bit, and so does the bound of every prefix that can still reach one.
    At the larger scale a cost that is not 0 is at least 1000, where 1e-15
    is below half an ulp, so such a bound equals the best less 1e-15 too."""
    rng = random.Random(seed)
    for _ in range(count):
        dim = rng.randint(1, 2)
        scale = rng.choice([1.0, 1e3])
        sites = [tuple(rng.randint(-3, 3) * scale for _ in range(dim)) for _ in range(rng.randint(1, 4))]
        centers = tuple(rng.choice(sites) for _ in range(rng.randint(2, 12)))
        point = rng.choice([rng.choice(sites), tuple(rng.randint(-3, 3) * scale for _ in range(dim))])
        k = rng.randint(1, len(centers))
        yield ClusteringInstance(
            dim, (point,) * rng.randint(1, 6), k, rng.choice(["median", "means"]), centers
        )


@pytest.mark.parametrize("chunk", [3, 16, oracle.DISCRETE_CHUNK])
def test_discrete_matches_subset_loop_bit_for_bit(monkeypatch, chunk):
    # a 3-subset chunk makes the first-wins rule span many batches, and
    # divides few prefixes' child counts, so slices split sibling runs; at
    # 16 the first descent's width, 16 // (n - k + 1) prefixes, lies between
    # one prefix and a whole level
    monkeypatch.setattr(oracle, "DISCRETE_CHUNK", chunk)
    hyper = [
        HypergraphInstance(3, 7, ((0, 1, 2), (2, 3, 4), (4, 5, 6), (0, 3, 6), (1, 4, 6)), k)
        for k in (1, 2, 3)
    ]
    cases = [
        *_tie_prone_instances(11, 40),
        *(reduce_hypergraph(h) for h in hyper),
        *_extreme_k_instances(5),
        *_large_cost_instances(12, 30),
        *_near_tie_instances(13, 60),
        *_pow_rounding_instances(3),
        *(inst for seed in (1, 2) for inst in _benchmark_like_instances(seed)),
        *_tie_at_the_bound_instances(14, 60),
    ]
    for inst in cases:
        _assert_matches_subset_loop(inst)


def test_discrete_replay_reaches_past_the_band():
    # k = 1 and one point at the origin, so each subset costs its center's
    # coordinate. The least cost is 0.5, and 1e-14 above it (90 ulps) lie
    # costs 88, 79, ..., 7 and 0 ulps up: 9 ulps apart, where the 1e-15 rule
    # needs 10. The cost 95 ulps up comes first and blocks the one 88 up, so
    # the scan ends 7 ulps up; replayed over the 90-ulp band alone, the
    # chain would take 88 and end on 0.5.
    ulp = math.ulp(0.5)
    centers = tuple((0.5 + m * ulp,) for m in (95, 88, 79, 70, 61, 52, 43, 34, 25, 16, 7, 0))
    inst = ClusteringInstance(1, ((0.0,),), 1, "median", centers)
    assert _discrete_by_subset_loop(inst)[2] == (centers[10],)
    _assert_matches_subset_loop(inst)


def _scored_rows(monkeypatch):
    """Patch the walk's cost helper to count the rows it adds up: subset
    costs and prefix bounds."""
    rows = []
    real = oracle._point_sums

    def counted(near):
        rows.append(len(near))
        return real(near)

    monkeypatch.setattr(oracle, "_point_sums", counted)
    return rows


def test_discrete_walk_skips_subtrees_that_cannot_win(monkeypatch):
    # every point costs at least d - 1 = 2, so every bound is at least the
    # optimum 24: once the scan reaches a subset at 24, nothing is left to walk
    rows = _scored_rows(monkeypatch)
    inst, optimum = _planted_hypergraph_instance()
    assert opt_discrete(inst).optimal_cost == optimum
    assert 0 < sum(rows) < 10_000  # of C(24, 6) = 134,596 subsets


def test_discrete_walk_stops_once_the_best_reaches_the_bound(monkeypatch):
    # k = 1 in slices of 4: the root's bound is the cost with every center,
    # 1000, and the second slice finds it. The slices after that are skipped,
    # as they must be against the current best; 1000 - 1e-15 rounds to 1000,
    # so a bound equal to the best is skipped as well.
    monkeypatch.setattr(oracle, "DISCRETE_CHUNK", 4)
    rows = _scored_rows(monkeypatch)
    centers = tuple((1000.0 + abs(i - 5),) for i in range(40))
    inst = ClusteringInstance(1, ((0.0,),), 1, "median", centers)
    assert opt_discrete(inst).centers == ((1000.0,),)
    assert rows == [4, 1, 4]  # the first slice, the root's bound, the second slice


def test_discrete_walk_ends_where_the_best_reaches_the_roots_bound(monkeypatch):
    # every point costs at least d - 1 = 2, so the root's bound, the cost
    # with every center, is the optimum 24. Once a subset at 24 is scored,
    # only the root's bound may still be added up: no subset and no other
    # prefix bound. The first descent holds about one slice of children per
    # level, so the walk adds up far fewer rows than the 4,286 it took
    # building whole levels first and slicing on past the bound
    calls = []  # (rows, least sum, whether a prefix bound)
    bounding = []
    real_sums, real_bounds = oracle._point_sums, oracle._TreeLevel.bounds

    def sums(near):
        out = real_sums(near)
        calls.append((len(near), float(out.min()), bool(bounding)))
        return out

    def bounds(level, suffix):
        bounding.append(level)
        try:
            return real_bounds(level, suffix)
        finally:
            bounding.pop()

    monkeypatch.setattr(oracle, "_point_sums", sums)
    monkeypatch.setattr(oracle._TreeLevel, "bounds", bounds)
    inst, optimum = _planted_hypergraph_instance()
    tracemalloc.start()
    try:
        rep = opt_discrete(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.optimal_cost == optimum
    assert sum(rows for rows, _, _ in calls) < 1_000  # of C(24, 6) = 134,596 subsets
    hit = next(i for i, (_, low, bound) in enumerate(calls) if not bound and low == optimum)
    assert calls[hit + 1:] in ([], [(1, optimum, True)]), calls
    assert peak < 1_500_000, peak


def test_discrete_refuses_an_instance_without_points():
    inst = ClusteringInstance(1, (), 1, "median", ((0.0,), (1.0,)))
    with pytest.raises(PreconditionViolated, match="no points"):
        opt_discrete(inst)


def test_discrete_checks_its_ceiling_before_building_anything(monkeypatch):
    def refuse(*_):
        raise AssertionError("distance table built past the ceiling")

    monkeypatch.setattr(oracle, "_distance_table", refuse)
    centers = tuple((float(i),) for i in range(30))
    inst = ClusteringInstance(1, ((0.0,),), 10, "median", centers)  # C(30, 10) = 30,045,015
    with pytest.raises(InstanceTooLarge):
        opt_discrete(inst)


def test_discrete_overflowing_distance_is_a_domain_error():
    inst = ClusteringInstance(1, ((1e200,),), 1, "means", ((-1e200,), (1e200,)))
    with pytest.raises(DomainError):
        opt_discrete(inst)


def test_discrete_refuses_an_instance_whose_every_subset_cost_is_inf():
    # each squared coordinate difference fits a float, but their sum does
    # not, so each center lies at an inf distance from some point
    far = (1e154, 1e154)
    inst = ClusteringInstance(2, (far, (0.0, 0.0)), 1, "median", ((0.0, 0.0), far))
    with pytest.raises(PreconditionViolated, match="^no center subset has a finite cost$"):
        opt_discrete(inst)


def _planted_hypergraph_instance():
    """12 hyperedges through 6 planted vertices of 24: the planted vertices
    cover them all, so the optimum is (d - 1) * 12 = 24, over C(24, 6) =
    134,596 subsets of depth 6."""
    rng = random.Random(5)
    planted = rng.sample(range(24), 6)
    edges = set()
    while len(edges) < 12:
        s = rng.choice(planted)
        edges.add(tuple(sorted([s, *rng.sample([u for u in range(24) if u != s], 2)])))
    return reduce_hypergraph(HypergraphInstance(3, 24, tuple(sorted(edges)), 6)), 24.0


def _planted_line_instance():
    """450 centers on a line and 12 points on two of them, so the optimum is
    0 over C(450, 2) = 101,025 subsets, each prefix with up to 449 children."""
    points = ((137.0,),) * 6 + ((311.0,),) * 6
    return ClusteringInstance(1, points, 2, "median", tuple((float(i),) for i in range(450))), 0.0


@pytest.mark.parametrize("make", [_planted_hypergraph_instance, _planted_line_instance])
def test_discrete_memory_does_not_grow_with_the_subset_count(make):
    # one float per point and subset would take 12.9 MB and 9.7 MB; the walk
    # keeps one slice of distances and child indices per level
    inst, optimum = make()
    tracemalloc.start()
    try:
        rep = opt_discrete(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.optimal_cost == optimum
    assert peak < 1_500_000, peak


def test_discrete_distance_table_memory_does_not_grow_with_the_dimension():
    # 64 centers in 2,000 dimensions: squaring every coordinate difference
    # at once would take 12.3 MB; the table is built a block of coordinates
    # at a time (the centers themselves take 1 MB)
    centers = tuple(tuple(float(i == c) for i in range(2000)) for c in range(64))
    inst = ClusteringInstance(2000, (centers[5],) * 12, 1, "means", centers)
    tracemalloc.start()
    try:
        rep = opt_discrete(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep.optimal_cost, rep.centers) == (0.0, (centers[5],))
    assert peak < 2_000_000, peak


# ---------------------------------------------------------------------------
# Block-cost tables against the one-subset-at-a-time solvers
# ---------------------------------------------------------------------------

# (vertices, max degree, seed) of seeded graphs whose reductions have 9, 10
# and 11 points
TABLE_GRAPHS = [(6, 3, 3), (7, 3, 0), (8, 3, 1)]


def _reduced_points(n, d, seed):
    g = random_triangle_free(n, d, seed=seed)
    return reduce_graph(g, k=1, objective="median").points


def _subsets(points):
    n = len(points)
    for mask in range(1, 1 << n):
        yield mask, [points[i] for i in range(n) if mask >> i & 1]


def _assert_median_table_matches(points):
    costs, centers = weiszfeld_subsets(points)
    for mask, block in _subsets(points):
        sol = weiszfeld(block)
        assert sol.converged
        assert abs(costs[mask] - sol.cost) <= 1e-12, mask
        assert np.allclose(centers[mask], sol.center, rtol=0, atol=1e-9), mask
    return costs


@pytest.mark.parametrize("n,d,seed", TABLE_GRAPHS)
def test_median_table_matches_weiszfeld_on_every_subset(n, d, seed):
    points = _reduced_points(n, d, seed)
    assert 9 <= len(points) <= 11
    _assert_median_table_matches(points)


def test_median_table_on_point_branch():
    # the centroid of the cross is its middle point, which is optimal; on
    # the line the centroid is the data point 0, which is not, so the
    # solver has to step off it toward the median at x = 1
    cross = [(0.0, 0.0), (1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]
    assert _assert_median_table_matches(cross)[31] == 4.0
    line = [(-6.0, 0.0), (0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)]
    assert _assert_median_table_matches(line)[31] == pytest.approx(11.0, abs=1e-6)


def test_median_table_ceiling_comes_before_any_table():
    points = [(float(i), 0.0) for i in range(oracle.MAX_CONTINUOUS_POINTS + 1)]
    with pytest.raises(InstanceTooLarge):
        weiszfeld_subsets(points)


def test_median_table_raises_when_a_subset_does_not_converge(monkeypatch):
    points = _reduced_points(6, 3, 3)
    monkeypatch.setattr(costs, "WEISZFELD_MAX_ITER", 1)
    with pytest.raises(NotConverged):
        weiszfeld_subsets(points)


def test_continuous_tables_and_optima_of_the_completeness_graphs_are_pinned():
    # the first 8 gate-4 graphs (6-10 vertices, 7-11 edges): float.hex of
    # the median cost and center tables, and the cost and partition of every
    # optimum, both objectives, k = 1 up to the cover size; the digest was
    # generated by the untrimmed Weiszfeld loop and unmemoised DP candidates,
    # recorded on numpy 2.4.6 and Python 3.11.7
    records = []
    for g in completeness_instances(8, 0):
        points = reduce_graph(g, k=1, objective="median").points
        table_costs, table_centers = weiszfeld_subsets(points)
        records.append(" ".join(float(v).hex() for v in table_costs.tolist()))
        records.append(" ".join(float(v).hex() for v in table_centers.ravel().tolist()))
        for objective in ("median", "means"):
            for k in range(1, len(min_vertex_cover(g)) + 1):
                rep = opt_continuous(reduce_graph(g, k=k, objective=objective))
                records.append(f"{objective} {k} {float(rep.optimal_cost).hex()} {rep.partition}")
    assert len(records) == 78
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == "db57074e80a59773ae893e55fa5af40b2a6791e630495a12f07f75efc2871cb0"


@pytest.mark.parametrize("points", [
    *(_reduced_points(*g) for g in TABLE_GRAPHS),
    [(0.5, 1.0), (2.0, -1.25), (3.0, 3.0), (-1.0, 0.0)],  # not integers
    [(2**40, 1), (0, 2**40 + 1), (3, -(2**40))],  # too large for exact floats
    [(-3, 7, 0), (4, -2, 5), (0, 0, 1), (9, 9, -9)],  # small signed integers
])
def test_means_table_equals_exact_centroid_on_every_subset(points):
    costs, centers = _centroid_table(points)
    for mask, block in _subsets(points):
        cost, center = _centroid_cost_exact(block)
        assert costs[mask] == cost, mask
        assert tuple(centers[mask].tolist()) == center, mask


def test_centroid_of_non_integer_points_adds_as_sum_did_up_to_3_11():
    # the values Python 3.11's ``sum`` gives; 3.12's compensated ``sum``
    # gives center 0.19999999999999998 and cost 0.8993750000000001. Recorded
    # on numpy 2.4.6 and Python 3.11.7
    cost, center = _centroid_cost_exact(((0.1,), (0.2,), (0.3,)))
    assert (cost.hex(), [c.hex() for c in center]) == (
        "0x1.47ae147ae147ap-6", ["0x1.999999999999bp-3"]
    )
    cost, center = _centroid_cost_exact(((0.1, 0.7), (0.2, 0.1), (0.3, 0.4), (1.1, 0.05)))
    assert (cost.hex(), [c.hex() for c in center]) == (
        "0x1.cc7ae147ae148p-1", ["0x1.b333333333334p-2", "0x1.4000000000000p-2"]
    )


# ---------------------------------------------------------------------------
# Minimum vertex cover
# ---------------------------------------------------------------------------

def brute_min_cover(g):
    n = g.num_vertices
    for r in range(n + 1):
        for combo in itertools.combinations(range(n), r):
            if is_vertex_cover(g, combo):
                return set(combo)
    raise AssertionError


def test_min_vertex_cover_frozen():
    assert sorted(min_vertex_cover(graph_from_edges(C5))) == [0, 1, 3]
    assert sorted(min_vertex_cover(graph_from_edges(P4))) == [0, 2]


def test_min_vertex_cover_is_minimum_on_catalogue():
    # brute force tries covers by size, then in lexicographic order
    for g in enumerate_triangle_free(5):
        assert min_vertex_cover(g) == brute_min_cover(g)


def test_min_vertex_cover_is_the_smallest_whatever_the_edge_order():
    # a 4-cycle listed out of order: {1, 3} is minimum too, but {0, 2} is smaller
    assert min_vertex_cover(graph_from_edges([(1, 2), (0, 1), (2, 3), (0, 3)])) == {0, 2}


def test_min_vertex_cover_is_fast_at_its_edge_ceiling():
    # a perfect matching has 2^24 minimum covers; the matching bound cuts
    # every branch once the first is found
    g = Graph(48, tuple((2 * i, 2 * i + 1) for i in range(24)))
    start = time.perf_counter()
    assert min_vertex_cover(g) == set(range(0, 48, 2))
    assert time.perf_counter() - start < 1.0


def test_min_vertex_cover_edge_cap():
    g = graph_from_edges([(i, i + 1) for i in range(30)])
    with pytest.raises(InstanceTooLarge):
        min_vertex_cover(g)


# ---------------------------------------------------------------------------
# Catalogue and canonical forms
# ---------------------------------------------------------------------------

def test_catalogue_census():
    cat = list(enumerate_triangle_free(6))
    by_edges = Counter(g.num_edges for g in cat)
    assert dict(by_edges) == {1: 1, 2: 1, 3: 2, 4: 4, 5: 8, 6: 18}
    assert all(is_triangle_free(g) for g in cat)


def test_catalogue_has_no_isomorphic_duplicates():
    forms = [canonical_form(g) for g in enumerate_triangle_free(5)]
    assert len(forms) == len(set(forms))


def test_catalogue_with_disconnected_graphs():
    cat = list(enumerate_triangle_free(3, include_disconnected=True))
    # connected: P2, P3, P4, 3-star; disconnected: 2xP2, 3xP2, P2+P3
    assert len(cat) == 7


def test_eight_edge_catalogue_keeps_the_search_small(monkeypatch):
    # a ceiling 500 times below the real one still admits every graph
    monkeypatch.setattr(oracle, "MAX_CANON_STATES", oracle.MAX_CANON_STATES // 500)
    assert sum(1 for _ in enumerate_triangle_free(8)) == 186


def _extensions_at(g, reps):
    """Reference: every triangle-free one-edge extension whose new edge has
    both ends (inner edge) or its attaching end (leaf) in ``reps``."""
    adj = [set(nb) for nb in g.adjacency()]
    n = g.num_vertices
    for i, u in enumerate(reps):
        for v in reps[i + 1:]:
            if v in adj[u] or (adj[u] & adj[v]):
                continue
            yield Graph(n, tuple(sorted(g.edges + ((u, v),))))
    for u in reps:
        yield Graph(n + 1, tuple(sorted(g.edges + ((u, n),))))


def _single_edge_extensions_unpruned(g):
    """Reference: every triangle-free one-edge extension, twins included."""
    return _extensions_at(g, list(range(g.num_vertices)))


def _single_edge_extensions_twin_pruned(g):
    """The extensions from the lowest vertex of each twin class, every inner
    edge tried: inputs of the pinned refinement and search."""
    adj = [set(nb) for nb in g.adjacency()]
    return _extensions_at(g, [v for v in range(g.num_vertices) if adj[v] not in adj[:v]])


def _graph_of(nbrs):
    """The graph whose neighbour masks are ``nbrs``, its edges sorted."""
    n = len(nbrs)
    return Graph(n, tuple((u, v) for u in range(n) for v in range(u + 1, n) if nbrs[u] >> v & 1))


def _mask_extensions_unpruned(nbrs, orbits):
    """Reference in the enumerator's seam: every triangle-free one-edge
    extension, twins and orbits included, as (new edge, its masks)."""
    g = _graph_of(nbrs)
    for h in _single_edge_extensions_unpruned(g):
        (edge,) = set(h.edges) - set(g.edges)
        yield edge, neighbour_masks(h)


_CONNECTED_FORM = oracle._connected_form


def _catalogue_and_searches(monkeypatch):
    calls = []

    def counting(nbrs, cells=None):
        calls.append(nbrs)
        return _CONNECTED_FORM(nbrs, cells)

    monkeypatch.setattr(oracle, "_connected_form", counting)
    graphs = [
        (g.num_vertices, g.edges)
        for args in ((8,), (5, True))
        for g in enumerate_triangle_free(*args)
    ]
    return graphs, len(calls)


def test_twin_pruned_extensions_keep_the_catalogue_and_its_order(monkeypatch):
    # the twin, orbit and leaf rules of the enumerator and no pruning give
    # one labelled catalogue
    graphs, calls = _catalogue_and_searches(monkeypatch)
    monkeypatch.setattr(oracle, "_single_edge_extensions", _mask_extensions_unpruned)
    assert _catalogue_and_searches(monkeypatch) == (graphs, 1022)
    assert calls == 419


def test_single_edge_extensions_are_triangle_free(monkeypatch):
    # each extension is its parent plus one edge, and triangle-free; a
    # parent's orbits are given exactly when it is a tree, as the cells of
    # its refinement
    extend = oracle._single_edge_extensions
    seen = []

    def recorded(nbrs, orbits):
        tree = sum(mask.bit_count() for mask in nbrs) == 2 * (len(nbrs) - 1)
        assert orbits == (oracle._refine_classes(nbrs) if tree else None)
        for edge, child in extend(nbrs, orbits):
            seen.append((_graph_of(nbrs), edge, child))
            yield edge, child

    monkeypatch.setattr(oracle, "_single_edge_extensions", recorded)
    for args in ((8,), (5, True)):
        for _ in enumerate_triangle_free(*args):
            pass
    assert len(seen) == 419
    for parent, edge, child in seen:
        h = _graph_of(child)
        assert h.edges == tuple(sorted(parent.edges + (edge,)))
        assert h.num_vertices == max(parent.num_vertices, edge[1] + 1)
        assert is_triangle_free(h)


def _rooted_codes(nbrs):
    """Each vertex's code of the tree rooted at it: two vertices of a tree
    get one code iff an automorphism maps one to the other."""

    def code(v, parent):
        kids = [u for u in range(len(nbrs)) if nbrs[v] >> u & 1 and u != parent]
        return "(" + "".join(sorted(code(u, v) for u in kids)) + ")"

    return [code(v, -1) for v in range(len(nbrs))]


def test_refinement_cells_are_the_orbits_of_every_catalogue_tree():
    # the enumerator's orbit rule: a tree's refinement cells are its orbits
    trees = [g for g in enumerate_triangle_free(8) if g.num_vertices == g.num_edges + 1]
    assert len(trees) == 94
    for g in trees:
        nbrs = neighbour_masks(g)
        orbits: dict[str, list[int]] = {}
        for v, code in enumerate(_rooted_codes(nbrs)):
            orbits.setdefault(code, []).append(v)
        assert sorted(oracle._refine_classes(nbrs)) == sorted(orbits.values()), g.edges


def _matching(k):
    return graph_from_edges([(2 * i, 2 * i + 1) for i in range(k)])


def _spider(legs):
    """A center with ``legs`` two-edge legs."""
    return graph_from_edges(
        [e for i in range(legs) for e in ((0, 2 * i + 1), (2 * i + 1, 2 * i + 2))]
    )


def test_canonical_form_ceiling():
    # the nine middle vertices tie but are not twins: the frontier passes
    # 50,000 tied states, alone or as one component of a union
    spider = _spider(9)
    with pytest.raises(InstanceTooLarge):
        canonical_form(spider)
    n = spider.num_vertices
    with pytest.raises(InstanceTooLarge):
        canonical_form(Graph(n + 2, spider.edges + ((n, n + 1),)))
    # a union of disjoint edges is searched one edge at a time
    assert canonical_form(_matching(7)) == "+".join(["2:1"] * 7)
    assert sum(1 for _ in enumerate_triangle_free(8, include_disconnected=True)) == 452


def test_disconnected_catalogue_searches_no_union(monkeypatch):
    calls = []

    def counting(nbrs, cells=None):
        calls.append(nbrs)
        return _CONNECTED_FORM(nbrs, cells)

    monkeypatch.setattr(oracle, "_connected_form", counting)
    list(enumerate_triangle_free(8))
    connected = len(calls)
    list(enumerate_triangle_free(8, include_disconnected=True))
    assert len(calls) == 2 * connected == 2 * 398


def test_canonical_form_of_empty_and_isolated_vertices():
    assert canonical_form(Graph(0, ())) == "0:"
    assert canonical_form(Graph(1, ())) == "1:"
    assert canonical_form(Graph(2, ())) == "1:+1:"
    # each isolated vertex is a component of its own
    for g in (Graph(5, ((1, 3),)), Graph(5, ((0, 4),))):
        assert canonical_form(g) == "1:+1:+1:+2:1"
    g = Graph(7, ((0, 2), (2, 5)))
    assert canonical_form(g).split("+").count("1:") == 4
    assert canonical_form(g) == "+".join(["1:"] * 4 + [canonical_form(graph_from_edges(P4[:2]))])


C8 = [(i, (i + 1) % 8) for i in range(8)]
Q3 = [(u, u | 1 << b) for u in range(8) for b in range(3) if not u >> b & 1]

# connected triangle-free graphs without isolated vertices, by edge count 1..9
CONNECTED_CENSUS = (1, 1, 2, 4, 8, 18, 42, 110, 303)


def _euler_transform(a):
    """b[m]: multisets of connected pieces (a[d] kinds with d edges) whose
    edge counts sum to m, by the recurrence m·b[m] = sum c[k]·b[m-k] with
    c[k] = sum over d dividing k of d·a[d]."""
    c = [0] + [sum(d * a[d - 1] for d in range(1, k + 1) if k % d == 0) for k in range(1, len(a) + 1)]
    b = [1]
    for m in range(1, len(a) + 1):
        b.append(sum(c[k] * b[m - k] for k in range(1, m + 1)) // m)
    return b[1:]


def _components_of(g):
    """Each component (isolated vertices included) relabelled in increasing
    vertex order, by least vertex, found through ``graphs.component_masks``."""
    parts = []
    for comp in component_masks(neighbour_masks(g)):
        verts = [v for v in range(g.num_vertices) if comp >> v & 1]
        label = {v: i for i, v in enumerate(verts)}
        edges = (e for e in g.edges if comp >> e[0] & 1)
        parts.append(Graph(len(verts), tuple((label[u], label[v]) for u, v in edges)))
    return parts


def _laid_out(parts):
    edges, offset = [], 0
    for part in parts:
        edges += [(u + offset, v + offset) for u, v in part.edges]
        offset += part.num_vertices
    return Graph(offset, tuple(edges))


def test_disconnected_catalogue_census_and_certificates():
    cat = list(enumerate_triangle_free(8, include_disconnected=True))
    by_edges = Counter(g.num_edges for g in cat)
    assert list(itertools.accumulate(by_edges[m] for m in range(1, 9))) == [1, 3, 7, 16, 35, 80, 185, 452]
    assert [by_edges[m] for m in range(1, 9)] == _euler_transform(CONNECTED_CENSUS[:8])
    connected = Counter(g.num_edges for g in cat if len(_components_of(g)) == 1)
    assert tuple(connected[m] for m in range(1, 9)) == CONNECTED_CENSUS[:8]
    assert all(is_triangle_free(g) and not set(range(g.num_vertices)) - set(g.used_vertices()) for g in cat)
    certs = [canonical_form(g) for g in cat]
    assert len(set(certs)) == len(cat)
    # the connected catalogue comes first; the union builder's composed
    # certificates order the unions that follow it
    keys = [(g.num_edges, g.num_vertices, c) for g, c in zip(cat, certs) if "+" in c]
    assert len(keys) == len(cat) - sum(CONNECTED_CENSUS[:8])
    assert cat[: sum(CONNECTED_CENSUS[:8])] == list(enumerate_triangle_free(8))
    assert keys == sorted(keys)
    rng = random.Random(5)
    for g, cert in zip(cat, certs):
        perm = list(range(g.num_vertices))
        rng.shuffle(perm)
        relabelled = make_graph(g.num_vertices, [(perm[u], perm[v]) for u, v in g.edges])
        assert canonical_form(relabelled) == cert, g.edges
        assert canonical_form(_laid_out(_components_of(g)[::-1])) == cert, g.edges


def test_enumeration_refuses_more_edges_than_its_ceiling():
    with pytest.raises(InstanceTooLarge, match=f"^enumeration capped at {oracle.MAX_ENUM_EDGES} edges$"):
        next(enumerate_triangle_free(oracle.MAX_ENUM_EDGES + 1))


def test_enumeration_checks_its_ceiling_at_the_call():
    # before any generator is returned, not at the first graph
    with pytest.raises(InstanceTooLarge, match=f"^enumeration capped at {oracle.MAX_ENUM_EDGES} edges$"):
        enumerate_triangle_free(oracle.MAX_ENUM_EDGES + 1)


def test_random_triangle_free_refuses_degree_zero():
    with pytest.raises(PreconditionViolated, match="^target degree must be at least 1$"):
        random_triangle_free(5, 0, seed=1)


def test_nine_edge_catalogue_census(monkeypatch):
    monkeypatch.setattr(oracle, "MAX_ENUM_EDGES", 9)
    cat = list(enumerate_triangle_free(9))
    by_edges = Counter(g.num_edges for g in cat)
    assert tuple(by_edges[m] for m in range(1, 10)) == CONNECTED_CENSUS
    assert cat[: sum(CONNECTED_CENSUS[:8])] == list(enumerate_triangle_free(8))
    assert len({canonical_form(g) for g in cat}) == len(cat)


def test_certificates_of_the_eight_edge_catalogue_are_pinned():
    certs = [canonical_form(g) for g in enumerate_triangle_free(8, include_disconnected=True)]
    assert len(certs) == 452
    digest = hashlib.sha256("\n".join(certs).encode()).hexdigest()
    assert digest == "62f310c1a3d604ebf428c4dd58837886f9a563461261583eabd18342017e4a83"


def _labelled_digest(cat):
    return hashlib.sha256("\n".join(repr((g.num_vertices, g.edges)) for g in cat).encode()).hexdigest()


def test_labelled_catalogues_are_pinned(monkeypatch):
    # the representatives themselves, not only their classes: digests of
    # each graph's vertex count and edge list, in catalogue order
    cat = list(enumerate_triangle_free(8, include_disconnected=True))
    assert len(cat) == 452
    assert _labelled_digest(cat) == "ad2369535a7b662ab0f1155eeb253fd8d0cc761781b2141856332fe01df3590a"
    monkeypatch.setattr(oracle, "MAX_ENUM_EDGES", 9)
    cat = list(enumerate_triangle_free(9))
    assert len(cat) == 489
    assert _labelled_digest(cat) == "00aa201c1da2956643017ee196965fa18ad57217e3507829a8b7a81ccd0a55a7"


# a ten-leaf star with a two-edge tail, whose cells would come in another
# order if its keys were compared as strings, as "1" < "10" < "2"
HUB = [(0, i) for i in range(1, 11)] + [(10, 11), (11, 12)]


def test_cells_come_in_tuple_order():
    g = graph_from_edges(HUB)
    cells = [[12], list(range(1, 10)), [11], [10], [0]]
    assert oracle._refine_classes(neighbour_masks(g)) == cells


def _hub_graph(seed):
    """A seeded bipartite graph on 12-16 vertices: vertex 0 joined to all of
    10-12 leaves, and 1-3 more vertices each joined to about half of them."""
    rng = random.Random(seed)
    leaves, others = rng.randint(10, 12), rng.randint(2, 4)
    edges = [(0, others + i) for i in range(leaves)]
    edges += [(a, others + i) for a in range(1, others) for i in range(leaves) if rng.random() < 0.5]
    return graph_from_edges(edges)


# graphs with a vertex of degree 10-12, whose cells string-compared keys
# would order differently; the sampler's graphs on 12-16 vertices at target
# degree 10-12 stay below degree 10, so they add size, not degree
DEGREE_TEN_UP = [
    graph_from_edges([(0, i) for i in range(1, leaves + 1)]
                     + [(leaves + j, leaves + j + 1) for j in range(tail)])
    for leaves in range(10, 13) for tail in range(1, 4)
] + [_hub_graph(seed) for seed in range(20)]
DENSE = [random_triangle_free(n, d, seed) for n in range(12, 17) for d in range(10, 13) for seed in range(2)]


def test_certificates_at_degree_ten_and_up_are_relabel_invariant():
    assert all(max(g.degrees()) >= 10 for g in DEGREE_TEN_UP)
    rng = random.Random(21)
    for g in DEGREE_TEN_UP + DENSE:
        cert = canonical_form(g)
        for _ in range(20):
            perm = list(range(g.num_vertices))
            rng.shuffle(perm)
            relabelled = make_graph(g.num_vertices, [(perm[u], perm[v]) for u, v in g.edges])
            assert canonical_form(relabelled) == cert, g.edges


def test_refinement_and_search_match_the_frozen_nested_key_search():
    # every twin-pruned extension of the 8-edge enumeration, inner edges
    # that leave a leaf untouched included. The digest of each graph's cells
    # and certificate was recorded from the nested-key refinement and row
    # search that these replaced, on numpy 2.4.6 and Python 3.11.7
    parents = [Graph(1, ())] + list(enumerate_triangle_free(7))
    extensions = [h for g in parents for h in _single_edge_extensions_twin_pruned(g)]
    assert len(extensions) == 741
    graphs = extensions + list(enumerate_triangle_free(6, include_disconnected=True))
    graphs += [graph_from_edges(C8), graph_from_edges(Q3)]
    graphs += [_spider(legs) for legs in range(2, 9)] + [graph_from_edges(HUB)]
    graphs += [random_triangle_free(seed % 10 + 1, seed // 10 % 9 + 1, seed) for seed in range(300)]
    graphs += DEGREE_TEN_UP + DENSE
    records = [f"{oracle._refine_classes(neighbour_masks(g))} {canonical_form(g)}" for g in graphs]
    assert len(records) == 1190
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == "9ce7420b3e6952f008ee6fde868c869acb3a5b359730c9c42a928ec6af3efaef"


def _canonical_form_by_permutation(g):
    """Reference: the least bitstring over every order of every cell of the
    refinement (one order for a cell of twins), tried one full order at a
    time."""
    cells = oracle._refine_classes(neighbour_masks(g))
    adj = [set(nb) for nb in g.adjacency()]
    edge_set = set(g.edges)

    def cell_orders(cell):
        if len(cell) == 1 or all(adj[v] == adj[cell[0]] for v in cell[1:]):
            return (tuple(cell),)
        return itertools.permutations(cell)

    best = None
    for perms in itertools.product(*(cell_orders(c) for c in cells)):
        order = [v for cell in perms for v in cell]
        bits = []
        for i in range(g.num_vertices):
            for j in range(i + 1, g.num_vertices):
                a, b = order[i], order[j]
                bits.append("1" if (min(a, b), max(a, b)) in edge_set else "0")
        s = "".join(bits)
        if best is None or s < best:
            best = s
    return f"{g.num_vertices}:{best}"


def _reference_orders(g):
    adj = [set(nb) for nb in g.adjacency()]
    return math.prod(
        math.factorial(len(c)) for c in oracle._refine_classes(neighbour_masks(g))
        if any(adj[v] != adj[c[0]] for v in c[1:])
    )


def test_canonical_form_matches_permutation_reference(monkeypatch):
    seen = []
    extend = oracle._single_edge_extensions

    def recording(nbrs, orbits):
        for edge, child in extend(nbrs, orbits):
            seen.append(_graph_of(child))
            yield edge, child

    monkeypatch.setattr(oracle, "_single_edge_extensions", recording)
    list(enumerate_triangle_free(6))
    yielded = list(enumerate_triangle_free(5, include_disconnected=True))
    monkeypatch.undo()
    graphs = {(g.num_vertices, g.edges): g for g in seen + yielded}
    for g in (
        graph_from_edges(C8),
        _matching(4),
        graph_from_edges([(0, 1), (2, 3), (4, 5), (6, 7), (7, 8)]),  # 3K2 + P3
        graph_from_edges(Q3),
    ):
        graphs[g.num_vertices, g.edges] = g
    disconnected = 0
    for g in graphs.values():
        parts = _components_of(g)
        if len(parts) == 1:
            assert canonical_form(g) == _canonical_form_by_permutation(g), g
        else:
            disconnected += 1
            for part in parts:
                assert canonical_form(part) == _canonical_form_by_permutation(part), part
            want = "+".join(sorted(_canonical_form_by_permutation(p) for p in parts))
            assert canonical_form(g) == want, g
    # the 19 unions up to 5 edges (4K2 among them, in the same labelling)
    # and another labelling of 3K2 + P3
    assert disconnected == 20


def test_certificates_agree_with_the_reference_on_isomorphism():
    graphs = list(enumerate_triangle_free(5, include_disconnected=True))
    graphs += [_matching(4), graph_from_edges([(0, 1), (2, 3), (4, 5), (6, 7), (7, 8)])]
    # 5K2 is left out of the reference (its 10! orders take about 100 s);
    # it is the only graph here on 10 vertices, so its reference certificate
    # ("10:...") equals no other
    by_ref = [g for g in graphs if _reference_orders(g) <= math.factorial(8)]
    (five_k2,) = [g for g in graphs if g not in by_ref]
    assert five_k2.edges == _matching(5).edges
    assert [g.num_vertices for g in graphs].count(10) == 1
    refs = [_canonical_form_by_permutation(g) for g in by_ref]
    certs = [canonical_form(g) for g in by_ref]
    for (ra, ca), (rb, cb) in itertools.combinations(zip(refs, certs), 2):
        assert (ra == rb) == (ca == cb)
    # the only isomorphic pairs: the added 4K2 and 3K2 + P3 with their
    # catalogue copies
    assert sum(ra == rb for ra, rb in itertools.combinations(refs, 2)) == 2
    assert canonical_form(five_k2) not in certs


@settings(max_examples=40, deadline=None)
@given(st.permutations(list(range(6))))
def test_canonical_form_is_relabel_invariant(perm):
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)]
    g = graph_from_edges(edges)
    h = graph_from_edges([tuple(sorted((perm[u], perm[v]))) for u, v in edges])
    assert canonical_form(g) == canonical_form(h)


@settings(max_examples=40, deadline=None)
@given(st.permutations(list(range(8))))
def test_canonical_form_is_relabel_invariant_on_cycle_and_cube(perm):
    for edges in (C8, Q3):
        h = graph_from_edges([tuple(sorted((perm[u], perm[v]))) for u, v in edges])
        assert canonical_form(h) == canonical_form(graph_from_edges(edges))


def test_canonical_form_separates_same_degree_trees():
    # both trees have degree sequence (3,2,2,1,1,1) but branch at different
    # distances from the path ends
    t1 = graph_from_edges([(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])
    t2 = graph_from_edges([(0, 1), (1, 2), (2, 3), (3, 4), (1, 5)])
    assert canonical_form(t1) != canonical_form(t2)


# ---------------------------------------------------------------------------
# Random instances
# ---------------------------------------------------------------------------

def test_random_triangle_free_is_deterministic():
    a = random_triangle_free(9, 3, seed=7)
    b = random_triangle_free(9, 3, seed=7)
    assert a.edges == b.edges
    c = random_triangle_free(9, 3, seed=8)
    assert c.edges != a.edges


@pytest.mark.parametrize("seed", range(8))
def test_random_triangle_free_properties(seed):
    g = random_triangle_free(10, 3, seed=seed)
    assert is_triangle_free(g)
    assert max_degree(g) <= 3
    # maximal: no addable pair is both degree-feasible and triangle-free
    adj = [set(nb) for nb in g.adjacency()]
    deg = [len(a) for a in adj]
    for u in range(10):
        for v in range(u + 1, 10):
            if v in adj[u]:
                continue
            addable = deg[u] < 3 and deg[v] < 3 and not (adj[u] & adj[v])
            assert not addable, (u, v)
