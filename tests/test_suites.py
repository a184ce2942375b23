"""The named property suites behind verify-lemmas."""

import dataclasses
import math
import threading
from fractions import Fraction

import pytest

from medcover import costs, covers, graphs, suites
from medcover.costs import weiszfeld
from medcover.decomposition import certify_lower_bound
from medcover.errors import NotConverged, PreconditionViolated, Stuck
from medcover.graphs import Graph, is_star, maximum_matching
from medcover.oracle import (
    enumerate_triangle_free,
    min_vertex_cover,
    opt_continuous,
    opt_discrete,
    random_triangle_free,
)
from medcover.reduction import reduce_graph, reduce_hypergraph
from medcover.suites import (
    completeness_instances,
    run_all,
    suite_closed_forms,
    suite_completeness,
    suite_covers,
    suite_decomposition,
    suite_extra_cost,
    suite_gap_arithmetic,
    suite_hypergraph,
    suite_means_cover_number,
)

EXPECTED_NAMES = [
    "closed_forms",
    "decomposition_soundness",
    "extra_cost_floor",
    "means_extra_cost_per_cover_vertex",
    "completeness",
    "cover_extraction",
    "hypergraph_reduction",
    "gap_arithmetic_and_monotonicity",
]


@pytest.fixture(autouse=True)
def cold_records():
    # tests here patch what the catalogue records are built from (median_costs,
    # extra_cost, ...); records left warm by another test would hide the patch
    suites._nonstars.cache_clear()
    yield
    suites._nonstars.cache_clear()


def counting(monkeypatch, name):
    """Patch ``suites.<name>`` to record the arguments of every call."""
    calls = []
    real = getattr(suites, name)

    def counted(*args, **kwargs):
        calls.append(args + tuple(kwargs.items()))
        return real(*args, **kwargs)

    monkeypatch.setattr(suites, name, counted)
    return calls


def assert_clean(result, name):
    assert result["name"] == name
    assert result["passed"], result["failures"]
    assert result["checks"] > 0
    assert result["failures"] == []


def test_closed_forms_suite():
    assert_clean(suite_closed_forms(), "closed_forms")


def test_decomposition_suite_small():
    assert_clean(suite_decomposition(max_edges=5), "decomposition_soundness")


def test_extra_cost_suite_small():
    assert_clean(suite_extra_cost(max_edges=5), "extra_cost_floor")


def test_cover_suite_small():
    assert_clean(suite_covers(max_edges=5), "cover_extraction")


def test_catalogue_suites_at_eight_edges():
    # the catalogue benchmark's scale; fewer checks would mean graphs went missing
    want = {"decomposition_soundness": 866, "extra_cost_floor": 356, "cover_extraction": 1068}
    for suite in (suite_decomposition, suite_extra_cost, suite_covers):
        result = suite(8)
        assert_clean(result, result["name"])
        assert result["checks"] == want[result["name"]]


def test_cover_suite_solves_each_median_once(monkeypatch):
    # one median_costs call holds every non-star graph; the dispatch check
    # reads each graph's extra cost from it, and no construction solves a
    # median
    batches = []
    inside = []
    real_batch = costs._weiszfeld_batch
    real_costs = suites.median_costs

    def counting(graphs, *args, **kwargs):
        batches.append(list(graphs))
        inside.append(True)
        try:
            return real_costs(graphs, *args, **kwargs)
        finally:
            inside.pop()

    def only_inside_median_costs(*args):
        if not inside:
            raise AssertionError("a median was solved outside the suite's batch")
        return real_batch(*args)

    def no_solve(*args, **kwargs):
        raise AssertionError("a cover construction solved a median")

    monkeypatch.setattr(suites, "median_costs", counting)
    monkeypatch.setattr(costs, "_weiszfeld_batch", only_inside_median_costs)
    monkeypatch.setattr(covers, "extra_cost", no_solve)
    assert_clean(suite_covers(max_edges=6), "cover_extraction")
    # the records' Blocks, one per graph, which the batch classifies
    assert batches == [[costs.Block(g) for g in enumerate_triangle_free(6) if not is_star(g)]]


def test_cover_suite_matches_each_graph_once(monkeypatch):
    # one M and one L search per graph, shared by every construction that
    # applies; a dispatch that takes the F' bridge row also searches its
    # residue twice (its L, and its M checked maximum)
    records = suites._nonstars(6)
    bridged = sum(
        len(maximum_matching(g)) >= 3 and "F' bridge" in covers.cover_case_dispatch(g).case
        for g, *_ in records
    )
    searched = []
    real = graphs.maximum_matching

    def counted(h):
        searched.append(h.edges)
        return real(h)

    for module in (graphs, costs, covers):
        monkeypatch.setattr(module, "maximum_matching", counted)
    assert_clean(suite_covers(6), "cover_extraction")
    assert bridged > 0
    assert len(searched) == 2 * len(records) + 2 * bridged
    assert {g.edges for g, *_ in records} <= set(searched)


def test_decomposition_suite_makes_one_mask_pass_per_record_and_residual(monkeypatch):
    # each record's Block serves both modes and the bridge test, so its
    # masks are built once (178 at 8 edges), and each of the 344 residuals
    # is classified from the masks its decomposition keeps. Three passes a
    # record and one a residual made 866, and one a record and one a
    # residual 522.
    records = suites._nonstars(8)
    residuals = sum(1 + (graphs.bridge_structure(g) is None) for g, *_ in records)
    passes = []
    real = graphs.neighbour_masks

    def counted(g):
        passes.append(g)
        return real(g)

    for module in (graphs, costs):
        monkeypatch.setattr(module, "neighbour_masks", counted)
    result = suite_decomposition(8)
    assert_clean(result, "decomposition_soundness")
    assert (len(records), residuals) == (178, 344)
    assert len(passes) == len(records) == 178
    assert passes[0] == records[0][0]


def test_the_records_keep_the_one_class_each_graph_is_given(monkeypatch):
    # building the records classifies each graph once, on its Block's masks,
    # and keeps the class as a value, with no Block; suite_covers then reads
    # the record's class, and only cover_matching_two's 5-cycle fallback
    # classifies again
    classified = []
    monkeypatch.setattr(costs, "classify_from_masks",
                        lambda nbrs, edges: classified.append(edges) or graphs.classify_from_masks(nbrs, edges))
    records = suites._nonstars(8)
    assert len(records) == 178
    assert classified == [g.edges for g, *_ in records]
    assert [cls for _, cls, *_ in records] == [graphs.classify(g) for g, *_ in records]
    assert not any(isinstance(value, costs.Block) for record in records for value in record)
    classified.clear()
    assert_clean(suite_covers(8), "cover_extraction")
    c5 = [g.edges for g, cls, *_ in records if cls.tag is graphs.ClassTag.C5]
    assert classified == c5 and len(c5) == 1


CATALOGUE_SUITES = (suite_decomposition, suite_extra_cost, suite_covers)


def test_the_catalogue_suites_build_their_records_once(monkeypatch):
    enumerations = counting(monkeypatch, "enumerate_triangle_free")
    batches = counting(monkeypatch, "median_costs")
    shared = [suite(6) for suite in CATALOGUE_SUITES]
    assert enumerations == [(6,)]
    assert len(batches) == 1
    cold = []
    for suite in CATALOGUE_SUITES:
        suites._nonstars.cache_clear()
        cold.append(suite(6))
    assert cold == shared
    assert len(enumerations) == len(batches) == 4


def test_records_of_another_max_edges_replace_the_slot(monkeypatch):
    enumerations = counting(monkeypatch, "enumerate_triangle_free")
    six = suites._nonstars(6)
    five = suites._nonstars(5)
    assert suites._nonstars(5) is five
    assert suites._nonstars(6) == six
    # only the last max_edges is kept: six is built again after five
    assert enumerations == [(6,), (5,), (6,)]
    assert isinstance(six, tuple) and len(five) < len(six)


def test_a_build_that_raises_leaves_the_slot_empty(monkeypatch):
    clean = suite_decomposition(6)

    def not_converged(graphs):
        raise NotConverged("iteration cap reached")

    suites._nonstars(5)
    monkeypatch.setattr(suites, "median_costs", not_converged)
    with pytest.raises(NotConverged):
        suite_decomposition(6)
    monkeypatch.undo()
    # the failed build was not cached: the next call builds again, and keeps it
    enumerations = counting(monkeypatch, "enumerate_triangle_free")
    assert suite_decomposition(6) == clean
    assert suite_decomposition(6) == clean
    assert enumerations == [(6,)]


def test_concurrent_callers_get_equal_records():
    start = threading.Barrier(4)
    got = []

    def call():
        start.wait()
        got.append(suites._nonstars(6))

    threads = [threading.Thread(target=call) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 4 and all(r == got[0] for r in got)


def test_run_all_enumerates_the_catalogue_once(monkeypatch):
    # the catalogue suites share one connected enumeration; the cover-number
    # suite reads the disconnected catalogue too
    enumerations = counting(monkeypatch, "enumerate_triangle_free")
    assert run_all(max_edges=4, seed=0, trials=4)["all_passed"] is True
    assert enumerations == [(4,), (4, ("include_disconnected", True))]


def test_hypergraph_suite_needs_candidate_centers(monkeypatch):
    def without_centers(h):
        return dataclasses.replace(reduce_hypergraph(h), candidate_centers=None)

    monkeypatch.setattr(suites, "reduce_hypergraph", without_centers)
    with pytest.raises(PreconditionViolated):
        suite_hypergraph(seed=0)


def test_hypergraph_suite():
    r = suite_hypergraph(seed=0)
    assert_clean(r, "hypergraph_reduction")
    assert r["checks"] > 100


def test_gap_suite():
    assert_clean(suite_gap_arithmetic(), "gap_arithmetic_and_monotonicity")


def test_the_sweep_cover_budget_charges_two_delta_k():
    # k = 2, delta = 0.1: the budget is 2k - 2*delta*k = 3.6
    assert suites.cover_le_2k(3, 2, 0.1)
    assert not suites.cover_le_2k(4, 2, 0.1)
    assert suites.cover_le_2k(4, 2, 0.0)


def test_the_sweep_ceiling_check_allows_what_the_2k_check_allows():
    assert suites.cover_le_ceiling(4, 4.0)
    assert suites.cover_le_ceiling(4, 4.0 - 1e-10)
    assert not suites.cover_le_ceiling(4, 3.99)
    assert not suites.cover_le_ceiling(4, math.nan)


def test_completeness_instances_are_reproducible_and_small():
    a = completeness_instances(10, seed=0)
    b = completeness_instances(10, seed=0)
    assert [g.edges for g in a] == [h.edges for h in b]
    assert len(a) == 10
    assert all(2 <= g.num_edges <= 12 for g in a)


def test_run_all_shape():
    report = run_all(max_edges=4, seed=0, trials=4)
    assert report["all_passed"] is True
    assert report["max_edges"] == 4
    assert [s["name"] for s in report["suites"]] == EXPECTED_NAMES
    for s in report["suites"]:
        assert s["passed"], (s["name"], s["failures"])


# -- each suite reports a false predicate -----------------------------------
#
# One input is patched so that exactly one predicate of the suite is false:
# the suite fails with that check's text and still counts every check.

C4 = ((0, 1), (0, 2), (1, 3), (2, 3))
C5 = ((0, 1), (0, 2), (1, 3), (2, 4), (3, 4))  # the 5-cycle, not a bridge graph


def assert_one_failure(result, clean, failure):
    assert clean["passed"], clean["failures"]
    assert result["name"] == clean["name"]
    assert result["passed"] is False
    assert result["checks"] == clean["checks"]
    assert result["failures"] == [failure]


def test_closed_forms_suite_reports_a_wrong_closed_form(monkeypatch):
    clean = suite_closed_forms()
    real = suites.simplex_median_cost
    monkeypatch.setattr(suites, "simplex_median_cost", lambda r, s: real(r, s) + (r == 5))
    pts = [[2.0 / math.sqrt(2.0) if j == i else 0.0 for j in range(5)] for i in range(5)]
    got, want = weiszfeld(pts).cost, real(5, 2.0) + 1
    assert_one_failure(
        suite_closed_forms(), clean, f"simplex side 2 r=5: got {got!r}, want {want!r}"
    )


def test_decomposition_suite_reports_a_certificate_that_does_not_add_up(monkeypatch):
    clean = suite_decomposition(5)

    def off_on_c4(g, mode):
        cert = certify_lower_bound(g, mode)
        if g.edges == C4 and mode == "safe":
            return dataclasses.replace(cert, bound=cert.bound - 1e-9)
        return cert

    monkeypatch.setattr(suites, "certify_lower_bound", off_on_c4)
    assert_one_failure(suite_decomposition(5), clean, f"certificate sum mismatch on {C4}")


def test_extra_cost_suite_reports_a_means_floor_below_two_thirds(monkeypatch):
    clean = suite_extra_cost(5)

    def low_on_c5(g, objective):
        got = costs.extra_cost(g, objective)
        return dataclasses.replace(got, value=Fraction(1, 2)) if g.edges == C5 else got

    monkeypatch.setattr(suites, "extra_cost", low_on_c5)
    suites._nonstars.cache_clear()  # the clean run's records hold the unpatched costs
    assert_one_failure(
        suite_extra_cost(5), clean, f"means extra cost below 2/3 on {C5}: Fraction(1, 2)"
    )


def test_means_cover_number_suite():
    # every triangle-free graph up to 8 edges, connected or not; P4 is the
    # only non-star at equality
    result = suite_means_cover_number(8)
    assert_clean(result, "means_extra_cost_per_cover_vertex")
    assert result["checks"] == 452
    assert result["tight_non_stars"] == [[[0, 1], [0, 2], [1, 3]]]


def test_means_cover_number_suite_reports_a_cover_number_too_large(monkeypatch):
    # C5 has D = 5 disjoint pairs and r = 5 edges: 15 >= 5(tau - 1) fails
    # only at a cover number above 4
    clean = suite_means_cover_number(5)

    def larger_on_c5(g):
        cover = min_vertex_cover(g)
        return cover | set(range(10, 12)) if g.edges == C5 else cover

    monkeypatch.setattr(suites, "min_vertex_cover", larger_on_c5)
    assert_one_failure(
        suite_means_cover_number(5), clean, f"3D < r(tau - 1) on {C5}: D = 5, r = 5, tau = 5"
    )


def test_completeness_suite_reports_a_means_cost_above_the_threshold(monkeypatch):
    clean = suite_completeness(2, 0)
    g = completeness_instances(2, 0)[1]
    k = len(min_vertex_cover(g))
    raised = []

    def dearer_means(inst):
        rep = opt_continuous(inst)
        if inst.objective == "means" and inst == reduce_graph(g, k=k, objective="means"):
            rep = dataclasses.replace(rep, optimal_cost=rep.optimal_cost + 1.0)
            raised.append(rep.optimal_cost)
        return rep

    monkeypatch.setattr(suites, "opt_continuous", dearer_means)
    result = suite_completeness(2, 0)
    m = g.num_edges
    assert_one_failure(
        result, clean, f"means completeness fails on {g.edges}: {raised[0]!r} > {float(m - k)!r}"
    )


def test_cover_suite_reports_a_means_cover_over_its_bound(monkeypatch):
    clean = suite_covers(5)

    def over_on_c5(g):
        res = covers.cover_nonstar_means(g)
        more = res.cover | set(range(100, 110))  # still a cover, ten vertices larger
        return dataclasses.replace(res, cover=more) if g.edges == C5 else res

    monkeypatch.setattr(suites, "cover_nonstar_means", over_on_c5)
    size = len(covers.cover_nonstar_means(Graph(5, C5)).cover) + 10
    bound = covers.CHARGES["means", "means"].of(costs.extra_cost(Graph(5, C5), "means").value)
    assert_one_failure(suite_covers(5), clean, f"means bound fails on {C5}: {size} > {bound}")


@pytest.mark.parametrize(
    "name, label",
    [
        ("cover_general", "general construction failed"),
        ("cover_case_dispatch", "dispatch construction failed"),
        ("cover_matching_two", "matching-2 construction failed"),
        ("cover_nonstar_means", "means construction failed"),
    ],
    ids=["general", "dispatch", "matching_two", "means"],
)
def test_cover_suite_counts_a_construction_that_raises_as_both_its_checks_failing(
    monkeypatch, name, label
):
    # a construction that raises fails both claims on its result, so the
    # suite counts as many checks as a clean run
    clean = suite_covers(6)
    real = getattr(suites, name)
    raised = []

    def stuck_once(g, *args):
        if not raised:
            raised.append(g.edges)
            raise Stuck("no case applies")
        return real(g, *args)

    monkeypatch.setattr(suites, name, stuck_once)
    result = suite_covers(6)
    assert result["passed"] is False
    assert result["checks"] == clean["checks"]
    assert result["failures"] == [
        f"{label} on {raised[0]} ({claim}): no case applies" for claim in ("cover", "size bound")
    ]


def test_hypergraph_suite_reports_a_wrong_discrete_optimum(monkeypatch):
    clean = suite_hypergraph(0)
    first = suites._hypergraph_cases(0)[0]
    seen = []

    def off_on_first(inst):
        rep = opt_discrete(inst)
        seen.append(rep.optimal_cost)
        if len(seen) == 1:
            rep = dataclasses.replace(rep, optimal_cost=rep.optimal_cost + 1)
        return rep

    monkeypatch.setattr(suites, "opt_discrete", off_on_first)
    result = suite_hypergraph(0)
    want = seen[0]  # the true optimum equals the cover-count formula
    label = f"d={first.d}, N={len(first.hyperedges)}, k={first.k}"
    assert_one_failure(result, clean, f"discrete optimum ({label}): {want + 1!r} != {int(want)}")


def test_gap_suite_reports_a_cost_that_rises_with_k(monkeypatch):
    clean = suite_gap_arithmetic()
    g = random_triangle_free(7, 3, seed=3)
    dear = {}

    def dearer_at_three(inst):
        rep = opt_continuous(inst)
        if inst == reduce_graph(g, k=2, objective="median"):
            dear[2] = rep.optimal_cost
        elif inst == reduce_graph(g, k=3, objective="median"):
            dear[3] = dear[2] + 1.0  # above k = 2; k = 4 compares to this and passes
            rep = dataclasses.replace(rep, optimal_cost=dear[3])
        return rep

    monkeypatch.setattr(suites, "opt_continuous", dearer_at_three)
    result = suite_gap_arithmetic()
    assert_one_failure(
        result,
        clean,
        f"cost not monotone in k on {g.edges} (median, k=3): {dear[3]!r} > {dear[2]!r}",
    )


def test_a_nan_median_cost_fails_the_decomposition_and_extra_cost_checks(monkeypatch):
    # a failure test (bound > cost) would let NaN through; every predicate
    # states what must hold, so a NaN fails it
    real = suites.median_costs

    def nan_on_c5(graphs):
        return [(math.nan, basis) if g.edges == C5 else (cost, basis)
                for g, (cost, basis) in zip(graphs, real(graphs))]

    clean = suite_decomposition(5), suite_extra_cost(5)
    monkeypatch.setattr(suites, "median_costs", nan_on_c5)
    suites._nonstars.cache_clear()  # the clean runs' records hold the unpatched costs
    decomposition, extra = suite_decomposition(5), suite_extra_cost(5)
    safe = certify_lower_bound(Graph(5, C5), "safe").bound
    ultra = certify_lower_bound(Graph(5, C5), "ultra_safe").bound
    for result, before in zip((decomposition, extra), clean):
        assert result["passed"] is False
        assert result["checks"] == before["checks"]
    assert decomposition["failures"] == [
        f"safe bound exceeds cost on {C5}: {safe!r} > nan",
        f"ultra bound exceeds cost on {C5}: {ultra!r}",
    ]
    assert extra["failures"] == [f"median extra cost below floor on {C5}: nan"]
