"""The named property suites behind verify-lemmas."""

import dataclasses

import pytest

from medcover import costs, covers, suites
from medcover.errors import PreconditionViolated
from medcover.graphs import is_star
from medcover.oracle import enumerate_triangle_free
from medcover.reduction import reduce_hypergraph
from medcover.suites import (
    completeness_instances,
    run_all,
    suite_closed_forms,
    suite_covers,
    suite_decomposition,
    suite_extra_cost,
    suite_gap_arithmetic,
    suite_hypergraph,
)

EXPECTED_NAMES = [
    "closed_forms",
    "decomposition_soundness",
    "extra_cost_floor",
    "completeness",
    "cover_extraction",
    "hypergraph_reduction",
    "gap_arithmetic_and_monotonicity",
]


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


def test_cover_suite_solves_each_median_once(monkeypatch):
    # one median_costs call holds every non-star graph; the constructions
    # are handed each graph's extra cost and solve no median themselves
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
    assert batches == [[g for g in enumerate_triangle_free(6) if not is_star(g)]]


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
