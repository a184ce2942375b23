"""Acceptance gates for the toolkit, each pinned to an explicit tolerance.

These are the checks the package must pass before any release:

1. closed-form 1-median costs agree with the iterative solver to 1e-6;
2. decomposition certificates bracket the true cluster cost on every
   triangle-free graph up to 7 edges, and the ultra mode reaches the
   edge count on every non-bridge graph;
3. non-star clusters cost at least 0.158 (median) / exactly >= 2/3 (means)
   above the star baseline, across the same catalogue;
4. on 50 seeded random graphs, the optimal clustering cost never exceeds
   the cover-based threshold (completeness of the reduction);
5. every cover construction returns a valid cover within its advertised
   size bound, across the catalogue (soundness, constructively);
6. hypergraph reductions place points at exactly the near/far distances
   and the restricted-center optimum equals the cover-count formula;
7. the predicted cost gaps are monotone in the center budget and match
   ten frozen spot values;
8. reports are byte-identical across repeated runs with the same seed, and
   every committed report regenerates byte for byte; the committed sweeps,
   rerun under the means objective, meet the ledger's ceiling on every row.
"""

import csv
import importlib.util
import pathlib

from medcover.cli import main
from medcover.graphs import is_star
from medcover.oracle import enumerate_triangle_free, min_vertex_cover, opt_continuous
from medcover.reduction import reduce_graph
from medcover.suites import (
    completeness_instances,
    means_complete,
    median_complete,
    suite_closed_forms,
    suite_completeness,
    suite_covers,
    suite_decomposition,
    suite_extra_cost,
    suite_gap_arithmetic,
    suite_hypergraph,
)

CATALOGUE_EDGES = 7
NONSTAR_GRAPHS = 69  # the 76-graph catalogue minus one star per size
COMPLETENESS_TRIALS = 50
ROOT = pathlib.Path(__file__).resolve().parent.parent


def catalogue():
    return enumerate_triangle_free(CATALOGUE_EDGES)


# -- 1 ----------------------------------------------------------------------

def test_criterion_1_closed_forms_match_the_solver():
    # the suite's tolerance is the gate's: 1e-6 between the solver and each
    # closed form (disjoint edges beyond three: tests/test_costs.py)
    result = suite_closed_forms()
    assert result["passed"], result["failures"]
    assert result["checks"] == 26  # frozen in reports/lemmas.json


# -- 2 ----------------------------------------------------------------------

def test_criterion_2_decomposition_brackets_every_catalogue_graph():
    # the suite's tolerances are the gate's: 1e-6 above the true cost, and
    # 1e-12 below |F| - 0.342 (safe) and |F| (ultra, non-bridge graphs)
    result = suite_decomposition(CATALOGUE_EDGES)
    assert result["passed"], result["failures"]
    assert result["checks"] == 327  # frozen in reports/lemmas.json
    assert sum(not is_star(g) for g in catalogue()) == NONSTAR_GRAPHS


# -- 3 ----------------------------------------------------------------------

def test_criterion_3_extra_cost_floors():
    # the suite's floors are the gate's: 0.158 - 1e-6 (median), and exactly
    # 2/3 in Fractions (means)
    result = suite_extra_cost(CATALOGUE_EDGES)
    assert result["passed"], result["failures"]
    assert result["checks"] == 2 * NONSTAR_GRAPHS == 138  # frozen in reports/lemmas.json


# -- 4 ----------------------------------------------------------------------

def test_criterion_4_completeness_on_seeded_instances():
    result = suite_completeness(trials=COMPLETENESS_TRIALS, seed=0)
    assert result["passed"], result["failures"]
    assert result["checks"] == 2 * COMPLETENESS_TRIALS  # median and means each


def test_criterion_4_spot_instance():
    g = completeness_instances(1, seed=0)[0]
    m, k = g.num_edges, len(min_vertex_cover(g))
    med = opt_continuous(reduce_graph(g, k=k, objective="median"))
    assert median_complete(med.optimal_cost, m, k)
    mea = opt_continuous(reduce_graph(g, k=k, objective="means"))
    assert means_complete(mea.optimal_cost, m, k)


# -- 5 ----------------------------------------------------------------------

def test_criterion_5_cover_constructions_across_the_catalogue():
    result = suite_covers(max_edges=CATALOGUE_EDGES)
    assert result["passed"], result["failures"]
    assert result["checks"] == 414  # frozen size of the 7-edge battery


# -- 6 ----------------------------------------------------------------------

def test_criterion_6_hypergraph_reductions():
    result = suite_hypergraph(seed=0)
    assert result["passed"], result["failures"]
    assert result["checks"] == 582  # frozen: 18 instances, all uniformities


# -- 7 ----------------------------------------------------------------------

def test_criterion_7_gap_arithmetic_and_monotonicity():
    result = suite_gap_arithmetic()
    assert result["passed"], result["failures"]
    assert result["checks"] == 34  # 10 spot cases + seeded monotonicity runs


# -- 8 ----------------------------------------------------------------------

def test_criterion_8_reports_are_byte_identical(tmp_path, capsys):
    pairs = []
    for tag, argv in (
        ("verify", ["verify-lemmas", "--max-edges", "5", "--trials", "12"]),
        ("sweep", ["sweep", "--n", "8", "--d", "3", "--trials", "6", "--seed", "3"]),
    ):
        outs = []
        for run_id in ("a", "b"):
            out = tmp_path / f"{tag}_{run_id}"
            code = main(argv + ["--out", str(out)])
            capsys.readouterr()
            assert code == 0
            outs.append(out.read_bytes())
        pairs.append((tag, outs))
    for tag, (first, second) in pairs:
        assert first == second, f"{tag} report changed between identical runs"


def committed_reports():
    """The (file name, argv) table of the script that writes reports/."""
    spec = importlib.util.spec_from_file_location(
        "run_acceptance_sweep", ROOT / "scripts" / "run_acceptance_sweep.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    names = [name for name, _argv in script.REPORTS]
    assert sorted(names) == sorted(p.name for p in (ROOT / "reports").iterdir())
    return script.REPORTS


def reproduce(entries, tmp_path, capsys):
    assert entries
    for name, argv in entries:
        out = tmp_path / name
        code = main([*argv, "--out", str(out)])
        capsys.readouterr()
        assert code == 0, name
        assert out.read_bytes() == (ROOT / "reports" / name).read_bytes(), name


def test_criterion_8_sweeps_reproduce_the_committed_reports(tmp_path, capsys):
    entries = [e for e in committed_reports() if e[1][0] == "sweep"]
    reproduce(entries, tmp_path, capsys)


def test_criterion_8_lemmas_reproduce_the_committed_report(tmp_path, capsys):
    entries = [e for e in committed_reports() if e[1][0] != "sweep"]
    reproduce(entries, tmp_path, capsys)


def test_criterion_8_the_committed_sweeps_meet_the_means_ceiling(tmp_path, capsys):
    # the committed sweeps are median sweeps, whose cover_le_ceiling column
    # stays blank: the means rerun fills it on every row
    entries = [e for e in committed_reports() if e[1][0] == "sweep"]
    assert entries
    for name, argv in entries:
        out = tmp_path / name
        code = main([*argv, "--objective", "means", "--out", str(out)])
        capsys.readouterr()
        assert code == 0, name
        with out.open(newline="") as f:
            cells = [row["cover_le_ceiling"] for row in csv.DictReader(f)]
        assert cells and set(cells) == {"true"}, name
