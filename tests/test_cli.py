"""End-to-end command-line behavior, including byte-level determinism."""

import json
import math
import warnings

import pytest

from medcover import cli, costs, suites
from medcover.cli import main
from medcover.errors import MedcoverError, PreconditionViolated
from medcover.costs import closed_form_median_cost, cluster_points, extra_cost, weiszfeld
from medcover.graphs import parse_edge_list
from medcover.oracle import opt_continuous
from medcover.reduction import NO_SIDE_HYPOTHESIS, instance_from_json

C5_TEXT = "0 1\n1 2\n2 3\n3 4\n0 4\n"
P4_TEXT = "0 1\n1 2\n2 3\n"
HYPER_TEXT = "0 1 2\n1 2 3\n2 3 4\n0 3 4\n"


@pytest.fixture
def c5_file(tmp_path):
    p = tmp_path / "c5.txt"
    p.write_text(C5_TEXT)
    return str(p)


@pytest.fixture
def p4_file(tmp_path):
    p = tmp_path / "p4.txt"
    p.write_text(P4_TEXT)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_reduce_writes_a_loadable_instance(tmp_path, capsys, p4_file):
    out = tmp_path / "inst.json"
    code, stdout, _ = run(capsys, "reduce", "--graph", p4_file, "--k", "2",
                          "--out", str(out))
    assert code == 0
    payload = json.loads(stdout)
    assert payload["instance_points"] == 3
    assert payload["yes_cost"] == 2.0
    assert payload["no_cost_lower_hypothesis"] == NO_SIDE_HYPOTHESIS["median"]
    inst = instance_from_json(out.read_text())
    assert inst.k == 2
    assert len(inst.points) == 3


def test_reduce_refuses_more_centers_than_edges(tmp_path, capsys):
    path = tmp_path / "p6.txt"
    path.write_text("0 1\n1 2\n2 3\n3 4\n4 5\n")  # a path with 5 edges
    out = tmp_path / "inst.json"
    code, stdout, stderr = run(capsys, "reduce", "--graph", str(path), "--k", "20",
                               "--out", str(out))
    assert code == 1
    assert stdout == ""
    assert stderr == "error: k = 20 exceeds the m = 5 edges\n"
    assert not out.exists()


def test_median_reports_closed_form_when_it_exists(capsys, p4_file):
    code, stdout, _ = run(capsys, "median", "--graph", p4_file)
    assert code == 0
    payload = json.loads(stdout)
    assert payload["converged"] is True
    assert payload["closed_form"] == pytest.approx(payload["cost"], abs=1e-6)
    assert payload["extra_cost"]["value"] > 0.158


@pytest.mark.parametrize("text", [C5_TEXT, P4_TEXT], ids=["c5-no-closed-form", "p4-closed-form"])
def test_median_solves_once_and_reports_what_extra_cost_reports(monkeypatch, tmp_path, capsys, text):
    graph = tmp_path / "g.txt"
    graph.write_text(text)
    g = parse_edge_list(text)
    sol = weiszfeld(cluster_points(g))
    extra = extra_cost(g, "median")
    expected = {
        "cost": sol.cost,
        "center": list(sol.center),
        "iterations": sol.iterations,
        "converged": sol.converged,
        "closed_form": closed_form_median_cost(g),
        "extra_cost": {"value": extra.value, "basis": extra.basis},
    }
    batch = costs._weiszfeld_batch
    calls = []
    monkeypatch.setattr(costs, "_weiszfeld_batch", lambda *a: calls.append(1) or batch(*a))
    code, stdout, _ = run(capsys, "median", "--graph", str(graph))
    assert code == 0
    assert stdout == json.dumps(expected, indent=2, sort_keys=True) + "\n"
    assert len(calls) == 1


def test_decompose_reports_both_modes_for_c5(capsys, c5_file):
    code, stdout, _ = run(capsys, "decompose", "--graph", c5_file)
    assert code == 0
    payload = json.loads(stdout)
    assert payload["class"] == "C5"
    assert payload["safe"]["bound"] == pytest.approx(5.0955735647785594, abs=1e-9)
    # ultra mode strips the same pair and certifies the same 2 + A_2
    assert payload["ultra_safe"]["bound"] == payload["safe"]["bound"]
    assert payload["ultra_safe"]["trace"]["residual"] == {"n": 2, "tag": "A_n"}


def test_decompose_skips_ultra_for_bridge_graphs(capsys, p4_file):
    code, stdout, _ = run(capsys, "decompose", "--graph", p4_file)
    assert code == 0
    payload = json.loads(stdout)
    assert payload["ultra_safe"] is None
    assert "bridge" in payload["note"]


def test_decompose_skips_both_modes_for_stars(tmp_path, capsys):
    star = tmp_path / "star.txt"
    star.write_text("0 1\n0 2\n0 3\n")
    code, stdout, _ = run(capsys, "decompose", "--graph", str(star))
    assert code == 0
    payload = json.loads(stdout)
    assert (payload["class"], payload["safe"], payload["ultra_safe"]) == ("Star", None, None)
    assert payload["note"].startswith("stars need no decomposition")


def test_cover_recovers_the_minimum_on_c5(capsys, c5_file):
    code, stdout, _ = run(capsys, "cover", "--graph", c5_file, "--k", "3")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["total_cover_size"] == 3
    assert payload["min_vertex_cover"] == 3
    assert payload["beta"] == 1.0
    assert len(payload["per_cluster"]) >= 1


def test_cover_means_reports_exact_rationals_as_floats(capsys, c5_file):
    # C5 at k = 2 clusters as a 3-edge path and a 2-edge star; the path's
    # means extra cost 2/3 and its bound 1 + (5/2)(2/3) are Fractions
    code, stdout, _ = run(capsys, "cover", "--graph", c5_file, "--k", "2", "--objective", "means")
    assert code == 0
    path_block = json.loads(stdout)["per_cluster"][0]
    assert (path_block["kind"], path_block["constant"], path_block["slope"]) == ("means", 1, 2.5)
    assert (path_block["charge"], path_block["extra"]) == (
        2.6666666666666665, 0.6666666666666666)


def test_cover_refuses_a_triangle_before_reducing_or_solving(monkeypatch, tmp_path, capsys):
    # reduce_graph warns on a triangle and the oracle's table is exponential,
    # so the precondition is checked before either runs
    def no_solve(inst):
        raise AssertionError("opt_continuous ran on a graph with a triangle")

    monkeypatch.setattr(cli, "opt_continuous", no_solve)
    graph = tmp_path / "triangle.txt"
    graph.write_text("0 1\n1 2\n0 2\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, stdout, stderr = run(capsys, "cover", "--graph", str(graph), "--k", "1")
    assert (code, stdout) == (1, "")
    assert stderr == "error: cover constructions assume a triangle-free graph\n"
    assert caught == []


def test_cover_refuses_more_blocks_than_edges(capsys, p4_file):
    # ceil(beta * k) = ceil(2 * 2) = 4 blocks cannot partition P4's 3 edges
    argv = ["cover", "--graph", p4_file, "--k", "2", "--beta", "2"]
    args = cli.build_parser().parse_args(argv)
    with pytest.raises(MedcoverError, match=r"^ceil\(beta\*k\) = 4 blocks exceed the 3 edges$"):
        args.func(args)
    assert run(capsys, *argv) == (1, "", "error: ceil(beta*k) = 4 blocks exceed the 3 edges\n")


def test_pad_blocks_peels_the_largest_block_until_there_are_enough():
    assert suites.pad_blocks([[2, 1, 0], [3, 4]], 4) == [[0], [3, 4], [2], [1]]
    with pytest.raises(MedcoverError, match="all blocks are singletons"):
        suites.pad_blocks([[0], [1]], 3)


def test_the_benchmark_pads_with_the_library_rule():
    # bench/workloads.py imports cli._pad_blocks; it must be the one rule
    # that cover and sweep pad with, not a copy
    assert cli._pad_blocks is suites.pad_blocks


def test_oracle_on_edge_list_requires_k(capsys, p4_file):
    code, _, stderr = run(capsys, "oracle", "--graph", p4_file)
    assert code == 1
    assert "--k" in stderr


def test_oracle_on_an_edge_list_solves_its_reduction(capsys, c5_file):
    # three blocks for C5: a 3-edge path at 1 + sqrt(3) and two single edges
    code, stdout, _ = run(capsys, "oracle", "--graph", c5_file, "--k", "3")
    assert code == 0
    payload = json.loads(stdout)
    assert (payload["method"], payload["partition"]) == (
        "partition_enum_weiszfeld", [[0, 3, 4], [1], [2]])
    assert payload["optimal_cost"] == pytest.approx(1 + math.sqrt(3), abs=1e-9)
    code, stdout, stderr = run(capsys, "oracle", "--graph", c5_file)
    assert (code, stdout) == (1, "")
    assert stderr == "error: --k is required when the input is an edge list\n"


def test_oracle_on_instance_json(tmp_path, capsys):
    hyper = tmp_path / "h.txt"
    hyper.write_text(HYPER_TEXT)
    inst = tmp_path / "inst.json"
    code, _, _ = run(capsys, "hyper-reduce", "--graph", str(hyper), "--k", "2",
                     "--out", str(inst))
    assert code == 0
    code, stdout, _ = run(capsys, "oracle", "--graph", str(inst))
    assert code == 0
    payload = json.loads(stdout)
    assert payload["optimal_cost"] == 8.0
    assert payload["method"] == "center_subset_enum"


def test_oracle_refuses_k_and_objective_on_instance_json(tmp_path, capsys, p4_file):
    # the instance carries its own k and objective; a flag that would be
    # ignored is an error, while an edge list still takes both
    inst = tmp_path / "inst.json"
    code, _, _ = run(capsys, "reduce", "--graph", p4_file, "--k", "2", "--out", str(inst))
    assert code == 0
    for flag, value in (("--k", "4"), ("--objective", "means")):
        code, stdout, stderr = run(capsys, "oracle", "--graph", str(inst), flag, value)
        assert (code, stdout) == (1, "")
        assert stderr == (f"error: {flag} applies to edge lists only; an instance JSON "
                          f"carries its own {flag[2:]}\n")
    code, stdout, _ = run(capsys, "oracle", "--graph", str(inst))
    assert (code, json.loads(stdout)["method"]) == (0, "partition_enum_weiszfeld")
    code, stdout, _ = run(capsys, "oracle", "--graph", p4_file, "--k", "2", "--objective", "means")
    assert (code, json.loads(stdout)["method"]) == (0, "partition_enum_centroid")


def test_oracle_refuses_an_instance_json_with_k_above_its_points(tmp_path, capsys):
    # opt_continuous checks k against the points before it builds a table
    text = '{"dimension": 1, "k": 4, "objective": "median", "points": [[0.0], [1.0], [5.0]]}'
    with pytest.raises(PreconditionViolated, match="^k exceeds the number of points$"):
        opt_continuous(instance_from_json(text))
    inst = tmp_path / "inst.json"
    inst.write_text(text)
    assert run(capsys, "oracle", "--graph", str(inst)) == (
        1, "", "error: k exceeds the number of points\n")


def test_oracle_with_an_empty_candidate_list_is_a_clean_error(tmp_path, capsys):
    # an empty list restricts the centers to nothing; it is not the continuous case
    inst = tmp_path / "inst.json"
    inst.write_text(
        '{"dimension": 1, "k": 1, "objective": "median", '
        '"points": [[0.0], [1.0], [5.0]], "candidate_centers": []}'
    )
    code, stdout, stderr = run(capsys, "oracle", "--graph", str(inst))
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("error:") and "candidate centers" in stderr


def test_missing_file_is_a_clean_error(capsys):
    code, _, stderr = run(capsys, "median", "--graph", "/nonexistent/x.txt")
    assert code == 1
    assert "error:" in stderr


def test_malformed_graph_file_is_a_clean_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 0\n")
    code, _, stderr = run(capsys, "median", "--graph", str(bad))
    assert code == 1
    assert stderr.startswith("error:")
    assert "self-loop" in stderr


def test_malformed_instance_json_is_a_clean_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"bad": 1}')
    code, _, stderr = run(capsys, "oracle", "--graph", str(bad))
    assert code == 1
    assert stderr.startswith("error:")
    assert "missing fields" in stderr


@pytest.mark.parametrize("field, value", [("k", '"2"'), ("k", "2.5"), ("k", "true"),
                                          ("dimension", '"1"')])
def test_instance_json_with_a_non_integer_field_is_a_clean_error(tmp_path, capsys, field, value):
    fields = {"dimension": "1", "k": "1", field: value}
    inst = tmp_path / "inst.json"
    inst.write_text(
        f'{{"dimension": {fields["dimension"]}, "k": {fields["k"]}, "objective": "median", '
        '"points": [[0.0], [1.0], [5.0]]}'
    )
    code, stdout, stderr = run(capsys, "oracle", "--graph", str(inst))
    assert code == 1
    assert stdout == ""
    assert stderr.startswith(f"error: {field} must be an integer")


@pytest.mark.parametrize("fields, message", [
    ('"points": 5', "points must be a list of vectors"),
    ('"points": [[0.0], [null]]', "points must hold lists of numbers"),
    ('"points": [[0.0], 1.0]', "points must hold lists of numbers"),
    ('"points": [[0.0], [true]]', "points must hold lists of numbers"),
    ('"points": [[0.0], [1' + "0" * 400 + ']]', "points has a coordinate too large"),
    ('"points": [[0.0], [1.0]], "candidate_centers": 7',
     "candidate_centers must be a list of vectors"),
])
def test_instance_json_of_the_wrong_shape_is_a_clean_error(tmp_path, capsys, fields, message):
    inst = tmp_path / "inst.json"
    inst.write_text(f'{{"dimension": 1, "k": 1, "objective": "median", {fields}}}')
    code, stdout, stderr = run(capsys, "oracle", "--graph", str(inst))
    assert code == 1
    assert stdout == ""
    assert stderr.startswith(f"error: {message}")
    assert stderr.count("\n") == 1


@pytest.mark.parametrize("dimension, objective, points", [
    (0, "median", "[[], []]"),
    (0, "means", "[[], []]"),
    (-1, "median", "[]"),
])
def test_instance_json_with_a_dimension_below_one_is_a_clean_error(
    tmp_path, capsys, dimension, objective, points
):
    inst = tmp_path / "inst.json"
    inst.write_text(
        f'{{"dimension": {dimension}, "points": {points}, "k": 1, "objective": "{objective}"}}'
    )
    code, stdout, stderr = run(capsys, "oracle", "--graph", str(inst))
    assert code == 1
    assert stdout == ""
    assert stderr == f"error: dimension must be >= 1, got {dimension}\n"


@pytest.mark.parametrize("argv, message", [
    (["verify-lemmas", "--max-edges", "0"], "--max-edges must be at least 3"),
    # below 3 edges every connected graph is a star: no catalogue checks
    (["verify-lemmas", "--max-edges", "2"], "--max-edges must be at least 3"),
    (["verify-lemmas", "--trials", "0"], "--trials must be at least 1"),
    (["sweep", "--trials", "0"], "--trials must be at least 1"),
    (["sweep", "--trials", "-3"], "--trials must be at least 1"),
])
def test_vacuous_runs_are_clean_errors(monkeypatch, tmp_path, capsys, argv, message):
    def no_work(*args, **kwargs):
        raise AssertionError("started work on a vacuous run")

    monkeypatch.setattr(cli, "run_all", no_work)
    monkeypatch.setattr(cli, "random_triangle_free", no_work)
    out = tmp_path / "out"
    code, stdout, stderr = run(capsys, *argv, "--out", str(out))
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("error:") and message in stderr
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["cover", "--k", "3", "--beta", "0.5"], "beta must be at least 1"),
    (["cover", "--k", "3", "--delta", "-1"], "delta must be non-negative"),
    (["sweep", "--n", "7", "--trials", "1", "--beta", "0.5"], "beta must be at least 1"),
    (["sweep", "--n", "7", "--trials", "1", "--delta", "-1"], "delta must be non-negative"),
    (["cover", "--k", "4", "--beta", "0.5"], "beta must be at least 1"),
    (["cover", "--k", "3", "--delta", "nan"], "delta must be non-negative"),
    (["sweep", "--n", "7", "--trials", "2", "--beta", "0.5"], "beta must be at least 1"),
    (["cover", "--k", "0"], "k must be at least 1, got 0"),
])
def test_out_of_range_beta_and_delta_are_clean_errors(
    monkeypatch, tmp_path, capsys, c5_file, argv, message
):
    # rejected before the oracle solves anything
    calls = []
    real = cli.opt_continuous
    monkeypatch.setattr(cli, "opt_continuous", lambda *a, **kw: calls.append(1) or real(*a, **kw))
    out = tmp_path / "out"
    graph = ["--graph", c5_file] if argv[0] == "cover" else []
    code, _, stderr = run(capsys, *argv, *graph, "--out", str(out))
    assert code == 1
    assert stderr.startswith("error:") and message in stderr
    assert not out.exists()
    assert calls == []


@pytest.mark.parametrize("command, beta", [
    ("cover", "inf"),
    ("cover", "nan"),
    ("cover", "1e308"),  # finite, but beta * 3 is not
    ("sweep", "inf"),
    ("sweep", "nan"),
])
def test_non_finite_beta_is_a_clean_error(tmp_path, capsys, c5_file, command, beta):
    out = tmp_path / "out"
    args = ["--graph", c5_file, "--k", "3"] if command == "cover" else ["--n", "7", "--trials", "1"]
    code, _, stderr = run(capsys, command, *args, "--beta", beta, "--out", str(out))
    assert code == 1
    assert stderr.startswith(f"error: beta * k must be finite, got beta = {float(beta)!r}")
    assert not out.exists()


@pytest.mark.parametrize("command", ["reduce", "cover", "sweep", "sweep-blank"])
@pytest.mark.parametrize("delta", ["inf", "nan"])
def test_non_finite_delta_is_a_clean_error(tmp_path, capsys, c5_file, command, delta):
    out = tmp_path / "out"
    args = {
        "reduce": ["reduce", "--graph", c5_file, "--k", "2"],
        "cover": ["cover", "--graph", c5_file, "--k", "3"],
        "sweep": ["sweep", "--n", "7", "--trials", "1"],
        # ceil(10k) blocks exceed every row's edges, so no row extracts a cover
        "sweep-blank": ["sweep", "--n", "7", "--trials", "1", "--beta", "10"],
    }[command]
    code, stdout, stderr = run(capsys, *args, "--delta", delta, "--out", str(out))
    assert code == 1
    assert stdout == ""
    assert stderr == f"error: delta must be non-negative and finite, got {float(delta)!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("points", [
    "[[0.0, 0.0], [Infinity, 1.0]]",  # json reads Infinity
    "[[1e200, 0.0], [0.5, 0.0], [-1e200, 0.0]]",  # finite, but the costs overflow
])
@pytest.mark.parametrize("objective", ["median", "means"])
def test_non_finite_instances_are_clean_errors(tmp_path, capsys, points, objective):
    inst = tmp_path / "inst.json"
    inst.write_text(f'{{"dimension": 2, "k": 1, "objective": "{objective}", "points": {points}}}')
    code, _, stderr = run(capsys, "oracle", "--graph", str(inst))
    assert code == 1
    assert stderr.startswith("error:")


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_verify_lemmas_passes_and_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    code1, _, _ = run(capsys, "verify-lemmas", "--max-edges", "4",
                      "--trials", "4", "--out", str(a))
    code2, _, _ = run(capsys, "verify-lemmas", "--max-edges", "4",
                      "--trials", "4", "--out", str(b))
    assert code1 == code2 == 0
    assert a.read_bytes() == b.read_bytes()
    report = json.loads(a.read_text())
    assert report["all_passed"] is True


def test_verify_lemmas_that_fails_writes_one_line_per_failure(tmp_path, capsys, monkeypatch):
    failed = {"name": "closed_forms", "passed": False, "checks": 3, "failures": ["a", "b"]}
    monkeypatch.setattr(suites, "suite_closed_forms", lambda: failed)
    out = tmp_path / "lemmas.json"
    code, _, stderr = run(capsys, "verify-lemmas", "--max-edges", "3", "--trials", "1",
                          "--out", str(out))
    assert code == 1
    assert stderr.splitlines() == ["closed_forms: a", "closed_forms: b"]
    assert json.loads(out.read_text())["all_passed"] is False


def test_verify_lemmas_has_no_tolerance_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-lemmas", "--tol", "1e-3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_median_has_no_tolerance_flag(capsys, c5_file):
    with pytest.raises(SystemExit) as exc:
        main(["median", "--graph", c5_file, "--tol", "1e-3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_sweep_has_no_max_edges_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--max-edges", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-edges" in capsys.readouterr().err


def test_cover_at_beta_above_one_is_frozen(capsys, c5_file):
    # five blocks for k = 3: the oracle's clustering is all single edges, so
    # the procedures fallback covers the whole graph; its cover is no
    # smaller than the union, M_P's endpoints pruned, so the union stays,
    # and the singles entry names it and holds M_P's endpoints
    code, stdout, _ = run(capsys, "cover", "--graph", c5_file, "--k", "3", "--beta", "1.5")
    assert code == 0
    single = {"constant": 0.67, "slope": 0, "extra": 0, "charge": 0.67, "kept": None,
              "case": None, "kind": "single", "matching_number": 1, "cover": []}
    assert json.loads(stdout) == {
        "beta": 1.5,
        "cover": [0, 2, 3],
        "delta": 0.01,
        "epsilon": 0.8033333333333335,
        "min_vertex_cover": 3,
        "oracle_cost": 0.0,
        "per_cluster": [{**single, "edges": [i]} for i in range(5)] + [
            {
                "case": None,
                "charge": 0.24,
                "constant": 0.24,
                "cover": [0, 1, 2, 3],
                "edges": [0, 1, 2, 3, 4],
                "extra": 0,
                "kept": "union",
                "kind": "singles",
                "matching_number": 0,
                "slope": 0,
            }
        ],
        "predicted_ceiling": 3.59,
        "procedures_path": "procedures_fallback",
        "t1": 5,
        "t2": 0,
        "t3": 0,
        "t4": 0,
        "total_cover_size": 3,
    }


def test_sweep_leaves_the_cover_columns_blank_when_the_blocks_exceed_the_edges(capsys):
    # ceil(3k) blocks exceed m on three of the four graphs
    code, stdout, _ = run(capsys, "sweep", "--n", "7", "--trials", "4", "--beta", "3")
    assert code == 0
    assert stdout.split("\n")[1:] == [
        "0,0,7,10,4,12,8.0,7.348469228349534,true,6.0,6.0,true,,,,,,,",
        "1,1,7,10,4,12,8.0,7.348469228349534,true,6.0,6.0,true,,,,,,,",
        "2,2,7,9,3,9,7.5,7.348469228349534,true,6.0,6.0,true,0.0,true,3,true,true,,direct",
        "3,3,7,10,4,12,8.0,7.348469228349534,true,6.0,6.0,true,,,,,,,",
        "",
    ]


def test_sweep_is_deterministic_and_verdicts_hold(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--n", "7", "--d", "3", "--trials", "4", "--seed", "2"]
    code1, _, _ = run(capsys, *args, "--out", str(a))
    code2, _, _ = run(capsys, *args, "--out", str(b))
    assert code1 == code2 == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header[:6] == ["trial", "seed", "n", "m", "k", "blocks"]
    assert len(lines) == 5
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        assert row["median_complete"] == "true"
        assert row["means_complete"] == "true"
        if row["cover_valid"]:
            assert row["cover_valid"] == "true"
            assert row["beta_monotone"] == "true"


def test_sweep_with_a_false_verdict_writes_its_rows_and_fails(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "median_complete", lambda cost, m, k: False)
    out = tmp_path / "sweep.csv"
    code, _, stderr = run(capsys, "sweep", "--n", "7", "--trials", "2", "--out", str(out))
    assert code == 1
    lines = out.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert [row["median_complete"] for row in rows] == ["false", "false"]
    assert stderr.splitlines() == [
        f"sweep: trial {row['trial']} (seed {row['seed']}): median_complete is false"
        for row in rows
    ]


def test_sweep_checks_the_ceiling_for_means_only(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "cover_le_ceiling", lambda size, ceiling: False)
    columns = {}
    for objective in ("median", "means"):
        out = tmp_path / f"{objective}.csv"
        code, _, stderr = run(capsys, "sweep", "--n", "7", "--trials", "2",
                              "--objective", objective, "--out", str(out))
        lines = out.read_text().strip().split("\n")
        header = lines[0].split(",")
        columns[objective] = (code, [dict(zip(header, l.split(",")))["cover_le_ceiling"]
                                     for l in lines[1:]])
        assert stderr.count("cover_le_ceiling is false") == (2 if objective == "means" else 0)
    assert columns == {"median": (0, ["", ""]), "means": (1, ["false", "false"])}


def test_sweep_that_falls_short_of_its_trials_is_an_error(tmp_path, capsys):
    # 3 vertices at max degree 1 give single edges, which the sweep skips
    out = tmp_path / "short.csv"
    code, _, stderr = run(capsys, "sweep", "--n", "3", "--d", "1", "--trials", "2",
                          "--out", str(out))
    assert code == 1
    assert "produced 0 of 2" in stderr
    assert not out.exists()
