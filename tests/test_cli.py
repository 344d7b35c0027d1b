import functools
import gc
import json
from pathlib import Path

import pytest

from helpers import ci_file_text
from cigrid import verify
from cigrid.cli import main
from cigrid.hypergraph import GridSpec, grid_ci_correspondence, grid_hypergraph, hypergraph_ideal
from cigrid.ideals import DEFAULT_MAX_DEGREE, DEFAULT_MAX_PAIRS
from cigrid.poly import parse_polynomial
from cigrid.report import FAIL, INCONCLUSIVE, PASS, CheckResult, WitnessReport


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GRID_4x7 = (
    "1 5 9 13 17 21 25\n"
    "2 6 10 14 18 22 26\n"
    "3 7 11 15 19 23 27\n"
    "4 8 12 16 20 24 28\n"
)


def test_grid_matrix_golden(capsys):
    code, out, _ = run(capsys, "grid", "--k", "4", "--l", "7")
    assert code == 0
    assert out == GRID_4x7


def test_grid_edges_output(capsys):
    code, out, _ = run(capsys, "grid", "--k", "3", "--l", "4", "--s", "3", "--t", "3", "--edges")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "12"
    assert len(lines) == 17


def test_grid_json(capsys):
    code, out, _ = run(capsys, "grid", "--k", "2", "--l", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["matrix"] == [[1, 3], [2, 4]]


def test_ideal_grid_generator_count(capsys):
    code, out, _ = run(
        capsys, "ideal", "--grid", "--s", "3", "--t", "3", "--k", "3", "--l", "4", "--d", "3"
    )
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln]
    assert len(lines) == 16
    ring = hypergraph_ideal(grid_hypergraph(GridSpec(k=3, l=4, s=3, t=3, d=3)), 3).ring
    parsed = {parse_polynomial(ln, ring) for ln in lines}
    assert len(parsed) == 16


def test_ideal_ci_file_matches_grid_route_up_to_renaming(tmp_path, capsys):
    spec = GridSpec(k=3, l=4, s=3, t=3, d=3)
    model, statements = grid_ci_correspondence(spec)
    ci_path = tmp_path / "eq.ci"
    ci_path.write_text(ci_file_text(model, statements))
    code, out, _ = run(capsys, "ideal", "--ci", str(ci_path))
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln]
    assert len(lines) == 16
    assert all("p_" in ln for ln in lines)


def test_ideal_empty_hypergraph(tmp_path, capsys):
    hg = tmp_path / "empty.hg"
    hg.write_text("5\n")
    code, out, _ = run(capsys, "ideal", "--hypergraph", str(hg), "--d", "2")
    assert code == 0
    assert out == ""


def test_ideal_cas_export(capsys):
    code, out, _ = run(
        capsys, "ideal", "--grid", "--s", "2", "--t", "2", "--k", "2", "--l", "2", "--d", "2",
        "--format", "cas",
    )
    assert code == 0
    assert out.startswith("ring R = QQ[")
    assert "ideal I =" in out


def test_ideal_requires_exactly_one_source(capsys):
    code, _, err = run(capsys, "ideal", "--grid", "--ci", "nope")
    assert code == 2
    assert "exactly one" in err


def test_unknown_name_errors_print_without_repr_quotes(tmp_path, capsys):
    ci = tmp_path / "undeclared.ci"
    ci.write_text("X=2 Y=2\nX _||_ Y | Z\n")
    code, out, err = run(capsys, "ideal", "--ci", str(ci))
    assert (code, out, err) == (2, "", "error: no variable named 'Z'\n")
    pm = tmp_path / "unknown.map"
    pm.write_text("params u_1\ncoord a u_1 * v_1\n")
    code, out, err = run(capsys, "matroid", "--parametrization", str(pm))
    misfit = "does not fit the format `coord <label> <polynomial>` in the `params` variables"
    assert (code, out, err) == (2, "", f"error: parametrization line 'coord a u_1 * v_1' {misfit}\n")


def test_matroid_identity_matrix(tmp_path, capsys):
    mat = tmp_path / "id.mat"
    mat.write_text("3 3\n1 0 0\n0 1 0\n0 0 1\n")
    code, out, _ = run(capsys, "matroid", "--matrix", str(mat))
    assert code == 0
    assert "rank 3" in out
    assert "circuit" not in out


def test_matroid_concurrent_lines_matrix(tmp_path, capsys):
    mat = tmp_path / "lines.mat"
    mat.write_text(
        "3 7\n"
        "1 1 2 1 3 3 1\n"
        "0 1 3 0 0 1 3\n"
        "0 0 0 1 1 1 3\n"
    )
    code, out, _ = run(capsys, "matroid", "--matrix", str(mat))
    assert code == 0
    assert "circuit 1 2 3" in out
    assert "circuit 1 4 5" in out
    assert "circuit 1 6 7" in out
    # three collinear triples plus the 35 - 12 four-subsets not containing one
    assert out.count("circuit") == 26
    assert "signature points 7 lines 3" in out


def test_matroid_parametrization(tmp_path, capsys):
    pm = tmp_path / "segre.map"
    pm.write_text(
        "params u_1 u_2 v_1 v_2\n"
        "coord 11 u_1 * v_1\n"
        "coord 12 u_1 * v_2\n"
        "coord 21 u_2 * v_1\n"
        "coord 22 u_2 * v_2\n"
    )
    code, out, _ = run(capsys, "matroid", "--parametrization", str(pm), "--seed", "5")
    assert code == 0
    assert "circuit 1 2 3 4" in out
    assert "coordinates 11 12 21 22" in out


def test_matroid_grid_realization(capsys):
    code, out, _ = run(
        capsys, "matroid", "--grid", "--s", "3", "--t", "3", "--k", "3", "--l", "3", "--d", "3",
        "--seed", "7",
    )
    assert code == 0
    assert "ground 9" in out and "rank 3" in out
    assert out.count("circuit") == 96


def test_verify_subcommand_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "terracini", "--seed", "3")
    assert code == 0
    assert "status: pass" in out

    code, out, _ = run(
        capsys, "verify", "example31", "--trials", "2", "--seed", "1",
        "--max-pairs", "5", "--max-degree", "8",
    )
    assert code == 3
    assert "status: inconclusive" in out


def test_verify_theorem32_regime_violation_is_usage_error(capsys):
    code, _, err = run(
        capsys, "verify", "theorem32", "--s", "3", "--t", "3", "--k", "3", "--l", "3", "--d", "4"
    )
    assert code == 2
    assert "realization needs" in err


def test_a_grid_spec_reaches_users_as_its_repr_and_its_fields(capsys):
    """The one repr users see, and the `vars(spec)` payloads of the grid
    hypergraph and the grid matroid, byte for byte (the JSON sorts keys)."""
    code, out, err = run(capsys, "verify", "theorem32", "--k", "2", "--l", "2", "--s", "2", "--t", "2", "--d", "2")
    assert (code, out) == (2, "")
    assert err.endswith("; got GridSpec(k=2, l=2, s=2, t=2, d=2)\n") and err.count("\n") == 1
    code, out, _ = run(capsys, "grid", "--k", "3", "--l", "4", "--s", "3", "--t", "2", "--edges", "--json")
    assert code == 0
    assert out.endswith('  "n": 12,\n  "spec": {\n    "d": 0,\n    "k": 3,\n    "l": 4,\n    "s": 3,\n    "t": 2\n  }\n}\n')
    code, out, _ = run(capsys, "matroid", "--grid", "--k", "3", "--l", "4", "--s", "3", "--t", "3", "--d", "3", "--seed", "7", "--json")
    assert code == 0
    assert out.endswith(
        '  "source": {\n    "grid": {\n      "d": 3,\n      "k": 3,\n      "l": 4,\n      "s": 3,\n      "t": 3\n    },\n    "seed": 7\n  }\n}\n'
    )


def test_verify_reports_are_byte_identical_for_equal_seeds(capsys):
    _, out1, _ = run(capsys, "verify", "example32", "--trials", "5", "--seed", "9")
    _, out2, _ = run(capsys, "verify", "example32", "--trials", "5", "--seed", "9")
    assert out1 == out2
    _, json1, _ = run(capsys, "verify", "example32", "--trials", "5", "--seed", "9", "--json")
    _, json2, _ = run(capsys, "verify", "example32", "--trials", "5", "--seed", "9", "--json")
    assert json1 == json2


def test_out_directory_layout(tmp_path, capsys):
    out_dir = tmp_path / "artifacts"
    code, out, _ = run(
        capsys, "verify", "terracini", "--seed", "2", "--out", str(out_dir)
    )
    assert code == 0
    assert out == ""
    assert (out_dir / "report.txt").exists()
    assert (out_dir / "report.json").exists()
    payload = json.loads((out_dir / "report.json").read_text())
    assert payload["status"] == "pass"
    assert payload["seed"] == 2


def test_secant_subcommand(capsys):
    code, out, _ = run(capsys, "secant", "--m", "3", "--n", "3", "--k", "2", "--seed", "4")
    assert code == 0
    assert "cone-dimension 8" in out
    assert "projective-dimension 7" in out


def test_rigidity_subcommand(capsys):
    code, out, _ = run(capsys, "rigidity", "--n", "4", "--d", "2", "--seed", "3")
    assert code == 0
    assert "status: pass" in out
    assert "rank" in out


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m = 3\nn = 3\nk = 1\nseed = 8\n")
    code, out, _ = run(capsys, "secant", "--config", str(cfg))
    assert code == 0
    assert "cone-dimension 5" in out
    # explicit flags win over the config file
    code, out, _ = run(capsys, "secant", "--config", str(cfg), "--k", "2")
    assert code == 0
    assert "cone-dimension 8" in out


@pytest.mark.parametrize("explicit", [["--k", "2"], ["--k=2"]])
def test_an_explicit_flag_beats_the_config_file_in_any_spelling(tmp_path, capsys, explicit):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k = 3\n")
    code, out, _ = run(capsys, "secant", "--m", "3", "--n", "3", *explicit, "--config", str(cfg))
    assert code == 0
    assert "\nk 2\n" in out and "cone-dimension 8" in out


def test_an_abbreviated_flag_beats_the_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("max_pairs = 10\ntrials = 2\n")
    code, out, _ = run(capsys, "verify", "example31", "--max-p", "30", "--config", str(cfg))
    assert code == 0
    assert "budget max_pairs: 30\n" in out and "trials: 2\n" in out


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "not-a-name"])
    assert exc.value.code == 2


def test_verify_theorem32_passes_with_explicit_flags(capsys):
    code, out, _ = run(
        capsys, "verify", "theorem32", "--s", "3", "--t", "3", "--k", "3", "--l", "3", "--d", "3",
        "--seed", "7",
    )
    assert code == 0
    assert "status: pass" in out


def test_every_subcommand_has_help(capsys):
    for cmd in ["grid", "ideal", "matroid", "verify", "secant", "rigidity"]:
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out


def test_matroid_refuses_ground_sets_over_the_enumeration_cap(tmp_path, capsys):
    mat = tmp_path / "wide.mat"
    n = 17
    rows = ["2 " + str(n)] + [" ".join(str((i * j) % 5 + 1) for j in range(n)) for i in range(2)]
    mat.write_text("\n".join(rows) + "\n")
    code, _, err = run(capsys, "matroid", "--matrix", str(mat))
    assert code == 2
    assert "capped" in err


def test_rigidity_framework_file(tmp_path, capsys):
    fw = tmp_path / "triangle.fw"
    fw.write_text("3 2\n0 0\n1 0\n0 1\n1 2\n1 3\n2 3\n")
    code, out, _ = run(capsys, "rigidity", "--framework", str(fw))
    assert code == 0
    assert "rank 3" in out and "edges 3" in out


def test_matroid_grid_realization_is_seed_deterministic(capsys):
    argv = ["matroid", "--grid", "--s", "3", "--t", "3", "--k", "3", "--l", "3", "--d", "3", "--seed", "4"]
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_rejects_trials_below_one(capsys, trials):
    code, out, err = run(capsys, "verify", "example32", "--trials", trials)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "--trials must be at least 1" in err


@pytest.mark.parametrize("flag, value", [("--max-pairs", "-1"), ("--max-degree", "-3")])
def test_verify_rejects_negative_groebner_budgets(capsys, flag, value):
    code, out, err = run(capsys, "verify", "example31", "--trials", "2", flag, value)
    assert (code, out, err) == (2, "", f"error: {flag} must be at least 0\n")


@pytest.mark.parametrize("line, flag", [("max_pairs = -4", "--max-pairs"), ("max_degree = -1", "--max-degree")])
def test_verify_rejects_negative_groebner_budgets_from_a_config_file(tmp_path, capsys, line, flag):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"trials = 2\n{line}\n")
    code, out, err = run(capsys, "verify", "example31", "--config", str(cfg))
    assert (code, out, err) == (2, "", f"error: {flag} must be at least 0\n")


def test_verify_takes_zero_groebner_budgets(capsys):
    # zero is a budget, not an error: the reverse containment is inconclusive
    code, out, err = run(capsys, "verify", "example31", "--trials", "2", "--max-pairs", "0", "--max-degree", "0")
    assert (code, err) == (3, "")
    assert "inconclusive" in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["secant", "--m", "0", "--n", "3", "--k", "1"], "need m, n >= 1"),
        (["secant", "--m", "3", "--n", "0", "--k", "1"], "need m, n >= 1"),
        (["ideal", "--grid", "--k", "2", "--l", "2", "--s", "2", "--t", "2", "--d", "0"], "need d >= 1"),
        (["ideal", "--grid", "--k", "2", "--l", "2", "--s", "2", "--t", "2", "--d", "-1", "--format", "cas"], "need d >= 1"),
    ],
)
def test_degenerate_sizes_are_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and message in err


@pytest.mark.parametrize("header", ["-3", "0"])
def test_hypergraph_file_needs_a_positive_vertex_count(tmp_path, capsys, header):
    hg = tmp_path / "bad.hg"
    hg.write_text(f"{header}\n")
    code, out, err = run(capsys, "ideal", "--hypergraph", str(hg), "--d", "2")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "hypergraph needs n >= 1" in err


@pytest.mark.parametrize("header", ["2", "2 2 2", "-1 2", "2 x"])
def test_matrix_file_needs_a_two_integer_header(tmp_path, capsys, header):
    mat = tmp_path / "bad.mat"
    mat.write_text(f"{header}\n1 0\n0 1\n")
    code, out, err = run(capsys, "matroid", "--matrix", str(mat))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "`d n` header of two non-negative integers" in err


@pytest.mark.parametrize("header", ["0 3", "0 0"])
def test_matrix_file_with_no_rows_is_rejected(tmp_path, capsys, header):
    # with d = 0 the header's n columns (zero columns, so loops) would be lost
    mat = tmp_path / "empty.mat"
    mat.write_text(f"{header}\n")
    code, out, err = run(capsys, "matroid", "--matrix", str(mat))
    assert (code, out) == (2, "")
    assert err == f"error: matrix header '{header}' has d = 0 rows; a matrix file needs d >= 1\n"


def test_zero_matrix_columns_are_loops(tmp_path, capsys):
    mat = tmp_path / "zero.mat"
    mat.write_text("2 3\n0 0 0\n0 0 0\n")
    code, out, _ = run(capsys, "matroid", "--matrix", str(mat))
    assert code == 0
    assert out.splitlines()[:5] == ["ground 3", "rank 0", "circuit 1", "circuit 2", "circuit 3"]


@pytest.mark.parametrize(
    "argv, text, line, fmt",
    [
        (["ideal", "--d", "2", "--hypergraph"], "3 4\n1 2\n", "'3 4'", "an `n` line, then one edge of vertex numbers per line"),
        (["ideal", "--d", "2", "--hypergraph"], "3\n1 1/2\n", "'1 1/2'", "an `n` line, then one edge of vertex numbers per line"),
        (["ideal", "--d", "3", "--hypergraph"], "4\n1 2\n1 2 2 3\n", "'1 2 2 3'", "repeats a vertex; an edge lists each vertex once"),
        (["rigidity", "--framework"], "4 x\n0 0\n", "'4 x'", "`n d` header of two non-negative integers"),
        (["ideal", "--ci"], "X=a Y=2\nX _||_ Y\n", "'X=a'", "name=states with an integer state count"),
        (["ideal", "--ci"], "X Y=2\nX _||_ Y\n", "'X'", "name=states with an integer state count"),
        (["ideal", "--ci"], "X=2 Y=2 *=2\nX _||_ Y\n", "'*=2'", "has no variable name"),
        (["ideal", "--ci"], "=3 X=2 Y=2\nX _||_ Y\n", "'=3'", "has no variable name"),
        (["ideal", "--ci"], "X=2 Y=2 H**=2\nX _||_ Y | H\n", "'H**=2'", "one trailing * marks a hidden variable"),
        (["ideal", "--ci"], "*H=2 X=2 Y=2\nX _||_ Y | H\n", "'*H=2'", "one trailing * marks a hidden variable"),
        (["ideal", "--ci"], "X=2 Y=2 Z=2\nX* _||_ Y | Z\n", "'X*'", "no variable named"),
        (["ideal", "--ci"], "X=2 Y=2 H1*=2\nX _||_ Y | H1**\n", "'H1**'", "no variable named"),
        (["ideal", "--ci"], "# no statement\nX=2 Y=2\n", "'X=2 Y=2'", "at least one `A _||_ B | C` line"),
        (["matroid", "--matrix"], "2 2\n1 x\n0 1\n", "'1 x'", "then one row of n rationals per line"),
        (["matroid", "--matrix"], "2 2\n1 0\n1/0 1\n", "'1/0 1'", "then one row of n rationals per line"),
        (["rigidity", "--framework"], "2 2\n0 0\n1 x\n1 2\n", "'1 x'", "n coordinate lines of d rationals"),
        (["matroid", "--parametrization"], "params u_1\ncoord a 1/0 * u_1\n", "'coord a 1/0 * u_1'", "`coord <label> <polynomial>`"),
        (["matroid", "--parametrization"], "params u_1\ncoord a x_9\n", "'coord a x_9'", "`coord <label> <polynomial>`"),
        (["matroid", "--parametrization"], "params\ncoord a 2\n", "'params'", "`params <variable> ...`"),
        (["matroid", "--parametrization"], "params 1x\ncoord a 2\n", "'params 1x'", "`params <variable> ...`"),
        (["matroid", "--parametrization"], "paramsu_1 u_2\ncoord a u_2\n", "'paramsu_1 u_2'", "`params <variable> ...`"),
        (["matroid", "--parametrization"], "params u_1\ncoord a 2 ** u_1\n", "'coord a 2 ** u_1'", "`coord <label> <polynomial>`"),
        (["matroid", "--parametrization"], "params u_1\ncoord a u_1\ncoord a u_1 * u_1\n", "'coord a u_1 * u_1'", "`coord <label> <polynomial>`"),
        (["matroid", "--parametrization"], "params u_1 u_01\ncoord a u_1\n", "'params u_1 u_01'", "repeats parameter 'u_01'"),
        (["matroid", "--parametrization"], "params u_1 u_2\ncoord a u_01 - u_1\n", "'coord a u_01 - u_1'", "spells parameter 'u_1' as 'u_01'"),
        (["matroid", "--parametrization"], "params u_1 u_2\n\n", "'params u_1 u_2'", "no `coord <label> <polynomial>` line after it; at least one"),
    ],
    ids=[
        "hypergraph-header",
        "hypergraph-edge",
        "hypergraph-repeated-vertex",
        "framework-header",
        "ci-state-count",
        "ci-no-state-count",
        "ci-hidden-no-name",
        "ci-no-name",
        "ci-hidden-double-star",
        "ci-hidden-leading-star",
        "ci-starred-observed",
        "ci-statement-double-star",
        "ci-no-statement",
        "matrix-entry",
        "matrix-zero-denominator",
        "framework-coordinate",
        "parametrization-zero-denominator",
        "parametrization-unknown-variable",
        "parametrization-no-parameter",
        "parametrization-bad-parameter",
        "parametrization-bad-keyword",
        "parametrization-bad-factor",
        "parametrization-repeated-label",
        "parametrization-repeated-parameter",
        "parametrization-respelled-parameter",
        "parametrization-no-coordinate",
    ],
)
def test_malformed_file_names_its_line_and_format(tmp_path, capsys, argv, text, line, fmt):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and line in err and fmt in err
    assert "invalid literal" not in err


def test_hypergraph_ideal_rejects_zero_rows(tmp_path, capsys):
    hg = tmp_path / "one.hg"
    hg.write_text("3\n1 2\n")
    code, out, err = run(capsys, "ideal", "--hypergraph", str(hg), "--d", "0")
    assert code == 2
    assert out == ""
    assert "need d >= 1" in err


@pytest.mark.parametrize(
    "target, argv",
    [
        ("realize_grid_matroid", ["matroid", "--grid", "--s", "3", "--t", "3", "--k", "3", "--l", "3", "--d", "3"]),
        ("secant_dimension", ["secant", "--m", "3", "--n", "3", "--k", "2"]),
        ("generic_rigidity_check", ["rigidity", "--n", "4", "--d", "2"]),
    ],
)
def test_genericity_failure_is_inconclusive_not_a_traceback(monkeypatch, capsys, target, argv):
    from cigrid import cli
    from cigrid.sampling import GenericityError

    def disagree(*args, **kwargs):
        raise GenericityError("draws kept disagreeing")

    monkeypatch.setattr(cli, target, disagree)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err == "error: draws kept disagreeing\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("4 2\n0 0\n1 0\n1 2\n", "header says 4 vertices"),
        ("3 2\n0 0\n1 0 5\n0 1\n1 2\n", "coordinate line 2 has 3 entries"),
        ("3 3\n0 0 0\n1 0 0\n0 1 0\n1 2 3\n", "is not two endpoints in 1..3"),
        ("3 2\n0 0\n1 0\n0 1\n1 4\n", "is not two endpoints in 1..3"),
        ("3 2\n0 0\n1 0\n0 1\n1/2 3\n", "is not two endpoints in 1..3"),
        ("2 2\n0 0\n1 0\n0 1\n", "is not two endpoints in 1..2"),
    ],
    ids=["too-few-lines", "long-coordinate-line", "three-endpoints", "endpoint-out-of-range", "fraction-endpoint", "extra-coordinate-line"],
)
def test_rigidity_framework_file_must_match_its_header(tmp_path, capsys, text, message):
    fw = tmp_path / "bad.fw"
    fw.write_text(text)
    code, out, err = run(capsys, "rigidity", "--framework", str(fw))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and message in err


# The verify flags each campaign takes; "grid" stands for --k/--l/--s/--t/--d.
CAMPAIGN_FLAGS = {
    "example31": {"--trials", "--max-pairs", "--max-degree"},
    "example32": {"--trials"},
    "intersection-axiom": {"--trials", "grid"},
    "theorem32": {"grid"},
    "rigidity": set(),
    "terracini": set(),
}
# flag -> (argv, campaign parameter, value the campaign must receive)
FLAG_VALUES = {
    "--trials": (("--trials", "2"), "trials", 2),
    "--max-pairs": (("--max-pairs", "50"), "max_pairs", 50),
    "--max-degree": (("--max-degree", "12"), "max_degree", 12),
    "grid": (("--k", "3", "--l", "4", "--s", "3", "--t", "3", "--d", "3"), "spec", GridSpec(k=3, l=4, s=3, t=3, d=3)),
}


def test_flag_table_lists_every_campaign():
    assert sorted(CAMPAIGN_FLAGS) == sorted(verify.VERIFICATIONS)


@pytest.mark.parametrize("flag", sorted(FLAG_VALUES))
@pytest.mark.parametrize("name", sorted(CAMPAIGN_FLAGS))
def test_verify_flag_is_accepted_exactly_when_the_campaign_takes_it(monkeypatch, capsys, name, flag):
    seen = {}

    @functools.wraps(verify.VERIFICATIONS[name])  # keeps the campaign's signature
    def record(**kwargs):
        seen.update(kwargs)
        return WitnessReport(name=name, seed=kwargs["seed"], trials=1)

    monkeypatch.setitem(verify.VERIFICATIONS, name, record)
    argv, param, value = FLAG_VALUES[flag]
    code, out, err = run(capsys, "verify", name, *argv, "--seed", "4")
    if flag in CAMPAIGN_FLAGS[name]:
        assert (code, err) == (0, "")
        assert seen == {"seed": 4, param: value}
    else:
        assert (code, out, seen) == (2, "", {})
        assert err.count("\n") == 1 and f"verify {name} does not take {argv[0]}" in err


def test_a_campaign_wrapped_by_a_tracer_keeps_its_flags(monkeypatch, capsys):
    """A `functools.wraps` wrapper, as `bench/tracing.py` puts around each
    campaign, takes *args and **kwargs; the CLI reads the campaign's own
    keyword parameters through `__wrapped__`."""
    campaign = verify.verify_three_lines_decomposition
    calls = []

    @functools.wraps(campaign)
    def traced(*args, **kwargs):
        calls.append(kwargs)
        return campaign(*args, **kwargs)

    monkeypatch.setitem(verify.VERIFICATIONS, "example31", traced)
    code, out, err = run(capsys, "verify", "example31", "--trials", "5", "--seed", "3")
    assert (code, err) == (0, "") and "trials: 5" in out
    assert calls == [{"seed": 3, "trials": 5}]
    code, out, err = run(capsys, "verify", "example31", "--trials", "5", "--k", "3")
    assert (code, out) == (2, "")
    assert err == "error: verify example31 does not take --k\n"
    assert len(calls) == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "terracini", "--trials", "5"], "verify terracini does not take --trials"),
        (["verify", "example32", "--max-pairs", "1"], "verify example32 does not take --max-pairs"),
        (["verify", "example31", "--k", "3"], "verify example31 does not take --k"),
        (["verify", "rigidity", "--trials", "3", "--d", "2"], "verify rigidity does not take --trials, --d"),
        (["verify", "intersection-axiom", "--s", "2"], "missing grid flags: --k, --l, --t, --d"),
        (["verify", "theorem32", "--k", "3", "--l", "3"], "missing grid flags: --s, --t, --d"),
    ],
)
def test_verify_refuses_flags_instead_of_dropping_them(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_verify_refuses_a_flag_that_comes_from_a_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trials = 5\n")
    code, out, err = run(capsys, "verify", "terracini", "--config", str(cfg))
    assert (code, out, err) == (2, "", "error: verify terracini does not take --trials\n")


def test_config_without_a_path_is_a_usage_error(capsys):
    code, out, err = run(capsys, "verify", "terracini", "--config")
    assert (code, out, err) == (2, "", "error: --config needs a file path\n")


@pytest.mark.parametrize("line", ["json", "trials", "= 5"])
def test_config_line_without_a_key_and_value_is_a_usage_error(tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"seed = 3\n{line}\n")
    code, out, err = run(capsys, "verify", "example32", "--config", str(cfg))
    assert (code, out, err) == (2, "", f"error: config line {line!r} in {cfg} is not `key = value`\n")


def test_verify_cli_and_library_share_one_budget_default(capsys):
    code, out, _ = run(capsys, "verify", "example31", "--trials", "2", "--seed", "1")
    assert code == 0
    assert out == verify.verify_three_lines_decomposition(trials=2, seed=1).to_text()
    assert f"budget max_pairs: {DEFAULT_MAX_PAIRS}\n" in out
    assert f"budget max_degree: {DEFAULT_MAX_DEGREE}\n" in out


def test_verify_all_writes_the_bytes_of_each_single_campaign(tmp_path, capsys):
    code, out, _ = run(capsys, "verify", "all", "--trials", "3", "--seed", "5", "--out", str(tmp_path / "all"))
    assert (code, out) == (0, "")
    assert sorted(p.name for p in (tmp_path / "all").iterdir()) == sorted(verify.VERIFICATIONS)
    for name in sorted(verify.VERIFICATIONS):
        trials = ["--trials", "3"] if "--trials" in CAMPAIGN_FLAGS[name] else []
        assert run(capsys, "verify", name, *trials, "--seed", "5", "--out", str(tmp_path / name))[0] == 0
        for stem in ("report.txt", "report.json"):
            assert (tmp_path / "all" / name / stem).read_bytes() == (tmp_path / name / stem).read_bytes()


def _campaign_with_status(status):
    def campaign(seed):
        report = WitnessReport(name=f"fake-{status}", seed=seed, trials=1)
        report.add(CheckResult("the only check", status))
        return report

    return campaign


def test_verify_all_exit_code_puts_a_failure_above_an_inconclusive(monkeypatch, capsys):
    for name in verify.VERIFICATIONS:
        monkeypatch.setitem(verify.VERIFICATIONS, name, _campaign_with_status(PASS))
    monkeypatch.setitem(verify.VERIFICATIONS, "example32", _campaign_with_status(FAIL))
    monkeypatch.setitem(verify.VERIFICATIONS, "terracini", _campaign_with_status(INCONCLUSIVE))
    code, out, _ = run(capsys, "verify", "all", "--seed", "6")
    assert code == 1
    expected = [verify.VERIFICATIONS[name](seed=6) for name in sorted(verify.VERIFICATIONS)]
    assert out == "".join(report.to_text() for report in expected)

    code, out, _ = run(capsys, "verify", "all", "--seed", "6", "--json")
    assert code == 1
    payload = json.loads(out)
    assert list(payload) == sorted(verify.VERIFICATIONS)
    assert payload["example32"]["status"] == FAIL and payload["terracini"]["status"] == INCONCLUSIVE

    monkeypatch.setitem(verify.VERIFICATIONS, "example32", _campaign_with_status(PASS))
    assert run(capsys, "verify", "all")[0] == 3


INPUTS = Path(__file__).resolve().parent.parent / "bench" / "inputs"
GRID_FLAGS_3x4 = ("--k", "3", "--l", "4", "--s", "3", "--t", "3", "--d", "3")
# Each command, the stem of the artifacts it writes under --out, and the
# input file it reads from the test's directory, if any.
WRITER_CASES = {
    "grid": (("grid", "--k", "3", "--l", "4"), "grid", None),
    "grid-edges": (("grid", "--k", "3", "--l", "4", "--s", "3", "--t", "3", "--edges"), "edges", None),
    "ideal-grid": (("ideal", "--grid", *GRID_FLAGS_3x4), "generators", None),
    "ideal-cas": (("ideal", "--grid", *GRID_FLAGS_3x4, "--format", "cas"), "generators_cas", None),
    "ideal-ci": (("ideal", "--ci", str(INPUTS / "grid4x6.ci")), "generators", None),
    "ideal-hypergraph": (("ideal", "--hypergraph", str(INPUTS / "cyclic10.hg"), "--d", "5"), "generators", None),
    "matroid-grid": (("matroid", "--grid", *GRID_FLAGS_3x4), "matroid", None),
    "matroid-matrix": (("matroid", "--matrix", "in.txt"), "matroid", "3 4\n1 0 0 1\n0 1 0 1/2\n0 0 1 -1\n"),
    "matroid-parametrization": (("matroid", "--parametrization", str(INPUTS / "segre3x4.map")), "matroid", None),
    "secant": (("secant", "--m", "3", "--n", "3", "--k", "2"), "secant", None),
    "rigidity-complete": (("rigidity", "--n", "5", "--d", "2"), "report", None),
    "rigidity-framework": (("rigidity", "--framework", "in.txt"), "rigidity", "3 2\n0 0\n1 0\n0 1\n1 2\n2 3\n1 3\n"),
    **{
        f"verify-{name}": (("verify", name, *(("--trials", "3") if "--trials" in flags else ())), "report", None)
        for name, flags in CAMPAIGN_FLAGS.items()
    },
}


@pytest.mark.parametrize("case", sorted(WRITER_CASES))
def test_stdout_is_the_file_the_one_writer_puts_under_out(tmp_path, monkeypatch, capsys, case):
    """--json prints the bytes of <stem>.json, and plain output those of
    <stem>.txt, that the same command writes under --out."""
    argv, stem, text = WRITER_CASES[case]
    monkeypatch.chdir(tmp_path)
    if text is not None:
        Path("in.txt").write_text(text)
    code, out, _ = run(capsys, *argv, "--seed", "4", "--out", "out")
    assert out == ""
    assert sorted(p.name for p in Path("out").iterdir()) == [f"{stem}.json", f"{stem}.txt"]
    assert run(capsys, *argv, "--seed", "4", "--json") == (code, Path("out", f"{stem}.json").read_text(), "")
    assert run(capsys, *argv, "--seed", "4") == (code, Path("out", f"{stem}.txt").read_text(), "")


def test_repeated_calls_leave_no_parser_for_the_cyclic_collector(capsys):
    """The parser is built once per process; a fresh one per call left some
    450 objects in reference cycles, and a process calling `main` many times
    held them until a full collection."""
    run(capsys, "grid", "--k", "2", "--l", "2")
    gc.collect()
    gc.disable()
    try:
        run(capsys, "grid", "--k", "2", "--l", "2")
        assert gc.collect() < 100
    finally:
        gc.enable()
