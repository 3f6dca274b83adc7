import json
import time

import numpy as np
import pytest

from hypermono.cli import main
from hypermono.matrices import ComplexMatrix


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compute_n1(capsys):
    code, out, _ = run(["compute", "--alpha", "0", "--beta", "1/2", "--basis", "A"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["M0"] == [[[1.0, 0.0]]]
    assert payload["Minf"][0][0][0] == pytest.approx(-1.0)
    assert payload["alpha"] == ["0"]


def test_compute_resonant_upper_triangular(capsys):
    code, out, _ = run(
        ["compute", "--alpha", "0,0", "--beta", "1/4,1/2", "--basis", "A"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    M0 = ComplexMatrix.from_jsonable(payload["M0"]).entries
    assert np.allclose(M0, [[1, 1], [0, 1]])


def test_compute_roundtrip_bit_identical(capsys, tmp_path):
    out_path = tmp_path / "result.json"
    code = main(["compute", "--alpha", "1/3,2/3", "--beta", "1/4,1/2",
                 "--basis", "f", "--out", str(out_path)])
    assert code == 0
    payload = json.loads(out_path.read_text())
    from hypermono.exponents import validate_irreducible
    from hypermono.monodromy import monodromy_matrices
    from fractions import Fraction as F

    res = monodromy_matrices(
        validate_irreducible((F(1, 3), F(2, 3)), (F(1, 4), F(1, 2))), "f"
    )
    for key, mat in (("M0", res.m0), ("Minf", res.minf), ("Mlambda", res.mlambda)):
        parsed = ComplexMatrix.from_jsonable(payload[key]).entries
        assert np.array_equal(parsed, mat.entries)


def test_missing_beta_exits_2(capsys):
    code, _, err = run(["compute", "--alpha", "0"], capsys)
    assert code == 2
    assert "beta" in err


def test_resonant_input_exits_2(capsys):
    code, _, err = run(["compute", "--alpha", "1/3", "--beta", "4/3"], capsys)
    assert code == 2
    assert "integer" in err


def test_index_outside_double_range_exits_2(capsys):
    for text in ("inf", "-inf", "nan", "1e400"):
        for argv in (["compute", "--alpha", text, "--beta", "1/2"],
                     ["eval", "--what", "gamma", "--alpha", text, "--beta", "0",
                      "--s", "0.5"]):
            code, out, err = run(argv, capsys)
            assert code == 2
            assert out == ""
            assert repr(text) in err


def test_verify_cyclic_raw_values(capsys):
    code, out, _ = run(["verify", "--checks", "cyclic", "--A", "2,3", "--l", "1"], capsys)
    assert code == 0
    payload = json.loads(out)
    col = payload["cyclic_shape"]["details"]["companion_column"]
    assert np.allclose([c[0] for c in col], [5, -6], atol=1e-9)


def test_verify_ft_anchor(capsys):
    code, out, _ = run(["verify", "--checks", "ft", "--alpha", "0", "--beta", "1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["ft"]["pass"]
    assert payload["ft"]["residual"] <= 1e-8


def test_verify_identity_and_pseudoreflection(capsys):
    code, out, _ = run(
        ["verify", "--checks", "identity,pseudoreflection",
         "--alpha", "0,1/2", "--beta", "1/4,3/4"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["gamma_identity"]["pass"]
    assert payload["pseudoreflection"]["details"]["rank"] == 1


def test_verify_oracle_n1(capsys):
    code, out, _ = run(["verify", "--checks", "oracle", "--alpha", "0", "--beta", "1/2"], capsys)
    assert code == 0
    assert json.loads(out)["charpoly_M0"]["pass"]


def test_verify_unknown_check(capsys):
    code, _, err = run(["verify", "--checks", "bogus", "--alpha", "0", "--beta", "1/2"], capsys)
    assert code == 2
    assert "unknown check" in err


def test_eval_gamma(capsys):
    code, out, _ = run(
        ["eval", "--what", "gamma", "--alpha", "0", "--beta", "0", "--s", "0.5"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"][0][1] == pytest.approx(2 / np.pi, rel=1e-12)


def test_eval_f_anchor(capsys):
    code, out, _ = run(
        ["eval", "--what", "f", "--k", "0", "--alpha", "0", "--beta", "1",
         "--phi", "0"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"][0][1] == pytest.approx(2.0, rel=1e-12)


def test_eval_series_csv(capsys):
    code, out, _ = run(
        ["eval", "--what", "S_A", "--alpha", "0", "--beta", "1/2",
         "--j", "1", "--r", "0", "--z", "0.25", "--arg", "0", "--format", "csv"],
        capsys,
    )
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert lines[0].startswith("input")
    val = float(lines[1].split(",")[1])
    assert val == pytest.approx(1.2615662610100795, rel=1e-9)


def test_oracle_command(capsys):
    code, out, _ = run(["oracle", "--alpha", "0", "--beta", "1/2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert all(v["pass"] for v in payload.values())


def test_oracle_singular_transported_matrix_exits_3(capsys, monkeypatch):
    # a transport that returns zeros makes the transported M_lambda exactly
    # singular; numpy's LinAlgError is a ValueError but not an input error
    from hypermono import ode_oracle

    monkeypatch.setattr(ode_oracle, "transport", lambda sys, path, Y0: np.zeros_like(Y0))
    code, out, err = run(["oracle", "--alpha", "0,1/2", "--beta", "1/4,3/4"], capsys)
    assert code == 3 and out == ""
    assert "numerical failure" in err


def test_oracle_near_resonant_pair_exits_3(capsys):
    # cond(V_A) is about 6e9 here: the oracle must not pass the closed form
    code, _, _ = run(["oracle", "--alpha", "0,1e-10", "--beta", "1/4,1/2"], capsys)
    assert code == 3


def test_oracle_step_over_the_term_cap_exits_3(capsys, monkeypatch):
    from hypermono import ode_oracle

    monkeypatch.setattr(ode_oracle, "MAX_TERMS", 4)
    code, out, err = run(["oracle", "--alpha", "0,1/2", "--beta", "1/4,3/4"], capsys)
    assert code == 3 and out == ""
    assert "numerical failure" in err and "4 terms" in err


@pytest.mark.parametrize("command", ["compute", "verify", "oracle"])
def test_csv_format_is_eval_only(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--alpha", "0", "--beta", "1/2", "--format", "csv"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["oracle", "--alpha", "0", "--beta", "1/2", "--l", "3"],
    ["compute", "--alpha", "0", "--beta", "1/2", "--tol", "1e-3"],
])
def test_flags_a_command_ignores_are_refused(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_env_precision(monkeypatch, capsys):
    import hypermono.gammaprod as gp

    modes = []
    balanced_mp = gp._balanced_mp

    def spy(*args):
        modes.append(gp.get_precision())
        return balanced_mp(*args)

    monkeypatch.setattr(gp, "_balanced_mp", spy)
    monkeypatch.setenv("HYPERMONO_PRECISION", "extended")
    code, out, _ = run(
        ["eval", "--what", "gamma", "--alpha", "0", "--beta", "0", "--s", "0.5"], capsys
    )
    assert code == 0
    # the 30-digit path ran, and main restored the mode on return
    assert modes == ["extended"]
    assert gp.get_precision() == "double"
    payload = json.loads(out)
    assert payload["rows"][0][1] == pytest.approx(2 / np.pi, rel=1e-12)


def test_negative_leading_values_parse(capsys):
    code, out, _ = run(
        ["eval", "--what", "f", "--alpha", "0", "--beta", "1", "--k", "0",
         "--phi-grid", "-0.25,0,0.25"], capsys
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r[0] for r in rows] == [-0.25, 0.0, 0.25]
    code, out, _ = run(
        ["eval", "--what", "gamma", "--alpha", "0", "--beta", "0",
         "--s", "-3,-1,0.5"], capsys
    )
    assert code == 0
    assert len(json.loads(out)["rows"]) == 3


def test_eval_missing_point_flags(capsys):
    code, _, err = run(["eval", "--what", "gamma", "--alpha", "0", "--beta", "0"], capsys)
    assert code == 2 and "--s" in err
    code, _, err = run(
        ["eval", "--what", "S_A", "--alpha", "0", "--beta", "1/2", "--z", "0.25"],
        capsys,
    )
    assert code == 2 and "--arg" in err


def test_negative_tol_rejected(capsys):
    code, _, err = run(
        ["verify", "--checks", "identity", "--alpha", "0", "--beta", "1/2",
         "--tol", "-1"], capsys
    )
    assert code == 2


def test_mismatched_basis_is_an_input_error(capsys, monkeypatch):
    # a local basis of the wrong side reaching circle_basis_values is a
    # ValueError, which the CLI reports as exit 2
    from hypermono import circle_solutions, local_solutions

    monkeypatch.setattr(circle_solutions, "build_basis",
                        lambda data, side: local_solutions.build_basis(data, "infinity"))
    code, _, err = run(["eval", "--what", "f", "--alpha", "0,1/4,1/2,3/4",
                        "--beta", "1/8,3/8,5/8,7/8", "--k", "2", "--phi", "0.25"], capsys)
    assert code == 2
    assert "needs the 'zero' basis" in err


def test_tiny_index_exits_2_fast(capsys):
    # out-of-range text is refused before any long exact arithmetic
    for text in ("1e-10000000", "1e-400", "1/1" + "0" * 400):
        start = time.perf_counter()
        code, out, err = run(["compute", "--alpha", text, "--beta", "1/2"], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert repr(text) in err


def test_in_range_index_text_parses_exactly():
    from fractions import Fraction

    from hypermono.exponents import parse_index

    for text in ("1/3", "-0.25", " 7 ", "1e-300", "3e-324", "2.5e10", "1_000"):
        assert parse_index(text) == Fraction(text)
    assert parse_index("0e-10000000") == 0
    with pytest.raises(ValueError):
        parse_index("1/0")


@pytest.mark.parametrize("argv, named", [
    (["--what", "gamma", "--alpha", "0", "--beta", "0", "--s", "0.5",
      "--phi", "3", "--z", "9", "--k", "4"], ("--z", "--k", "--phi")),
    (["--what", "gamma", "--alpha", "0", "--beta", "0", "--s", "0.5", "--j", "1"],
     ("--j",)),
    (["--what", "S_A", "--alpha", "0", "--beta", "1/2", "--z", "0.25", "--arg", "0",
      "--s", "0.5"], ("--s",)),
    (["--what", "S_B", "--alpha", "0", "--beta", "1/2", "--z", "4", "--arg", "0",
      "--phi", "0.1"], ("--phi",)),
    (["--what", "f", "--alpha", "0", "--beta", "1", "--phi", "0.1", "--r", "0"],
     ("--r",)),
])
def test_eval_refuses_point_flags_its_what_does_not_read(argv, named, capsys):
    code, out, err = run(["eval", *argv], capsys)
    assert code == 2
    assert out == ""
    assert all(flag in err for flag in named)


def test_eval_point_flags_left_out_take_their_defaults(capsys):
    # --j, --r and --k default to 1, 0 and 0 for the --what that reads them
    s_a = ["eval", "--what", "S_A", "--alpha", "0", "--beta", "1/2", "--z", "0.25",
           "--arg", "0"]
    f = ["eval", "--what", "f", "--alpha", "0", "--beta", "1", "--phi", "-0.25,0.25"]
    for short, full in ((s_a, [*s_a, "--j", "1", "--r", "0"]), (f, [*f, "--k", "0"])):
        code, out, _ = run(short, capsys)
        assert code == 0
        assert (code, out) == run(full, capsys)[:2]


def test_verify_tol_needs_a_check_that_reads_it(capsys):
    base = ["verify", "--alpha", "0,1/2", "--beta", "1/4,3/4", "--tol", "1e-300"]
    code, out, err = run([*base, "--checks", "stirling,pseudoreflection"], capsys)
    assert code == 2 and out == ""
    assert "stirling" in err and "pseudoreflection" in err
    # a selection with a check that reads --tol runs, and that check fails
    code, out, _ = run([*base, "--checks", "stirling,identity"], capsys)
    assert code == 3
    assert not json.loads(out)["gamma_identity"]["pass"]


@pytest.mark.parametrize("argv, flag", [
    (["verify", "--checks", "identity", "--alpha", "0", "--beta", "1/2",
      "--tol", "nan"], "--tol"),
    (["verify", "--checks", "identity", "--alpha", "0", "--beta", "1/2",
      "--tol", "inf"], "--tol"),
    (["eval", "--what", "f", "--alpha", "0", "--beta", "1", "--k", "0",
      "--phi", "0.1,nan"], "--phi"),
    (["eval", "--what", "gamma", "--alpha", "0", "--beta", "0", "--s", "nan"], "--s"),
    (["eval", "--what", "gamma", "--alpha", "0", "--beta", "0", "--s", "1e400"], "--s"),
    (["eval", "--what", "S_A", "--alpha", "0", "--beta", "1/2", "--z", "nan",
      "--arg", "0"], "--z"),
    (["eval", "--what", "S_A", "--alpha", "0", "--beta", "1/2", "--z", "0.25",
      "--arg", "-inf"], "--arg"),
    (["verify", "--checks", "cyclic", "--A", "nan,2"], "--A"),
    # spellings with an i, and text that is no number at all
    (["eval", "--what", "gamma", "--alpha", "0", "--beta", "0", "--s", "inf"], "--s"),
    (["eval", "--what", "gamma", "--alpha", "0", "--beta", "0", "--s", "1+infi"], "--s"),
    (["eval", "--what", "gamma", "--alpha", "0", "--beta", "0", "--s", "1+2k"], "--s"),
    (["eval", "--what", "S_A", "--alpha", "0", "--beta", "1/2", "--z", "infinity",
      "--arg", "0"], "--z"),
    (["eval", "--what", "f", "--alpha", "0", "--beta", "1", "--k", "0",
      "--phi", "0.1,abc"], "--phi"),
    (["verify", "--checks", "cyclic", "--A", "1,2", "--m", "1,x"], "--m"),
])
def test_non_finite_flag_values_exit_2(argv, flag, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert flag in err
