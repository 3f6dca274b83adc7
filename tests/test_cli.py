import json

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


def test_env_precision(monkeypatch, capsys):
    import hypermono.gammaprod as gp

    monkeypatch.setenv("HYPERMONO_PRECISION", "extended")
    code, out, _ = run(
        ["eval", "--what", "gamma", "--alpha", "0", "--beta", "0", "--s", "0.5"], capsys
    )
    assert code == 0
    assert gp.get_precision() == "extended"
    gp.set_precision("double")
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
