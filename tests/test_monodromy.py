import numpy as np
import pytest
from fractions import Fraction as F

from hypermono.exponents import group_exponents, validate_irreducible
from hypermono.matrices import char_poly, invert, poly_from_roots, vandermonde
from hypermono.monodromy import (
    change_of_basis,
    default_branch,
    monodromy_matrices,
    pseudoreflection_check,
    replication_identity_check,
)


def test_default_branch():
    assert default_branch(validate_irreducible((F(0),), (F(1, 2),))) == 0
    assert default_branch(
        validate_irreducible((F(0), F(1, 2)), (F(1, 4), F(3, 4)))
    ) == 1


def test_n1_closed_form():
    data = validate_irreducible((F(0),), (F(1, 2),))
    res = monodromy_matrices(data, "A")
    assert res.m0.entries[0, 0] == pytest.approx(1.0, abs=1e-14)
    assert res.minf.entries[0, 0] == pytest.approx(-1.0, abs=1e-12)
    assert res.mlambda.entries[0, 0] == pytest.approx(-1.0, abs=1e-12)


def test_resonant_m0_transpose_of_block():
    data = validate_irreducible((F(0), F(0)), (F(1, 4), F(1, 2)))
    res = monodromy_matrices(data, "A")
    assert np.allclose(res.m0.entries, [[1, 1], [0, 1]])


def test_b_basis_minf_diagonal():
    data = validate_irreducible((F(0), F(1, 2)), (F(1, 4), F(3, 4)))
    res = monodromy_matrices(data, "B")
    assert np.allclose(res.minf.entries, np.diag([-1j, 1j]), atol=1e-13)


def test_mlambda_is_product_inverse(suite):
    for data in suite:
        for basis in ("A", "B", "f"):
            res = monodromy_matrices(data, basis)
            prod = res.mlambda.entries @ res.minf.entries @ res.m0.entries
            assert np.max(np.abs(prod - np.eye(data.n))) <= 1e-9


def test_charpoly_matches_exponents(suite):
    for data in suite:
        res = monodromy_matrices(data, "f")
        p0 = poly_from_roots(
            [np.exp(2j * np.pi * float(a)) for a in data.alpha], [1] * data.n
        )
        pinf = poly_from_roots(
            [np.exp(-2j * np.pi * float(b)) for b in data.beta], [1] * data.n
        )
        assert np.max(np.abs(char_poly(res.m0) - p0)) <= 1e-9
        assert np.max(np.abs(char_poly(res.minf) - pinf)) <= 1e-9


def test_jordan_block_structure(suite):
    for data in suite:
        res = monodromy_matrices(data, "A")
        ms = res.ms_alpha
        M0 = res.m0.entries
        for val, m in zip(ms.values, ms.multiplicities):
            # one Jordan block per eigenvalue: rank((M0 - val)^p) = n - p
            P = np.eye(data.n, dtype=complex)
            for p in range(1, m + 1):
                P = P @ (M0 - val * np.eye(data.n))
                sv = np.linalg.svd(P, compute_uv=False)
                rank = int(np.sum(sv > 1e-9 * max(sv[0], 1.0)))
                assert rank == data.n - p


def test_pseudoreflection(suite):
    for data in suite:
        for basis in ("A", "f"):
            res = monodromy_matrices(data, basis)
            report = pseudoreflection_check(res)
            assert report.passed, (data.alpha, basis, report.to_jsonable())
            assert report.checks["pseudoreflection"].details["rank"] == 1


def test_pseudoreflection_rank_basis_independent(suite):
    for data in suite[:5]:
        ranks = set()
        for basis in ("A", "B", "f"):
            res = monodromy_matrices(data, basis)
            ranks.add(pseudoreflection_check(res).checks["pseudoreflection"].details["rank"])
        assert ranks == {1}


def test_basis_change_consistency(suite):
    for data in suite:
        res_a = monodromy_matrices(data, "A")
        res_b = monodromy_matrices(data, "B")
        res_f = monodromy_matrices(data, "f")
        Va_t, Vb_t = change_of_basis(data, res_a.l)
        Va_t_inv = invert(Va_t).entries
        Vb_t_inv = invert(Vb_t).entries
        # (V_A^t)^-1 M0^f V_A^t = M0^A, and likewise for the B side and Minf
        for num, alg in (
            (Va_t_inv @ res_f.m0.entries @ Va_t.entries, res_a.m0.entries),
            (Va_t_inv @ res_f.minf.entries @ Va_t.entries, res_a.minf.entries),
            (Vb_t_inv @ res_f.m0.entries @ Vb_t.entries, res_b.m0.entries),
            (Vb_t_inv @ res_f.minf.entries @ Vb_t.entries, res_b.minf.entries),
        ):
            assert np.max(np.abs(num - alg)) <= 1e-9 * max(1.0, np.max(np.abs(alg)))


def test_change_of_basis_n1():
    data = validate_irreducible((F(0),), (F(1, 2),))
    Va_t, Vb_t = change_of_basis(data, 0)
    assert Va_t.entries[0, 0] == 1.0
    assert Vb_t.entries[0, 0] == 1.0


def test_branch_shift_moves_columns():
    data = validate_irreducible((F(0), F(0), F(1, 2)), (F(1, 4), F(1, 3), F(3, 4)))
    ms = group_exponents(data, "alpha")
    V0 = vandermonde(ms, 0).entries
    V1 = vandermonde(ms, 1).entries
    assert np.allclose(V1[:, 1:], V0[:, :-1])


def test_levelt_shape(suite):
    # M0 in the f basis is the transposed cyclic form: star top row via the
    # transpose, identity subdiagonal, char poly prod(x - e^(2 pi i alpha))
    for data in suite[:6]:
        res = monodromy_matrices(data, "f")
        C = res.m0.entries.T
        n = data.n
        pattern = np.zeros((n, n), dtype=complex)
        pattern[:, 0] = C[:, 0]
        pattern[np.arange(n - 1), np.arange(1, n)] = 1.0
        assert np.max(np.abs(C - pattern)) <= 1e-9 * max(1.0, np.max(np.abs(C)))


def test_invalid_basis():
    data = validate_irreducible((F(0),), (F(1, 2),))
    with pytest.raises(ValueError):
        monodromy_matrices(data, "Q")


def test_replication_n1():
    data = validate_irreducible((F(0),), (F(1, 2),))
    report = replication_identity_check(data, tol=1e-6)
    assert report.passed, report.to_jsonable()


def test_circle_values_solve_vs_convolution():
    # recovering f from transported S through the Vandermonde system must
    # agree with the direct convolution quadrature
    from hypermono.circle_solutions import h_convolution
    from hypermono.monodromy import circle_basis_values
    import numpy as np

    data = validate_irreducible((F(0), F(1, 3), F(2, 3)), (F(1, 2), F(3, 4), F(5, 4)))
    l = 1
    for phi in (0.2, 0.45):
        f_solve = circle_basis_values(data, phi, l)
        f_direct = np.array([h_convolution(data, phi - l + k) for k in range(3)])
        assert np.max(np.abs(f_solve - f_direct)) <= 1e-8


def test_replication_n4_mutual_consistency():
    data = validate_irreducible(
        (F(0), F(0), F(1, 3), F(2, 3)), (F(1, 8), F(1, 4), F(5, 8), F(3, 4))
    )
    report = replication_identity_check(data, tol=1e-5)
    assert report.passed, report.to_jsonable()
    check = report.checks["replication_B"]
    assert check.details["independent_kernel"] is False


def test_circle_values_bad_phi():
    import pytest as _pytest

    from hypermono.monodromy import circle_basis_values

    data = validate_irreducible((F(0),), (F(1, 2),))
    with _pytest.raises(ValueError):
        circle_basis_values(data, 0.8, l=0)


def test_replication_rejects_bad_phi():
    data = validate_irreducible((F(0),), (F(1, 2),))
    with pytest.raises(ValueError):
        replication_identity_check(data, phis=[0.8])


def test_result_shape_metadata():
    data = validate_irreducible((F(0), F(0)), (F(1, 4), F(1, 2)))
    res = monodromy_matrices(data, "A")
    assert res.m0.row_index == ((1, 0), (1, 1))
    payload = res.to_jsonable()
    assert payload["basis"] == "A" and payload["l"] == 1
    assert payload["lambda"] == [1.0, 0.0]


N4 = ((F(0), F(1, 4), F(1, 2), F(3, 4)), (F(1, 8), F(3, 8), F(5, 8), F(7, 8)))


def test_prebuilt_basis_gives_identical_values():
    from hypermono.local_solutions import build_basis
    from hypermono.monodromy import circle_basis_values

    data = validate_irreducible(*N4)
    zero, inf = build_basis(data, "zero"), build_basis(data, "infinity")
    for phi in (0.3, 0.75):  # branch l = 2 covers (0, 1)
        assert np.array_equal(circle_basis_values(data, phi, 2, basis=zero),
                              circle_basis_values(data, phi, 2))
        assert np.array_equal(circle_basis_values(data, phi, 2, side="B", basis=inf),
                              circle_basis_values(data, phi, 2, side="B"))


def test_basis_of_the_wrong_side_or_indices_is_rejected():
    from hypermono.local_solutions import build_basis
    from hypermono.monodromy import _boundary_values, circle_basis_values

    data = validate_irreducible(*N4)
    zero, inf = build_basis(data, "zero"), build_basis(data, "infinity")
    with pytest.raises(ValueError, match="side 'A'"):
        circle_basis_values(data, 0.25, 2, side="A", basis=inf)
    with pytest.raises(ValueError, match="side 'B'"):
        circle_basis_values(data, 0.25, 2, side="B", basis=zero)
    with pytest.raises(ValueError):
        _boundary_values(data, "A", 0.25, inf)
    other = validate_irreducible((F(0), F(1, 4), F(1, 2), F(1, 3)), N4[1])
    with pytest.raises(ValueError):
        circle_basis_values(other, 0.25, 2, basis=zero)


def test_f_piece_n4_matches_pointwise_circle_values():
    # f_piece builds one basis for the whole grid; each point must come out
    # exactly as a standalone circle_basis_values call with its own basis
    from hypermono.circle_solutions import f_piece
    from hypermono.monodromy import circle_basis_values

    data = validate_irreducible(*N4)
    k, grid = 1, [-0.8, -0.45, -0.1]
    sample = f_piece(data, k, grid)
    expect = [circle_basis_values(data, p, l=k)[k] for p in grid]
    assert np.array_equal(np.array(sample.values), np.array(expect))
