import cmath
import math
from fractions import Fraction as F

import numpy as np
import pytest

from hypermono.exponents import validate_irreducible
from hypermono.local_solutions import build_basis, eval_series
from hypermono.matrices import char_poly
from hypermono.monodromy import monodromy_matrices
from hypermono.ode_oracle import (
    EvaluationNearSingularity,
    PathSpec,
    SingularityApproach,
    arc,
    base_angle,
    companion_system,
    compare_invariants,
    fundamental_matrix,
    loop_monodromy,
    numerical_rank,
    segment,
    transport,
)


@pytest.fixture(scope="module")
def simple():
    return validate_irreducible((F(0),), (F(1, 2),))


@pytest.fixture(scope="module")
def simple_sys(simple):
    return companion_system(simple)


def test_companion_n1(simple_sys):
    # -Du - z(D - 1/2)u = 0  =>  u' = u / (2(1+z)), solved by sqrt(1+z)
    C = simple_sys.coefficient_matrix(0.5)
    assert C[0, 0] == pytest.approx(1 / (2 * 1.5), rel=1e-14)
    assert simple_sys.lam == -1


def test_companion_poles_only_at_0_and_lambda():
    data = validate_irreducible((F(0), F(1, 2)), (F(1, 4), F(3, 4)))
    sys = companion_system(data)
    for z in (0.3, -0.5 + 0.2j, 2.0, -3.0, 0.99j):
        C = sys.coefficient_matrix(z)
        assert np.all(np.isfinite(C))
    with pytest.raises(EvaluationNearSingularity):
        sys.coefficient_matrix(0.0)
    with pytest.raises(EvaluationNearSingularity):
        sys.coefficient_matrix(sys.lam + 1e-9)


def test_transport_trivial_path(simple_sys):
    Y0 = np.array([[1.3 + 0.1j]])
    path = PathSpec(pieces=(segment(0.5, 0.5 + 0j, (0.0, -1.0 + 0j)),), base=0.5)
    Y1 = transport(simple_sys, path, Y0)
    assert abs(Y1[0, 0] - Y0[0, 0]) <= 1e-12


def test_transport_closed_form_lambda_loop(simple_sys):
    # sqrt(1+z) flips sign around lambda = -1
    Y0 = np.array([[cmath.sqrt(0.5)]])
    path = PathSpec(
        pieces=(arc(-1.0, 0.5, 0.0, 2 * math.pi, (0.0 + 0j, -1.0 + 0j)),), base=-0.5
    )
    Y1 = transport(simple_sys, path, Y0)
    assert abs(Y1[0, 0] / Y0[0, 0] + 1.0) <= 1e-8


def test_transport_closed_form_segment(simple_sys):
    z0, z1 = 0.2, 0.8 + 0.3j
    Y0 = np.array([[cmath.sqrt(1 + z0)]])
    path = PathSpec(pieces=(segment(z0, z1, (0.0, -1.0 + 0j)),), base=z0)
    Y1 = transport(simple_sys, path, Y0)
    assert abs(Y1[0, 0] - cmath.sqrt(1 + z1)) <= 1e-10


def test_transport_reversibility():
    data = validate_irreducible((F(0), F(0)), (F(1, 4), F(1, 2)))
    sys = companion_system(data)
    basis = build_basis(data, "zero")
    Y0 = fundamental_matrix(basis, 0.3, 0.0)
    sing = (0.0 + 0j, sys.lam)
    fwd = PathSpec(pieces=(segment(0.3, 0.4 + 0.5j, sing),), base=0.3)
    back = PathSpec(pieces=(segment(0.4 + 0.5j, 0.3, sing),), base=0.4 + 0.5j)
    Y1 = transport(sys, back, transport(sys, fwd, Y0))
    assert np.max(np.abs(Y1 - Y0)) <= 1e-8


def test_transport_groupoid_concatenation():
    data = validate_irreducible((F(0), F(1, 2)), (F(1, 4), F(3, 4)))
    sys = companion_system(data)
    sing = (0.0 + 0j, sys.lam)
    Y0 = fundamental_matrix(build_basis(data, "zero"), 0.3, 0.0)
    mid = 0.5 + 0.4j
    end = -0.2 + 0.6j
    one_shot = PathSpec(pieces=(segment(0.3, mid, sing), segment(mid, end, sing)),
                        base=0.3)
    Y_direct = transport(sys, one_shot, Y0)
    Y_mid = transport(sys, PathSpec(pieces=(segment(0.3, mid, sing),), base=0.3), Y0)
    Y_two = transport(sys, PathSpec(pieces=(segment(mid, end, sing),), base=mid), Y_mid)
    assert np.max(np.abs(Y_direct - Y_two)) <= 1e-8


def test_wronskian_abel_drift():
    # det Y satisfies w' = tr(C) w; integrate the scalar alongside and compare
    data = validate_irreducible((F(0), F(0)), (F(1, 4), F(1, 2)))
    sys = companion_system(data)

    class TraceSystem:
        lam = sys.lam

        def coefficient_matrix(self, z):
            return np.array([[np.trace(sys.coefficient_matrix(z))]])

    Y0 = fundamental_matrix(build_basis(data, "zero"), 0.3, 0.0)
    sing = (0.0 + 0j, sys.lam)
    path = PathSpec(pieces=(arc(0.0, 0.3, 0.0, 2 * math.pi, sing),), base=0.3)
    Y1 = transport(sys, path, Y0)
    w1 = transport(TraceSystem(), path, np.array([[np.linalg.det(Y0)]]))[0, 0]
    assert abs(np.linalg.det(Y1)) > 0
    assert abs(np.linalg.det(Y1) - w1) <= 1e-8 * abs(w1)


def test_path_margin_enforced():
    with pytest.raises(SingularityApproach):
        PathSpec(pieces=(segment(0.5, -0.5, (0.0 + 0j, -1.0 + 0j)),), base=0.5)


def test_loop_monodromy_eigenvalues():
    data = validate_irreducible((F(0), F(1, 2)), (F(1, 4), F(3, 4)))
    sys = companion_system(data)
    M0 = loop_monodromy(sys, data, 0).entries
    eig = sorted(np.linalg.eigvals(M0), key=lambda v: v.real)
    assert abs(eig[0] + 1) <= 1e-8 and abs(eig[1] - 1) <= 1e-8
    Ml = loop_monodromy(sys, data, "lambda").entries
    assert numerical_rank(Ml - np.eye(2)) == 1


def test_loop_composition_relation(suite):
    for data in suite[2:6]:
        sys = companion_system(data)
        M0 = loop_monodromy(sys, data, 0).entries
        Ml = loop_monodromy(sys, data, "lambda").entries
        Minf = loop_monodromy(sys, data, "infinity").entries
        assert np.max(np.abs(Ml @ Minf @ M0 - np.eye(data.n))) <= 1e-6


def test_loop_matches_theorem_entrywise():
    data = validate_irreducible((F(0), F(0)), (F(1, 4), F(1, 2)))
    sys = companion_system(data)
    alg = monodromy_matrices(data, "A")
    M0 = loop_monodromy(sys, data, 0).entries
    Minf = loop_monodromy(sys, data, "infinity").entries
    Ml = loop_monodromy(sys, data, "lambda").entries
    assert np.max(np.abs(M0 - alg.m0.entries)) <= 1e-8
    assert np.max(np.abs(Minf - alg.minf.entries)) <= 1e-8
    assert np.max(np.abs(Ml - alg.mlambda.entries)) <= 1e-8


def test_loop_monodromy_b_side():
    # seeded at |z| = 3 with the infinity basis, the clockwise big circle
    # reproduces (D_B^t)^{-1}
    data = validate_irreducible((F(0), F(1, 2)), (F(1, 4), F(3, 4)))
    sys = companion_system(data)
    theta = base_angle(data)
    basis = build_basis(data, "infinity")
    Minf = loop_monodromy(sys, data, "infinity",
                          base=3.0 * cmath.exp(1j * theta), basis=basis).entries
    alg = monodromy_matrices(data, "B")
    assert np.max(np.abs(Minf - alg.minf.entries)) <= 1e-8


def test_infinity_chart_change_of_variables():
    # v(w) = u(1/w) solves the system with indices (-beta, -alpha); check a
    # transported solution vector against the direct evaluation
    data = validate_irreducible((F(0), F(1, 2)), (F(1, 4), F(3, 4)))
    swapped = validate_irreducible(
        tuple(-b for b in data.beta), tuple(-a for a in data.alpha)
    )
    sys_w = companion_system(swapped)
    basis = build_basis(data, "infinity")
    series = basis[0]

    def v_vector(w, argw):
        # D_w^k v = (-1)^k (D_z^k u)(1/w); arg(1/z) = -arg z
        return np.array([
            (-1.0) ** k * eval_series(series, 1.0 / w, -argw, dorder=k)
            for k in range(data.n)
        ])

    w0, w1 = 0.4, 0.25 + 0.2j
    V0 = v_vector(w0, 0.0)
    path = PathSpec(pieces=(segment(w0, w1, (0.0 + 0j, sys_w.lam)),), base=w0)
    V1 = transport(sys_w, path, V0.reshape(-1, 1))[:, 0]
    ref = v_vector(w1, cmath.phase(w1))
    assert np.max(np.abs(V1 - ref)) <= 1e-9


def test_compare_invariants_n1(simple, simple_sys):
    alg = monodromy_matrices(simple, "A")
    m0 = loop_monodromy(simple_sys, simple, 0)
    ml = loop_monodromy(simple_sys, simple, "lambda")
    report = compare_invariants(alg, (m0, ml))
    assert report.passed
    assert report.max_residual() <= 1e-8


def test_compare_invariants_resonant():
    data = validate_irreducible((F(0), F(0)), (F(1, 4), F(1, 2)))
    sys = companion_system(data)
    alg = monodromy_matrices(data, "A")
    report = compare_invariants(
        alg, (loop_monodromy(sys, data, 0), loop_monodromy(sys, data, "lambda"))
    )
    assert report.passed
    seqs = report.checks["jordan_ranks_M0"].details["sequences"]
    # single 2-block at eigenvalue 1: ranks of (M0 - I)^p are 1, 0
    assert seqs["eig_1"]["numeric"] == [1, 0]


def test_char_poly_of_loops_matches_exponents():
    data = validate_irreducible((F(0), F(1, 3), F(2, 3)), (F(1, 4), F(1, 2), F(3, 4)))
    sys = companion_system(data)
    M0 = loop_monodromy(sys, data, 0).entries
    expect = np.array([1.0 + 0j])
    for a in data.alpha:
        expect = np.convolve(expect, [1.0, -np.exp(2j * np.pi * float(a))])
    assert np.max(np.abs(char_poly(M0) - expect)) <= 1e-8


def test_dormand_prince_first_same_as_last():
    from hypermono.ode_oracle import _DP_A, _DP_B5

    np.testing.assert_array_equal(_DP_A[6], _DP_B5)


def test_rectangular_state_matches_square_columns():
    data = validate_irreducible((F(0), F(1, 3), F(2, 3)), (F(1, 4), F(1, 2), F(3, 4)))
    sys = companion_system(data)
    Y0 = fundamental_matrix(build_basis(data, "zero"), 0.3, 0.0)
    sing = (0.0 + 0j, sys.lam)
    path = PathSpec(pieces=(segment(0.3, 0.5 + 0.4j, sing),
                            arc(0.0, abs(0.5 + 0.4j), cmath.phase(0.5 + 0.4j), 2.5, sing)),
                    base=0.3)
    full = transport(sys, path, Y0)
    for cols in ([0, 2], [1]):
        part = transport(sys, path, Y0[:, cols])
        assert part.shape == (3, len(cols))
        assert np.max(np.abs(part - full[:, cols])) <= 1e-9 * np.max(np.abs(full))
