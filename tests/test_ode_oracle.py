import cmath
import math
import warnings
from fractions import Fraction as F

import numpy as np
import pytest

from hypermono.exponents import validate_irreducible
from hypermono.local_solutions import build_basis, eval_series
from hypermono.matrices import char_poly
from hypermono.monodromy import monodromy_matrices
from hypermono import ode_oracle
from hypermono.ode_oracle import (
    EvaluationNearSingularity,
    PathSpec,
    SingularityApproach,
    StepFailure,
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


def _dense_next(sys, z0, k, Yk, Yprev):
    """Y_(k+1) of the Taylor recurrence at z0 from the dense C(z): P(z) =
    z (lambda - z) C(z) is affine in z, so P1 is a difference quotient."""
    n = sys.data.n
    P = lambda z: z * (sys.lam - z) * sys.coefficient_matrix(z)
    z1 = z0 + 0.25j
    P0, P1 = P(z0), (P(z1) - P(z0)) / (z1 - z0)
    q0, q1 = z0 * (sys.lam - z0), sys.lam - 2 * z0
    I = np.eye(n)
    return ((P0 - q1 * k * I) @ Yk + (P1 + (k - 1) * I) @ Yprev) / (q0 * (k + 1))


@pytest.mark.parametrize("n", range(1, 7))
def test_structured_product_matches_dense(n):
    rng = np.random.default_rng(n)
    idx = [F(int(k), 7) for k in rng.choice(7, size=n)]
    data = validate_irreducible(tuple(idx), tuple(F(2 * k + 1, 16) for k in range(n)))
    sys = companion_system(data)
    for z in (0.3, -0.5 + 0.2j, 2.0 - 1.5j, 0.99j):
        step = sys.recurrence(z)
        for cols in (1, n, n + 3):
            Yk, Yprev = rng.normal(size=(2, n, cols)) + 1j * rng.normal(size=(2, n, cols))
            # k = 0 is C(z) @ Y_0, the first-order Taylor coefficient
            ref = sys.coefficient_matrix(z) @ Yk
            first = step(0, Yk, np.zeros_like(Yk))
            assert np.max(np.abs(first - ref)) <= 1e-14 * np.max(np.abs(ref))
            for k in (1, 2, 7):
                ref = _dense_next(sys, z, k, Yk, Yprev)
                assert np.max(np.abs(step(k, Yk, Yprev) - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_structured_product_rejects_singular_points():
    data = validate_irreducible((F(0), F(1, 2)), (F(1, 4), F(3, 4)))
    sys = companion_system(data)
    for z in (0.0, 1e-9j, sys.lam + 1e-9):
        with pytest.raises(EvaluationNearSingularity):
            sys.recurrence(z)


def test_transport_trivial_path(simple_sys):
    Y0 = np.array([[1.3 + 0.1j]])
    path = PathSpec(pieces=(segment(0.5, 0.5 + 0j, (0.0, -1.0 + 0j)),), base=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no division by the zero length
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
    # Abel: (det Y)' = tr C det Y with tr C = -a_(n-1)/z + (b_(n-1) - a_(n-1))/(lambda - z),
    # so a loop multiplies det Y by exp(2 pi i sum(alpha)) around 0 and by
    # exp(2 pi i (sum(beta) - sum(alpha))) around lambda
    for alpha, beta in (((F(0), F(0)), (F(1, 4), F(1, 2))),
                        ((F(1, 5), F(2, 5), F(3, 5)), (F(1, 6), F(1, 2), F(5, 6)))):
        data = validate_irreducible(alpha, beta)
        sys = companion_system(data)
        sa, sb = float(sum(data.alpha)), float(sum(data.beta))
        for around, exponent in ((0, sa), ("lambda", sb - sa)):
            M = loop_monodromy(sys, data, around).entries  # det M = det Y1 / det Y0
            assert abs(np.linalg.det(M) - cmath.exp(2j * math.pi * exponent)) <= 1e-8


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


@pytest.mark.parametrize("alpha, beta", [
    ((F(0), F(1, 3), F(2, 3)), (F(1, 4), F(1, 2), F(3, 4))),
    ((F(0), F(1, 4), F(1, 2), F(3, 4)), (F(1, 8), F(3, 8), F(5, 8), F(7, 8))),
    ((F(0), F(1, 5), F(2, 5), F(3, 5), F(4, 5)),
     (F(1, 6), F(1, 3), F(1, 2), F(2, 3), F(5, 6))),
])
def test_lambda_loop_matches_theorem_entrywise(alpha, beta):
    data = validate_irreducible(alpha, beta)
    Ml_alg = monodromy_matrices(data, "A").mlambda.entries
    Ml = loop_monodromy(companion_system(data), data, "lambda").entries
    assert np.max(np.abs(Ml - Ml_alg)) <= 1e-8 * max(1.0, np.max(np.abs(Ml_alg)))


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


# --- P paths in lock step ----------------------------------------------------

def _regular(n):
    return validate_irreducible(tuple(F(k, n) for k in range(n)),
                                tuple(F(2 * k + 1, 2 * n) for k in range(n)))


def _radial_batch(data):
    """Ten radial segments to the unit circle inside the branch window, five
    from |z| = 1/2 seeded with the basis at 0 and five from |z| = 2 seeded
    with the basis at infinity."""
    n = data.n
    lo = -n / 2 + n // 2
    theta = 2 * math.pi * (lo + np.array([0.15, 0.3, 0.5, 0.7, 0.85]))
    z0, Y0 = [], []
    for rho, side in ((0.5, "zero"), (2.0, "infinity")):
        basis = build_basis(data, side)
        for t in theta:
            z0.append(rho * cmath.exp(1j * t))
            Y0.append(fundamental_matrix(basis, z0[-1], t))
    z0 = np.array(z0)
    return z0, z0 / np.abs(z0), np.stack(Y0)


@pytest.mark.parametrize("n", range(2, 7))
def test_batched_radial_transport_matches_single_paths(n):
    data = _regular(n)
    sys = companion_system(data)
    sing = (0.0 + 0j, sys.lam)
    z0, z1, Y0 = _radial_batch(data)
    batch = transport(sys, PathSpec(pieces=(segment(z0, z1, sing),), base=z0), Y0)
    assert batch.shape == Y0.shape
    for p in range(len(z0)):
        single = transport(sys, PathSpec(pieces=(segment(z0[p], z1[p], sing),),
                                         base=z0[p]), Y0[p])
        assert np.max(np.abs(batch[p] - single)) <= 1e-12 * np.max(np.abs(single))


def test_batch_with_one_path_inside_the_margin_is_refused():
    sys = companion_system(_regular(3))
    z0 = np.array([0.5, 0.5j, -0.5 + 0.1j])
    z1 = np.array([0.9j, 0.7 + 0.7j, sys.lam + 5e-4])
    with pytest.raises(SingularityApproach):
        PathSpec(pieces=(segment(z0, z1, (0.0 + 0j, sys.lam)),), base=z0)


def test_batch_with_one_point_at_lambda_raises():
    data = _regular(3)
    sys = companion_system(data)
    z0 = np.array([0.5j, sys.lam * (1 - 1e-9), -0.5j])
    z1 = np.array([0.9j, 0.5 * sys.lam, -0.9j])
    # margin 0 lets the path through, so the point test of the recurrence
    # must stop it
    path = PathSpec(pieces=(segment(z0, z1, (0.0 + 0j, sys.lam)),), base=z0,
                    margin=0.0)
    with pytest.raises(EvaluationNearSingularity):
        transport(sys, path, np.stack([np.eye(3, dtype=complex)] * 3))


@pytest.mark.parametrize("n", range(1, 7))
def test_stacked_apply_matches_dense_per_path(n):
    # the recurrence at P points applied to stacked (P, n, m) coefficients
    rng = np.random.default_rng(10 + n)
    sys = companion_system(_regular(n))
    z = np.array([0.3, -0.5 + 0.2j, 2.0 - 1.5j, 0.99j, -3.0])
    step = sys.recurrence(z)
    for cols in (1, n, n + 3):
        shape = (2, len(z), n, cols)
        Yk, Yprev = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        first, later = step(0, Yk, np.zeros_like(Yk)), step(3, Yk, Yprev)
        for p in range(len(z)):
            ref = sys.coefficient_matrix(z[p]) @ Yk[p]
            assert np.max(np.abs(first[p] - ref)) <= 1e-14 * np.max(np.abs(ref))
            ref = _dense_next(sys, z[p], 3, Yk[p], Yprev[p])
            assert np.max(np.abs(later[p] - ref)) <= 1e-13 * np.max(np.abs(ref))
    with pytest.raises(EvaluationNearSingularity):
        sys.recurrence(np.append(z, sys.lam + 1e-9))


# --- step transfer matrices --------------------------------------------------

@pytest.mark.parametrize("n", [1, 3, 6])
def test_step_matrices_match_sequential_sums(n):
    # each step's transfer matrix is the plain sum of the terms T_k h^k of
    # the recurrence at its own point, from T_0 = I
    sys = companion_system(_regular(n))
    z = np.array([0.3, -0.5 + 0.2j, 2.0 - 1.5j, 0.99j, 0.6])
    h = np.array([0.1, -0.12j, 0.8 + 0.3j, 0.2 - 0.1j, 0.0])
    T = ode_oracle._step_matrices(sys, z, h)
    assert T.shape == (len(z), n, n)
    for j in range(len(z)):
        step = sys.recurrence(z[j])
        term, prev = np.eye(n, dtype=complex), np.zeros((n, n), dtype=complex)
        ref = term.copy()
        for k in range(120):
            term, prev = step(k, term, prev), term
            ref += term * h[j] ** (k + 1)
        assert np.max(np.abs(T[j] - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [2, 4, 6])
def test_transport_is_the_transfer_matrix_applied_to_the_seed(n):
    data = _regular(n)
    sys = companion_system(data)
    sing = (0.0 + 0j, sys.lam)
    theta = base_angle(data)
    path = ode_oracle._loop_lambda(sys, 0.3, theta)
    Y0 = fundamental_matrix(build_basis(data, "zero"), path.base, theta)
    ref = transport(sys, path, np.eye(n)) @ Y0
    assert np.max(np.abs(transport(sys, path, Y0) - ref)) <= 1e-13 * np.max(np.abs(ref))
    # lock step, with square (P, n, n) and rectangular (P, n, m) seeds
    z0, z1, Y0 = _radial_batch(data)
    batch = PathSpec(pieces=(segment(z0, z1, sing),), base=z0)
    T = transport(sys, batch, np.broadcast_to(np.eye(n), Y0.shape))
    for seed in (Y0, Y0[..., :1], Y0[..., ::2]):
        ref = T @ seed
        out = transport(sys, batch, seed)
        assert out.shape == seed.shape
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_one_step_over_the_term_cap_fails_among_converging_steps():
    sys = companion_system(_regular(3))
    z = np.array([0.3, 0.5, -0.5 + 0.2j, 0.99j])
    h = np.array([0.1, 0.0, 0.1j, 0.2])
    ode_oracle._step_matrices(sys, z, h)  # every step converges
    # 0.95 of the way to 0: the terms shrink by 0.95 each, far too slowly
    h[1] = -0.95 * z[1]
    with pytest.raises(StepFailure):
        ode_oracle._step_matrices(sys, z, h)
