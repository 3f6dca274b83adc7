import math
from fractions import Fraction as F

import mpmath as mp
import numpy as np
import pytest

from hypermono.exponents import group_exponents, validate_irreducible
from hypermono.gammaprod import balanced_gamma
from hypermono.local_solutions import (
    BranchRequiredError,
    ConvergenceError,
    build_basis,
    coefficient_recurrence_residual,
    eval_series,
)
from hypermono.matrices import block_diagonal

mp.mp.dps = 30


@pytest.fixture(scope="module")
def simple():
    return validate_irreducible((F(0),), (F(1, 2),))


@pytest.fixture(scope="module")
def resonant():
    return validate_irreducible((F(0), F(0)), (F(1, 4), F(1, 2)))


def test_basis_leading_coefficient(simple):
    basis = build_basis(simple, "zero")
    assert len(basis) == 1
    assert basis[0].jets[0].value == pytest.approx(2 / math.sqrt(math.pi), rel=1e-12)


def test_basis_counts_resonant(resonant):
    basis = build_basis(resonant, "zero")
    assert [(s.j, s.r) for s in basis] == [(1, 0), (1, 1)]
    inf = build_basis(resonant, "infinity")
    assert len(inf) == 2
    assert {s.r for s in inf} == {0}


def test_basis_infinity_grouping():
    data = validate_irreducible((F(0), F(0)), (F(1, 3), F(4, 3)))
    basis = build_basis(data, "infinity")
    assert [(s.j, s.r) for s in basis] == [(1, 0), (1, 1)]
    assert basis[0].representative == F(4, 3)


def test_small_z_limit_is_leading_jet(simple):
    # S(z) z**(-rep) tends to the leading jet coefficient along z -> 0+
    s = build_basis(simple, "zero")[0]
    z = 1e-8
    limit = eval_series(s, z, 0.0) * z ** (-float(s.representative))
    assert limit == pytest.approx(s.jets[0].value, rel=1e-7)


def test_eval_matches_ode_transport(simple):
    # transport the solution vector from z = 0.1 and compare at z = 0.25
    from hypermono.ode_oracle import (
        PathSpec, companion_system, fundamental_matrix, segment, transport,
    )

    sys = companion_system(simple)
    basis = build_basis(simple, "zero")
    Y0 = fundamental_matrix(basis, 0.1, 0.0)
    path = PathSpec(pieces=(segment(0.1, 0.25, (0.0, sys.lam)),), base=0.1)
    Y1 = transport(sys, path, Y0)
    direct = eval_series(basis[0], 0.25, 0.0)
    assert abs(Y1[0, 0] - direct) <= 1e-9


def test_eval_against_direct_sum(simple):
    val = eval_series(build_basis(simple, "zero")[0], 0.25, 0.0)
    ref = mp.nsum(
        lambda l: mp.rgamma(l + 1) * mp.rgamma(-l + mp.mpf(3) / 2) * mp.mpf("0.25") ** l,
        [0, mp.inf],
    )
    assert val == pytest.approx(complex(ref), rel=1e-13)


def test_eval_infinity_against_direct_sum(simple):
    val = eval_series(build_basis(simple, "infinity")[0], 4.0, 0.0)
    ref = sum(
        complex(balanced_gamma(simple, -l + 0.5)) * 4.0 ** (-l + 0.5) for l in range(60)
    )
    assert val == pytest.approx(ref, rel=1e-12)


def test_eval_resonant_log_term(resonant):
    z = 0.3
    val = eval_series(build_basis(resonant, "zero")[1], z, 0.0)

    def term(l):
        f = lambda t: (mp.rgamma(l + t + 1) ** 2
                       * mp.rgamma(-l - t + mp.mpf(1) / 4 + 1)
                       * mp.rgamma(-l - t + mp.mpf(1) / 2 + 1)
                       * mp.exp((l + t) * mp.log(mp.mpf(z))))
        return complex(mp.diff(f, 0)) / (2j * math.pi)

    ref = sum(term(l) for l in range(40))
    assert val == pytest.approx(ref, abs=1e-13)


def test_eval_on_nontrivial_branch(resonant):
    # arg z = 3 pi: the log z power shows up with its universal-cover value
    z = 0.3 * np.exp(3j * math.pi)
    v = eval_series(build_basis(resonant, "zero")[1], z, 3 * math.pi)
    assert np.isfinite(v.real) and np.isfinite(v.imag)


def test_monodromy_action_alpha_side(resonant):
    basis = build_basis(resonant, "zero")
    ms = group_exponents(resonant, "alpha")
    D = block_diagonal(ms).entries
    z = 0.5 * np.exp(0.4j)
    v0 = np.array([eval_series(s, z, 0.4) for s in basis])
    v1 = np.array([eval_series(s, z, 0.4 + 2 * math.pi) for s in basis])
    assert np.max(np.abs(v1 - D @ v0)) <= 1e-9


def test_monodromy_action_beta_side():
    data = validate_irreducible((F(0), F(0)), (F(1, 3), F(4, 3)))
    basis = build_basis(data, "infinity")
    ms = group_exponents(data, "beta")
    Dinv = np.linalg.inv(block_diagonal(ms).entries)
    z = 2.0 * np.exp(0.7j)
    v0 = np.array([eval_series(s, z, 0.7) for s in basis])
    v1 = np.array([eval_series(s, z, 0.7 - 2 * math.pi) for s in basis])
    assert np.max(np.abs(v1 - Dinv @ v0)) <= 1e-9


def test_series_satisfies_equation(suite):
    # lambda prod(D - alpha) S = z prod(D - beta) S, termwise D = (l + t)
    for data in suite[:6]:
        a = np.array([float(x) for x in data.alpha])
        b = np.array([float(x) for x in data.beta])
        apoly = np.poly(a)[::-1]  # ascending coefficients of prod(x - alpha)
        bpoly = np.poly(b)[::-1]
        for series in build_basis(data, "zero"):
            for theta in (0.0, 2.1):
                z = 0.5 * np.exp(1j * theta)
                lhs = data.lam * sum(
                    apoly[k] * eval_series(series, z, theta, dorder=k)
                    for k in range(data.n + 1)
                )
                rhs = z * sum(
                    bpoly[k] * eval_series(series, z, theta, dorder=k)
                    for k in range(data.n + 1)
                )
                assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))


def test_linear_independence(suite):
    from hypermono.ode_oracle import fundamental_matrix

    for data in suite:
        basis = build_basis(data, "zero")
        Y = fundamental_matrix(basis, 0.5, 0.0)
        assert np.linalg.cond(Y) < 1e10


def test_recurrence_residuals(simple, resonant):
    assert coefficient_recurrence_residual(simple, "zero", 3) <= 1e-12
    assert coefficient_recurrence_residual(resonant, "zero", 1) <= 1e-10
    assert coefficient_recurrence_residual(resonant, "infinity", 2) <= 1e-10
    for l in (1, 5, 20):
        assert coefficient_recurrence_residual(resonant, "zero", l) <= 1e-10


def test_recurrence_rejects_bad_l(simple):
    with pytest.raises(ValueError):
        coefficient_recurrence_residual(simple, "zero", 0)


def test_branch_required(simple):
    s = build_basis(simple, "zero")[0]
    with pytest.raises(BranchRequiredError):
        eval_series(s, 0.25)
    with pytest.raises(BranchRequiredError):
        eval_series(s, 0.25 * np.exp(1j), 0.0)  # arg disagrees with angle(z)


def test_domain_checks(simple):
    basis0 = build_basis(simple, "zero")[0]
    with pytest.raises(ValueError):
        eval_series(basis0, 1.5, 0.0)
    basis_inf = build_basis(simple, "infinity")[0]
    with pytest.raises(ValueError):
        eval_series(basis_inf, 0.5, 0.0)
    with pytest.raises(ValueError):
        eval_series(basis0, 0.0, 0.0)


def test_convergence_cap(simple):
    s = build_basis(simple, "zero")[0]
    with pytest.raises(ConvergenceError):
        eval_series(s, 0.999999, 0.0)


def test_spread_class_leading_zeros():
    # beta class {1/5, 26/5} spans five integers, so the infinity-side
    # series at the maximal representative starts with five vanishing
    # terms; the tail cutoff must not fire inside that prefix
    data = validate_irreducible((F(0), F(1, 2)), (F(1, 5), F(26, 5)))
    series = next(
        s for s in build_basis(data, "infinity") if s.representative == F(26, 5)
    )
    assert all(series.jets[l].value == 0 for l in range(5))
    z = 3.0
    val = eval_series(series, z, 0.0)
    ref = sum(
        complex(balanced_gamma(data, -l + 26 / 5)) * z ** (-l + 26 / 5)
        for l in range(80)
    )
    assert val == pytest.approx(ref, rel=1e-11)


def test_jets_extend_beyond_table(simple):
    s = build_basis(simple, "zero", N=5)[0]
    # |z| = 0.9 needs far more than 5 terms; lazily computed jets kick in
    v = eval_series(s, 0.9, 0.0)
    ref = mp.nsum(
        lambda l: mp.rgamma(l + 1) * mp.rgamma(-l + mp.mpf(3) / 2) * mp.mpf("0.9") ** l,
        [0, mp.inf],
    )
    assert v == pytest.approx(complex(ref), rel=1e-11)


def test_build_basis_validation(simple):
    with pytest.raises(ValueError):
        build_basis(simple, "nowhere")
    with pytest.raises(ValueError):
        build_basis(simple, "zero", N=0)


def _termwise(s, z, arg, dorder, terms=200):
    """Reference D**dorder S: a fixed number of terms, each from jet arithmetic."""
    from hypermono import _taylor as tj

    logz = complex(math.log(abs(z)), arg)
    sign = 1 if s.side == "zero" else -1
    total = 0.0 + 0.0j
    for l in range(terms):
        x = sign * l + float(s.representative)
        # G(x + tau) (x + tau)**dorder z**(x + tau), r-th normalized tau-derivative
        g = tj.from_normalized(np.asarray(s.jet(l).coefficients, dtype=complex))
        g = tj.tmul(g, tj.tpow_int(tj.tlinear(x, 1.0, s.r), dorder))
        g = tj.tmul(g, tj.texp(tj.tlinear(x * logz, logz, s.r)))
        total += tj.to_normalized(g)[s.r]
    return total


@pytest.mark.parametrize("case", ["simple", "resonant_log", "infinity"])
def test_one_pass_rows_match_single_rows(case, simple, resonant):
    from hypermono.local_solutions import eval_derivatives

    if case == "simple":
        basis, z, arg = build_basis(simple, "zero"), 0.4 * np.exp(2.0j), 2.0
    elif case == "resonant_log":
        basis, z, arg = build_basis(resonant, "zero"), 0.5 * np.exp(-1.0j), -1.0 + 2 * math.pi
        assert basis[1].r == 1
    else:
        data = validate_irreducible((F(0), F(1, 3), F(2, 3)), (F(1, 4), F(1, 2), F(3, 4)))
        basis, z, arg = build_basis(data, "infinity"), 2.5 * np.exp(0.7j), 0.7
    rows = 4
    for s in basis:
        got = eval_derivatives(s, z, arg, range(rows))
        single = np.array([eval_series(s, z, arg, dorder=d) for d in range(rows)])
        ref = np.array([_termwise(s, z, arg, d) for d in range(rows)])
        assert np.all(np.abs(got - single) <= 1e-13 * np.abs(single))
        assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref))
