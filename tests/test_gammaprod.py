import math
import threading
from fractions import Fraction as F

import mpmath as mp
import numpy as np
import pytest

from hypermono import _taylor as tj
from hypermono.exponents import group_exponents, raw_exponent_data, validate_irreducible
from hypermono.gammaprod import (
    _balanced_mp,
    balanced_gamma,
    balanced_gamma_jet,
    balanced_gamma_jets,
    gamma_identity_residual,
    get_precision,
    precision_context,
    pw_growth_check,
    reciprocal_gamma,
    stirling_bound_check,
)
from hypermono.local_solutions import build_basis

mp.mp.dps = 40


def test_reciprocal_gamma_anchors():
    assert reciprocal_gamma(1) == pytest.approx(1.0, rel=1e-14)
    assert reciprocal_gamma(0) == 0
    assert reciprocal_gamma(-1) == 0
    assert reciprocal_gamma(-7) == 0


def test_gamma_value_and_pole():
    from hypermono.gammaprod import gamma

    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)
    with pytest.raises(ZeroDivisionError):
        gamma(-2)


def test_reciprocal_gamma_against_mpmath():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(400):
        r = 50.0 * math.sqrt(rng.random())
        th = 2 * math.pi * rng.random()
        s = r * np.exp(1j * th)
        ref = complex(mp.rgamma(mp.mpc(s.real, s.imag)))
        if ref == 0:
            continue
        worst = max(worst, abs(reciprocal_gamma(s) - ref) / abs(ref))
    assert worst <= 1e-13


def test_reciprocal_gamma_near_integers():
    for k in range(-30, 2):
        for eps in (1e-3, 1e-7, 1e-11):
            s = k + eps
            ref = complex(mp.rgamma(s))
            assert abs(reciprocal_gamma(s) - ref) <= 1e-13 * abs(ref)


def test_recurrence_property():
    rng = np.random.default_rng(5)
    for _ in range(200):
        s = complex(rng.uniform(-30, 30), rng.uniform(-30, 30))
        lhs = reciprocal_gamma(s + 1)
        rhs = reciprocal_gamma(s) / s
        if abs(lhs) < 1e-250:
            continue
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_balanced_gamma_anchors():
    d00 = raw_exponent_data((F(0),), (F(0),))
    assert balanced_gamma(d00, 0) == pytest.approx(1.0, rel=1e-13)
    assert balanced_gamma(d00, 0.5) == pytest.approx(2 / math.pi, rel=1e-13)
    d = validate_irreducible((F(0),), (F(1, 2),))
    assert balanced_gamma(d, -0.5) == pytest.approx(1 / math.sqrt(math.pi), rel=1e-12)


def test_balanced_gamma_reflection_oracle():
    # for alpha = beta = (0), G(s) = 1/(Gamma(s+1) Gamma(1-s)) = sin(pi s)/(pi s)
    d00 = raw_exponent_data((F(0),), (F(0),))
    rng = np.random.default_rng(1)
    for _ in range(50):
        s = complex(rng.uniform(-8, 8), rng.uniform(-8, 8))
        if abs(s) < 1e-3:
            continue
        ref = np.sin(np.pi * s) / (np.pi * s)
        assert abs(balanced_gamma(d00, s) - ref) <= 1e-12 * (abs(ref) + 1)


def test_balanced_gamma_entire_at_shifted_indices(suite):
    for data in suite:
        for x in (*data.alpha, *data.beta):
            for shift in (-3, -1, 0, 2):
                v = balanced_gamma(data, float(x) + shift)
                assert np.isfinite(v.real) and np.isfinite(v.imag)


def test_jet_order_zero_is_value():
    d = validate_irreducible((F(0), F(1, 3)), (F(1, 4), F(3, 4)))
    jet = balanced_gamma_jet(d, F(0), 0, 4)
    assert jet.value == pytest.approx(balanced_gamma(d, 4.0), rel=1e-12)


def test_jet_double_zero_at_negative_shift():
    # repeated alpha value: G(l + t) has a zero of order 2 at l < 0
    d = validate_irreducible((F(0), F(0)), (F(1, 4), F(1, 2)))
    jet = balanced_gamma_jet(d, F(0), 1, -1)
    assert jet.coefficients[0] == 0
    assert jet.coefficients[1] == 0


def test_jet_first_coefficient_finite_difference():
    d = validate_irreducible((F(0),), (F(1, 2),))
    jet = balanced_gamma_jet(d, F(0), 1, 0)
    assert jet.value == pytest.approx(2 / math.sqrt(math.pi), rel=1e-12)
    h = 1e-5
    fd = (balanced_gamma(d, h) - balanced_gamma(d, -h)) / (2 * h) / (2j * math.pi)
    assert jet.coefficients[1] == pytest.approx(fd, rel=1e-8)


def test_int_indices_give_the_fraction_jets():
    d_int = validate_irreducible((0, 1), (F(1, 3), F(2, 5)))
    d_frac = validate_irreducible((F(0), F(1)), (F(1, 3), F(2, 5)))
    for side in ("zero", "infinity"):
        for s_int, s_frac in zip(build_basis(d_int, side, N=30),
                                 build_basis(d_frac, side, N=30)):
            assert s_int.representative == s_frac.representative
            for j_int, j_frac in zip(s_int.jets, s_frac.jets):
                assert j_int.coefficients == j_frac.coefficients


@pytest.mark.parametrize("l", [0, 7, 60, 200, -4, -60, -200])
def test_jet_high_order_against_mpmath(l):
    d = validate_irreducible((F(0), F(1, 3)), (F(1, 4), F(3, 4)))

    def G(t):
        return (mp.rgamma(t + l + 1) * mp.rgamma(t + l - mp.mpf(1) / 3 + 1)
                * mp.rgamma(-t - l + mp.mpf(1) / 4 + 1)
                * mp.rgamma(-t - l + mp.mpf(3) / 4 + 1))

    jet = balanced_gamma_jet(d, F(0), 6, l)
    for r in range(7):
        ref = complex(mp.diff(G, 0, r)) / complex((2j * mp.pi) ** r)
        assert abs(jet.coefficients[r] - ref) <= 1e-10 * (abs(ref) + 1e-30)


def test_jet_beta_side_representative():
    # jets of G(-l + t) at the maximal beta representative, zeros included
    d = validate_irreducible((F(0),), (F(1, 3),))

    def G(t):
        return mp.rgamma(t + 1) * mp.rgamma(-t + mp.mpf(1) / 3 + 1)

    for l in (-1, -4):
        jet = balanced_gamma_jet(d, F(1, 3), 2, l)
        for r in range(3):
            ref = complex(mp.diff(lambda t: G(t + l + mp.mpf(1) / 3), 0, r))
            ref /= complex((2j * mp.pi) ** r)
            assert abs(jet.coefficients[r] - ref) <= 1e-11 * (abs(ref) + 1e-30)


@pytest.mark.parametrize("side", ["alpha", "beta"])
def test_jet_table_against_mp_route(side):
    # the alpha class {0, 2, 5} puts the rows l <= 4 on one, two or three
    # reflection zeros at its representative 0; the beta class {1/4, 9/4}
    # puts the rows l >= -1 on one or two at 9/4
    d = validate_irreducible((F(0), F(2), F(5), F(1, 3)),
                             (F(1, 4), F(1, 2), F(9, 4), F(2, 3)))
    shifts = [*range(-6, 7), -80, -50, -25, -10, 10, 25, 50, 80]
    for rep in group_exponents(d, side).representatives:
        ref = tj.to_normalized(np.array([_balanced_mp(d, l + rep, 3) for l in shifts]))
        for order in range(4):
            table = balanced_gamma_jets(d, rep, order, shifts)
            assert table.shape == (len(shifts), order + 1)
            want = ref[:, : order + 1]
            scale = np.max(np.abs(want), axis=1, keepdims=True)
            assert np.all(np.abs(table - want) <= 1e-10 * scale)
    zeros = balanced_gamma_jets(d, F(0), 3, shifts)
    count = np.array([sum(l + 1 - a <= 0 for a in (0, 2, 5)) for l in shifts])
    assert count.max() == 3
    for row, k in zip(zeros, count):
        assert np.all(row[:k] == 0) and row[k] != 0


def test_jet_is_the_one_row_table():
    d = validate_irreducible((F(0), F(0), F(1, 3)), (F(1, 4), F(1, 2), F(2, 3)))
    table = balanced_gamma_jets(d, F(0), 2, range(-5, 6))
    for row, l in zip(table, range(-5, 6)):
        assert balanced_gamma_jet(d, F(0), 2, l).coefficients == tuple(row)
    assert balanced_gamma_jets(d, F(0), 2, []).shape == (0, 3)


def test_gamma_identity_examples():
    d = validate_irreducible((F(0),), (F(1, 2),))
    assert gamma_identity_residual(d, 0.5) <= 1e-12
    assert gamma_identity_residual(d, -1.0) == 0.0  # both sides vanish
    d2 = validate_irreducible((F(0), F(1, 2)), (F(1, 4), F(3, 4)))
    assert gamma_identity_residual(d2, 0.3 + 0.7j) <= 1e-11


def test_gamma_identity_random(suite):
    rng = np.random.default_rng(7)
    for data in suite:
        for _ in range(30):
            s = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            assert gamma_identity_residual(data, s) <= 1e-10


def test_gamma_products_take_arrays(suite):
    pts = np.array([[0.5, -1.0 + 0.3j], [2.0 - 1.5j, 3.3j]])
    for data in suite:
        values = balanced_gamma(data, pts)
        residuals = gamma_identity_residual(data, pts)
        assert values.shape == residuals.shape == pts.shape
        # the array and scalar products may round differently in the last bit
        for s, v, r in zip(pts.flat, values.flat, residuals.flat):
            assert type(balanced_gamma(data, s)) is complex
            assert type(gamma_identity_residual(data, s)) is float
            assert v == pytest.approx(balanced_gamma(data, s), rel=1e-14)
            assert r == pytest.approx(gamma_identity_residual(data, s), abs=1e-15)


def test_stirling_anchor():
    report = stirling_bound_check([1.0], C=1.0)
    assert report.passed
    ratio = report.checks["stirling_bound"].residual
    assert ratio == pytest.approx(math.sqrt(2) / math.e, rel=1e-12)


def test_stirling_large_positive():
    report = stirling_bound_check([10.0], C=1.0)
    assert report.checks["stirling_bound"].residual < 1.0


def test_stirling_grid_finite():
    xs = np.arange(-20, 21, dtype=float)
    grid = [complex(x, y) for x in xs for y in xs if not (y == 0 and x <= 0)]
    report = stirling_bound_check(grid, C=5.0)
    assert np.isfinite(report.checks["stirling_bound"].residual)
    assert report.passed


def test_stirling_requires_positive_C():
    with pytest.raises(ValueError):
        stirling_bound_check([1.0], C=0.0)
    with pytest.raises(ValueError):
        stirling_bound_check([], C=1.0)


def test_pw_growth(suite):
    for data in suite[:4]:
        report = pw_growth_check(data)
        assert report.passed, report.to_jsonable()


def test_pw_growth_n6_slope_finite():
    # |G(40i)| is about e^(6 pi 40) here, beyond double range as a value
    d = validate_irreducible((F(4, 5), F(1, 6), F(1, 3), F(0), F(0), F(0)),
                             (F(2, 3), F(1, 4), F(3, 5), F(1, 5), F(3, 4), F(1, 4)))
    report = pw_growth_check(d)
    check = report.checks["pw_slope"]
    assert np.isfinite(check.residual) and np.isfinite(check.details["max_normalized_excess"])
    assert report.passed, report.to_jsonable()


def test_pw_growth_log_space_matches_values(suite):
    ys = np.arange(1.0, 40.0 + 1e-9, 0.5)
    five = validate_irreducible((F(0), F(1, 5), F(2, 5), F(3, 5), F(4, 5)),
                                (F(1, 6), F(1, 3), F(1, 2), F(2, 3), F(5, 6)))
    for data in [*suite, five]:
        logs = np.array([math.log(abs(balanced_gamma(data, 1j * y))) for y in ys])
        check = pw_growth_check(data).checks["pw_slope"]
        slope = float(np.max(np.diff(logs) / np.diff(ys)))
        excess = float(np.max((logs - math.pi * data.n * ys) / np.log1p(ys)))
        assert check.residual == pytest.approx(slope, rel=1e-12)
        assert check.details["max_normalized_excess"] == pytest.approx(excess, rel=1e-12)


@pytest.mark.parametrize("l", [5, -4])
def test_extended_precision_matches_double(l):
    d = validate_irreducible((F(0), F(1, 3)), (F(1, 4), F(3, 4)))
    with precision_context("extended"):
        assert get_precision() == "extended"
        v_ext = balanced_gamma(d, 0.3 + 0.2j)
        r_ext = reciprocal_gamma(2.5 - 1j)
        j_ext = balanced_gamma_jet(d, F(0), 3, l)
    assert get_precision() == "double"
    assert v_ext == pytest.approx(balanced_gamma(d, 0.3 + 0.2j), rel=1e-12)
    assert r_ext == pytest.approx(reciprocal_gamma(2.5 - 1j), rel=1e-12)
    j = balanced_gamma_jet(d, F(0), 3, l)
    for a, b in zip(j_ext.coefficients, j.coefficients):
        assert a == pytest.approx(b, rel=1e-10)


def test_jet_rejects_negative_order():
    d = validate_irreducible((F(0),), (F(1, 2),))
    with pytest.raises(ValueError):
        balanced_gamma_jet(d, F(0), -1, 0)


def test_precision_mode_belongs_to_the_context_that_set_it():
    # a thread started inside precision_context runs in a fresh context
    seen = []
    with precision_context("extended"):
        t = threading.Thread(target=lambda: seen.append(get_precision()))
        t.start()
        t.join(timeout=30)
        assert not t.is_alive()
        assert get_precision() == "extended"
    assert seen == ["double"]


def test_precision_mode_restored_when_the_body_raises():
    with pytest.raises(RuntimeError):
        with precision_context("extended"):
            raise RuntimeError("body failed")
    assert get_precision() == "double"


def test_unknown_precision_mode_is_refused_and_changes_nothing():
    with precision_context("extended"):
        with pytest.raises(ValueError):
            with precision_context("quad"):
                pass
        assert get_precision() == "extended"
    assert get_precision() == "double"
