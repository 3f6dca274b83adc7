import math
from fractions import Fraction as F

import mpmath as mp
import numpy as np
import pytest

from hypermono.circle_solutions import (
    PreconditionError,
    QuadratureParams,
    QuadratureError,
    f_piece,
    ft_residual,
    ft_residuals,
    h_convolution,
    h_single,
    piece_interval,
    quad_endpoint,
    shift_reduce,
)
from hypermono.exponents import raw_exponent_data, validate_irreducible
from hypermono.gammaprod import balanced_gamma

mp.mp.dps = 25


def _h_mp(a, b, u):
    a, b = mp.mpf(a), mp.mpf(b)
    if abs(u) >= mp.mpf(1) / 2:
        return mp.mpc(0)
    return (mp.e ** (2j * mp.pi * a * u)
            * (2 * mp.cos(mp.pi * u)) ** (b - a)
            * mp.e ** (1j * mp.pi * (b - a) * u)
            / mp.gamma(b - a + 1))


def test_h_single_anchors():
    assert h_single(0, 1, 0.0) == pytest.approx(2.0, rel=1e-14)
    assert h_single(0.25, 0.75, 0.0) == pytest.approx(
        2 ** 1.5 / math.sqrt(math.pi), rel=1e-13
    )
    assert h_single(0, 1, 0.5) == 0
    assert h_single(0, 1, -0.62) == 0
    assert abs(h_single(0, 1, 0.499999)) < 1e-4


def test_h_single_vectorized_matches_scalar():
    grid = np.linspace(-0.7, 0.7, 29)
    vec = h_single(F(1, 4), F(3, 4), grid)
    for p, v in zip(grid, vec):
        assert v == h_single(F(1, 4), F(3, 4), float(p))


def test_quad_endpoint_against_mpmath():
    quad = QuadratureParams()
    # endpoint-singular integrand of the same kind the kernels produce
    f = lambda u: (0.5 - u) ** 0.25 * (u + 0.5) ** 1.5 * np.exp(1j * u)
    mine = quad_endpoint(f, -0.5, 0.5, quad)
    ref = mp.quad(
        lambda u: (mp.mpf(1) / 2 - u) ** mp.mpf("0.25")
        * (u + mp.mpf(1) / 2) ** mp.mpf("1.5") * mp.e ** (1j * u),
        [-0.5, 0.5],
    )
    assert abs(mine - complex(ref)) <= 1e-12


def test_quad_endpoint_detects_disagreement():
    quad = QuadratureParams(points=2, refine_points=18, panel=4.0, vmax=8.0, tol=1e-12)
    with pytest.raises(QuadratureError):
        quad_endpoint(lambda u: np.exp(8j * u), -0.5, 0.5, quad)


def test_conv2_against_mpmath():
    data = validate_irreducible((F(0), F(0)), (F(3, 4), F(5, 4)))
    for phi in (0.0, 0.37, -0.8):
        mine = h_convolution(data, phi)
        lo = max(-0.5, phi - 0.5)
        hi = min(0.5, phi + 0.5)
        ref = mp.quad(
            lambda u: _h_mp(0, "3/4", u) * _h_mp(0, "5/4", mp.mpf(phi) - u),
            [lo, hi],
        )
        assert abs(mine - complex(ref)) <= 1e-10


def test_conv2_empty_convolution_is_single():
    data = validate_irreducible((F(1, 8),), (F(5, 8),))
    grid = np.linspace(-0.45, 0.45, 11)
    assert np.allclose(h_convolution(data, grid), h_single(F(1, 8), F(5, 8), grid))


def test_conv2_symmetric_configuration():
    data = validate_irreducible((F(-1, 4), F(-1, 4)), (F(1, 4), F(1, 4)))
    for p in (0.2, 0.55, 0.9):
        assert abs(h_convolution(data, p) - h_convolution(data, -p)) <= 1e-8


def test_conv3_against_nested_mpmath():
    data = validate_irreducible((F(0), F(1, 3), F(2, 3)), (F(1, 2), F(3, 4), F(5, 4)))
    with mp.workdps(12):
        phi = mp.mpf("0.2")
        half = mp.mpf(1) / 2

        def inner(u):
            cuts = sorted(
                {-half, half}
                | {p for p in (phi - u - half, phi - u + half) if -half < p < half}
            )
            return mp.quad(
                lambda v: _h_mp("1/3", "3/4", v) * _h_mp("2/3", "5/4", phi - u - v),
                cuts, maxdegree=4,
            )

        ref = mp.quad(lambda u: _h_mp(0, "1/2", u) * inner(u),
                      [-half, phi, half], maxdegree=4)
    assert abs(h_convolution(data, 0.2) - complex(ref)) <= 1e-6


def test_h_outside_support_is_zero():
    data = validate_irreducible((F(0), F(0)), (F(3, 4), F(5, 4)))
    assert h_convolution(data, 1.2) == 0
    assert h_convolution(data, -3.0) == 0


def test_h_requires_smooth_regime():
    data = validate_irreducible((F(0), F(1, 2)), (F(-3, 4), F(1, 4)))
    with pytest.raises(PreconditionError):
        h_convolution(data, 0.0)


def test_h_rejects_large_n():
    data = validate_irreducible(
        (F(0), F(1, 5), F(2, 5), F(3, 5)), (F(1, 8), F(3, 8), F(5, 8), F(7, 8))
    )
    with pytest.raises(PreconditionError):
        h_convolution(data, 0.0)


def test_continuity_at_interior_breakpoint():
    # gamma exponents 5/4 each: h is C^1 at the interior breakpoint, so
    # quadratic one-sided extrapolations to the breakpoint must agree
    data = validate_irreducible((F(0), F(1, 2)), (F(5, 4), F(7, 4)))
    deltas = np.array([5e-4, 1e-3, 1.5e-3])
    left = h_convolution(data, -deltas)
    right = h_convolution(data, deltas)
    ex_l = 3 * left[0] - 3 * left[1] + left[2]
    ex_r = 3 * right[0] - 3 * right[1] + right[2]
    assert abs(ex_l - ex_r) <= 1e-6


def test_shift_reduce_trivial():
    data = validate_irreducible((F(0),), (F(1, 2),))
    shifted, R, m = shift_reduce(data)
    assert m == 0
    assert R.degree() == 0 and R(3.7) == 1.0
    assert shifted.beta == data.beta


def test_shift_reduce_single():
    data = validate_irreducible((F(0),), (F(-1, 2),))
    shifted, R, m = shift_reduce(data)
    assert m == 1
    assert shifted.beta == (F(1, 2),)
    # R(s) = -s + 1/2, the Gamma recurrence 1/Gamma(1/2-s) = (1/2-s)/Gamma(3/2-s)
    assert R(0.0) == pytest.approx(0.5)
    assert R(1.0) == pytest.approx(-0.5)


def test_shift_reduce_identity_random(suite):
    rng = np.random.default_rng(23)
    configs = [
        validate_irreducible((F(0), F(1, 2)), (F(-3, 4), F(1, 4))),
        validate_irreducible((F(0),), (F(-5, 2),)),
        validate_irreducible((F(1, 3), F(2, 3)), (F(1, 4), F(-7, 4))),
    ]
    for data in configs:
        shifted, R, m = shift_reduce(data)
        assert m >= 1
        assert R.degree() == data.n * m
        diffs = sorted(float(b) for b in shifted.beta)
        alphas = sorted(float(a) for a in shifted.alpha)
        assert all(b - a > 0 for a, b in zip(alphas, diffs))
        for _ in range(20):
            s = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            lhs = balanced_gamma(data, s)
            rhs = R(s) * balanced_gamma(shifted, s)
            assert abs(lhs - rhs) <= 1e-11 * (abs(lhs) + abs(rhs) + 1e-30)


def test_piece_interval():
    assert piece_interval(1, 0) == (-0.5, 0.5)
    assert piece_interval(2, 1) == (0.0, 1.0)
    with pytest.raises(ValueError):
        piece_interval(2, 2)


def test_f_piece_smooth_case():
    data = validate_irreducible((F(0),), (F(1, 2),))
    grid = [-0.3, 0.0, 0.3]
    sample = f_piece(data, 0, grid)
    assert sample.k == 0
    assert np.allclose(sample.values, h_single(0, 0.5, np.array(grid)))


def test_f_piece_applies_shift_operator():
    # n = 1 with beta - alpha = -1/4: compare the spectral R route against
    # the closed form, which is still pointwise finite here
    data = validate_irreducible((F(0),), (F(-1, 4),))
    grid = np.linspace(-0.3, 0.3, 7)
    sample = f_piece(data, 0, grid)
    ref = h_single(0, -0.25, grid)
    assert np.max(np.abs(np.array(sample.values) - ref)) <= 1e-8


def test_f_piece_rejects_outside_grid():
    data = validate_irreducible((F(0),), (F(1, 2),))
    with pytest.raises(ValueError):
        f_piece(data, 0, [0.0, 0.7])


def test_f_piece_rejects_nan_grid_points():
    # NaN fails every comparison, so the window test must ask for each
    # point to lie inside rather than for none to lie outside
    data = validate_irreducible((F(0),), (F(1, 2),))
    with pytest.raises(ValueError):
        f_piece(data, 0, [0.0, float("nan")])


def test_f_piece_large_n_transport_route():
    data = validate_irreducible(
        (F(0), F(1, 4), F(1, 2), F(3, 4)), (F(1, 8), F(3, 8), F(5, 8), F(7, 8))
    )
    sample = f_piece(data, 2, [0.25, 0.5])
    assert sample.k == 2
    assert all(np.isfinite(complex(v)) for v in sample.values)


def test_ft_anchor_reducible_pair():
    # alpha = 0, beta = 1: integral of (1 + e^(2 pi i phi)) over the window is 1
    data = raw_exponent_data((F(0),), (F(1),))
    assert ft_residual(data, 0.0) <= 1e-10


def test_ft_n1_grid():
    data = raw_exponent_data((F(0),), (F(1),))
    res = ft_residuals(data, [-3, -2, -1, 0, 1, 2, 3, 1j, -1j])
    assert max(res) <= 1e-8
    data2 = validate_irreducible((F(0),), (F(1, 2),))
    assert ft_residual(data2, 0.5) <= 1e-8


def test_ft_n2_product():
    data = validate_irreducible((F(0), F(0)), (F(3, 4), F(5, 4)))
    res = ft_residuals(data, [-2, 0, 1, 1j, 2j])
    assert max(res) <= 1e-6


def test_ft_rejects_nonsmooth():
    data = validate_irreducible((F(0),), (F(-1, 2),))
    with pytest.raises(PreconditionError):
        ft_residual(data, 0.0)


def _h_mp_factor(a, b):
    """mpmath h_single(a, b, .) with its constants taken once."""
    a, b = mp.mpf(str(a)), mp.mpf(str(b))
    g = b - a
    c = 1 / mp.gamma(g + 1)

    def h(u):
        if abs(u) >= mp.mpf(1) / 2:
            return mp.mpc(0)
        return c * mp.expjpi((a + b) * u) * (2 * mp.cospi(u)) ** g

    return h


# every gap beta_i - alpha_i is 1/8: the factors vanish like (1/2 -+ u)^(1/8)
_GAP_EIGHTH = ((F(0), F(1, 3), F(2, 3)), (F(1, 8), F(11, 24), F(19, 24)))


def test_conv2_near_kinks_against_mpmath():
    data = validate_irreducible(_GAP_EIGHTH[0][:2], _GAP_EIGHTH[1][:2])
    h1, h2 = _h_mp_factor(0, "1/8"), _h_mp_factor("1/3", "11/24")
    half = mp.mpf(1) / 2
    for w in (5e-4, -5e-4, 1 - 5e-4, -1 + 5e-4):
        mine = h_convolution(data, w)
        with mp.workdps(20):
            wm = mp.mpf(w)
            ref = mp.quad(lambda u: h1(u) * h2(wm - u),
                          [max(-half, wm - half), min(half, wm + half)])
        assert abs(mine - complex(ref)) <= 1e-9 * abs(complex(ref))


def test_conv3_near_kinks_against_mpmath():
    data = validate_irreducible(*_GAP_EIGHTH)
    h1, h2, h3 = (_h_mp_factor(a, b) for a, b in zip(*_GAP_EIGHTH))
    half = mp.mpf(1) / 2

    def g23(w):
        lo, hi = max(-half, w - half), min(half, w + half)
        return mp.quad(lambda v: h2(v) * h3(w - v), [lo, hi]) if hi > lo else 0

    for phi in (5e-4, 1 - 5e-4, -1 + 5e-4):
        mine = h_convolution(data, phi)
        with mp.workdps(12):
            pm = mp.mpf(phi)
            kinks = {c for c in (pm - 1, pm, pm + 1) if -half < c < half}
            ref = mp.quad(lambda u: h1(u) * g23(pm - u), sorted({-half, half} | kinks))
        assert abs(mine - complex(ref)) <= 1e-9 * abs(complex(ref))


def test_conv3_detects_disagreement():
    from hypermono.circle_solutions import _conv3_batch

    quad = QuadratureParams(points=2, refine_points=18, panel=4.0, vmax=8.0, tol=1e-12)
    pairs = list(zip(*_GAP_EIGHTH))
    with pytest.raises(QuadratureError):
        _conv3_batch([(float(a), float(b)) for a, b in pairs], np.array([0.3]), quad)


@pytest.mark.parametrize("npts, panel, vmax", [(12, 1.0, 3.6), (18, 1.0, 3.6), (2, 4.0, 8.0)])
def test_endpoint_rule_is_interior_and_mirrored(npts, panel, vmax):
    # _conv2_batch reads the second factor off the mirrored node
    from hypermono.circle_solutions import _endpoint_rule

    x, w = _endpoint_rule(npts, panel, vmax)
    assert np.all(np.abs(x) < 1.0) and np.all(w > 0)
    assert np.array_equal(x[::-1], -x) and np.array_equal(w[::-1], w)
    if npts >= 12:
        assert abs(np.sum(w) - 2.0) <= 1e-14


_UNION_RULES = [QuadratureParams(),
                QuadratureParams(points=2, refine_points=18, panel=4.0, vmax=8.0)]


@pytest.mark.parametrize("quad", _UNION_RULES)
@pytest.mark.parametrize("a, b", [(-0.5, 0.5), (0.3, 1.1)])
def test_union_nodes_give_each_rules_sum(quad, a, b):
    from hypermono.circle_solutions import _endpoint_rule, endpoint_nodes

    integrands = (lambda u: np.exp(3j * u) / (2.0 + u),
                  lambda u: (b - u) ** 0.25 * (u - a) ** 1.5 * np.exp(1j * u))
    u, W = endpoint_nodes(a, b, quad)
    assert W.shape == (len(u), 2) and np.all(np.diff(u) > 0)
    for f in integrands:
        vals = f(u)
        for col, npts in enumerate((quad.points, quad.refine_points)):
            x, w = _endpoint_rule(npts, quad.panel, quad.vmax)
            half = 0.5 * (b - a)
            ref = np.sum(half * w * f(0.5 * (a + b) + half * x))
            assert abs(vals @ W[:, col] - ref) <= 1e-15 * abs(ref)


def test_default_union_shares_the_even_coarse_nodes():
    # 77 coarse + 115 fine nodes, 39 of them bit-identical
    from hypermono.circle_solutions import _level_rule

    x, W = _level_rule(QuadratureParams())
    assert len(x) == 153 and W.shape == (153, 2)
    assert np.count_nonzero(W[:, 0]) == 77 and np.count_nonzero(W[:, 1]) == 115
    assert np.array_equal(x[::-1], -x)
    fine_only, W1 = _level_rule(QuadratureParams(), check=False)
    assert len(fine_only) == 115 and W1.shape == (115, 1)


def _conv2_unfolded(pair1, pair2, ws, quad, check=True):
    """Two-factor convolution summed over every node of each rule, with
    no fold and no row blocks: the reference for :func:`_conv2_batch`."""
    from hypermono.circle_solutions import _endpoint_rule
    from hypermono.gammaprod import reciprocal_gamma

    ws = np.asarray(ws, dtype=float)
    out = np.zeros(ws.shape, dtype=complex)
    lo = np.maximum(-0.5, ws - 0.5)
    hi = np.minimum(0.5, ws + 0.5)
    idx = np.flatnonzero(hi - lo > 1e-15)
    (a1, b1), (a2, b2) = pair1, pair2
    g1, g2 = b1 - a1, b2 - a2
    c1, c2 = math.pi * (a1 + b1), math.pi * (a2 + b2)
    scale = reciprocal_gamma(g1 + 1.0) * reciprocal_gamma(g2 + 1.0)
    mid = 0.5 * ws[idx]
    half = 0.5 * (hi[idx] - lo[idx])
    passes = []
    for npts in ((quad.points, quad.refine_points) if check else (quad.refine_points,)):
        x, w = _endpoint_rule(npts, quad.panel, quad.vmax)
        hx = half[:, None] * x[None, :]
        with np.errstate(divide="ignore"):
            logb = np.log(np.maximum(2.0 * np.cos(math.pi * (mid[:, None] + hx)), 0.0))
        mag = np.exp(g1 * logb + g2 * logb[:, ::-1])
        phase = (c1 - c2) * hx
        total = (mag * np.cos(phase)) @ w + 1j * ((mag * np.sin(phase)) @ w)
        passes.append(scale * half * np.exp(1j * (c1 + c2) * mid) * total)
    out[idx] = passes[-1]
    return out, passes


@pytest.mark.parametrize("check", [True, False])
def test_folded_conv2_matches_unfolded_sum(check):
    from hypermono.circle_solutions import _conv2_batch

    quad = QuadratureParams()
    rng = np.random.default_rng(7)
    ws = np.concatenate([c + np.array([-1e-3, -1e-6, 1e-6, 1e-3]) for c in (-1.0, 0.0, 1.0)]
                        + [rng.uniform(-1.0, 1.0, 200)])
    ws = ws[np.abs(ws) < 1.0]
    for pair1, pair2 in (((0.0, 0.125), (1 / 3, 11 / 24)), ((0.25, 1.5), (-0.5, 0.75))):
        mine = _conv2_batch(pair1, pair2, ws, quad, check=check)
        ref, _ = _conv2_unfolded(pair1, pair2, ws, quad, check=check)
        assert np.all(np.abs(mine - ref) <= 1e-14 * np.abs(ref))


def test_conv2_checked_pass_compares_the_same_two_sums():
    # a rule pair that fails the check fails it by the unfolded disagreement
    from hypermono.circle_solutions import _conv2_batch

    quad = QuadratureParams(points=2, refine_points=18, panel=4.0, vmax=8.0, tol=1e-12)
    pair1, pair2 = (0.0, 0.125), (1 / 3, 11 / 24)
    ws = np.array([0.3])
    _, (coarse, fine) = _conv2_unfolded(pair1, pair2, ws, quad)
    err = abs(coarse[0] - fine[0])
    assert err > quad.tol
    with pytest.raises(QuadratureError) as exc:
        _conv2_batch(pair1, pair2, ws, quad)
    assert float(str(exc.value).split()[2]) == pytest.approx(err, rel=1e-3)


def test_conv2_row_blocks_never_mix_rows():
    from hypermono.circle_solutions import _CHUNK, _conv2_batch

    quad = QuadratureParams()
    ws = np.random.default_rng(11).uniform(-1.2, 1.2, 2000)
    assert len(ws) > 3 * _CHUNK
    pair1, pair2 = (0.0, 0.375), (0.2, 0.9)
    batch = _conv2_batch(pair1, pair2, ws, quad)
    split = np.concatenate([_conv2_batch(pair1, pair2, part, quad)
                            for part in np.array_split(ws, 37)])
    assert np.all(np.abs(batch - split) <= 1e-15 * np.abs(split))
    assert np.all(batch[np.abs(ws) >= 1.0] == 0)


def test_ft_residuals_evaluate_each_piece_once(monkeypatch):
    import hypermono.circle_solutions as cs

    calls = []
    real = cs.h_convolution
    monkeypatch.setattr(cs, "h_convolution",
                        lambda data, phi, quad=None: calls.append(len(phi)) or real(data, phi, quad))
    data = validate_irreducible((F(0), F(0)), (F(3, 4), F(5, 4)))
    res = cs.ft_residuals(data, [-2, 0, 1, 1j, 2j])
    assert calls == [153, 153] and max(res) <= 1e-6


def test_quadrature_check_refuses_nan_and_inf():
    quad = QuadratureParams()
    with pytest.raises(QuadratureError):
        quad_endpoint(lambda u: np.full(u.shape, np.nan), -0.5, 0.5, quad)
    # infinite at every node: both sums are infinite, their difference nan
    with pytest.raises(QuadratureError), np.errstate(invalid="ignore"):
        quad_endpoint(lambda u: np.full(u.shape, np.inf), -0.5, 0.5, quad)
