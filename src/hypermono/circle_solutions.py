"""Solutions on the unit circle: the kernel h and its pieces f_k.

For n = 1 the kernel on (-1/2, 1/2) is

    h(phi) = e^(2 pi i alpha phi) (1 + e^(2 pi i phi))**(beta-alpha) / Gamma(beta-alpha+1),

zero outside, and its Fourier transform is the balanced gamma product.
For n up to 3 the kernel is assembled as an iterated convolution; the
restrictions to the n unit-length windows of [-n/2, n/2] are the circle
solution basis.  When some Re(beta_i - alpha_i) <= 0 the kernel is only a
distribution; the shift reduction trades it for a smooth kernel with
beta + m and a polynomial differential operator R.

Every integral, at every level of the nested convolutions and in the
Fourier check, uses one double-exponential (tanh-sinh) rule (Takahashi &
Mori 1974): x = tanh(pi/2 sinh t) maps the whole t-axis onto (-1, 1), and
its weights decay doubly exponentially toward both ends, so the trapezoid
rule in t absorbs the algebraic endpoint behavior (1/2 -+ phi)^(beta_i -
alpha_i) of the factors without knowing the exponents.  Each level
compares a coarse and a fine step and raises QuadratureError when they
disagree beyond the tolerance.  The two steps share every other coarse
node bit for bit, so a level evaluates its integrand once, on the union
of the two node sets, and reads both sums off that evaluation.  The
two-factor kernel folds its mirrored integrand onto the non-negative
nodes and sums its rows in cache-sized blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exponents import ExponentData, raw_exponent_data
from .gammaprod import balanced_gamma, reciprocal_gamma
from .local_solutions import build_basis

__all__ = [
    "CircleSample",
    "QuadratureParams",
    "QuadratureError",
    "PreconditionError",
    "h_single",
    "h_convolution",
    "is_smooth",
    "shift_reduce",
    "f_piece",
    "ft_residual",
    "ft_residuals",
    "piece_interval",
    "quad_endpoint",
    "endpoint_nodes",
]


class QuadratureError(RuntimeError):
    """The two quadrature refinements disagree beyond the tolerance."""


class PreconditionError(ValueError):
    """Input outside the smooth-convolution regime (shift_reduce first)."""


@dataclass(frozen=True)
class QuadratureParams:
    points: int = 12          # trapezoid nodes per unit panel of t (coarse step)
    refine_points: int = 18   # nodes per panel for the fine pass
    panel: float = 1.0        # panel width in t; the step is panel / points
    vmax: float = 3.6         # truncation |t| <= vmax of the double-exponential variable
    tol: float = 1e-8         # acceptable disagreement between passes


@dataclass(frozen=True)
class CircleSample:
    """Values of one piece f_k on a grid inside its open interval."""

    k: int
    grid: tuple[float, ...]
    values: tuple[complex, ...]


@lru_cache(maxsize=64)
def _endpoint_rule(npts: int, panel: float, vmax: float):
    """Nodes/weights of the double-exponential rule on (-1, 1).

    x = tanh(pi/2 sinh t), summed by the trapezoid rule in t with step
    panel / npts over |t| <= vmax.  Nodes that round to +-1 carry weights
    below 1e-16 and are dropped, so every node is interior.
    """
    step = panel / npts
    t = step * np.arange(1, int(vmax / step) + 1)
    y = 0.5 * math.pi * np.sinh(t)
    x = np.tanh(y)
    # sech^2(y) through e^(-2y), which cannot overflow
    e = np.exp(-2.0 * y)
    w = step * 0.5 * math.pi * np.cosh(t) * 4.0 * e / (1.0 + e) ** 2
    keep = x < 1.0
    x, w = x[keep], w[keep]
    # mirrored exactly, so x[::-1] == -x
    return (np.concatenate([-x[::-1], [0.0], x]),
            np.concatenate([w[::-1], [step * 0.5 * math.pi], w]))


@lru_cache(maxsize=64)
def _level_rule(quad: QuadratureParams, check: bool = True):
    """One level's node set on (-1, 1) and the weights of its passes.

    With ``check`` the nodes are the sorted union of the coarse and the
    fine rule, and the (N, 2) weight matrix holds each rule's weights on
    its own nodes and zero elsewhere, so one evaluation of the integrand
    gives both sums.  Nodes are merged only when bit-identical (the
    default rules share every even coarse node: 153 nodes instead of
    77 + 115).  Without ``check`` it is the fine rule alone, (N, 1).
    Both rules are mirrored exactly, so the union is too.
    """
    npts = (quad.points, quad.refine_points) if check else (quad.refine_points,)
    rules = [_endpoint_rule(m, quad.panel, quad.vmax) for m in npts]
    x = np.unique(np.concatenate([r[0] for r in rules]))
    W = np.zeros((len(x), len(rules)))
    for col, (xr, wr) in enumerate(rules):
        W[np.searchsorted(x, xr), col] = wr
    # every caller shares the cached arrays
    x.setflags(write=False)
    W.setflags(write=False)
    return x, W


def _disagreement(coarse, fine, tol: float, where: str = "") -> None:
    """Raise QuadratureError when the two passes differ beyond ``tol``,
    or when either is nan or infinite."""
    err = float(np.max(np.abs(coarse - fine)))
    if not err <= tol:
        raise QuadratureError(f"quadrature disagreement {err:.3e} > {tol:.1e}{where}")


def endpoint_nodes(a: float, b: float, quad: QuadratureParams):
    """Nodes clustered at the endpoints of (a, b) and their (N, 2) weights.

    The nodes are the union of the coarse and the fine rule (see
    :func:`_level_rule`); column 0 of the weights is the coarse rule,
    column 1 the fine one, each zero off its own nodes.
    """
    if not b > a:
        raise ValueError("need b > a")
    x, W = _level_rule(quad)
    half = 0.5 * (b - a)
    return 0.5 * (a + b) + half * x, half * W


def quad_endpoint(f, a: float, b: float, quad: QuadratureParams) -> complex:
    """Integrate f over (a, b) with endpoint-clustered nodes.

    Substitutes u = mid + half*tanh(pi/2 sinh t) and applies the
    trapezoid rule in t; f must accept an ndarray of interior points and
    is called once, on the union of the coarse and fine nodes.  Raises
    QuadratureError when the refinement pass moves the result by more
    than quad.tol.
    """
    u, W = endpoint_nodes(a, b, quad)
    coarse, fine = f(u) @ W
    _disagreement(coarse, fine, quad.tol)
    return complex(fine)


def h_single(alpha: float, beta: float, phi) -> np.ndarray | complex:
    """The n = 1 kernel; exact formula, zero outside (-1/2, 1/2).

    1 + e^(2 pi i phi) is evaluated as 2 cos(pi phi) e^(i pi phi), which
    keeps full relative accuracy near the endpoint zeros and makes the
    principal branch of the power explicit.
    """
    alpha = float(alpha)
    beta = float(beta)
    phi_arr = np.asarray(phi, dtype=float)
    scalar = phi_arr.ndim == 0
    phi_arr = np.atleast_1d(phi_arr)
    g = beta - alpha
    base = np.maximum(2.0 * np.cos(math.pi * phi_arr), 0.0)
    with np.errstate(all="ignore"):
        vals = (
            np.exp(1j * math.pi * (2.0 * alpha + g) * phi_arr)
            * np.power(base, g)
            * reciprocal_gamma(g + 1.0)
        )
    out = np.where(np.abs(phi_arr) < 0.5, vals, 0.0 + 0.0j)
    return out[0] if scalar else out


def _smooth_pairing(data: ExponentData):
    """Pair sorted alphas with sorted betas; maximizes the minimal gap.

    The kernel h only depends on the multiset of factors, so any pairing
    may be used for the convolution; the sorted one is smooth whenever
    any pairing is.
    """
    alphas = sorted(data.alpha_floats())
    betas = sorted(data.beta_floats())
    return list(zip(alphas, betas))


def is_smooth(data: ExponentData) -> bool:
    """Every gap beta_i - alpha_i of the sorted pairing is positive."""
    return all(b - a > 0 for a, b in _smooth_pairing(data))


def _require_smooth(data: ExponentData):
    if not is_smooth(data):
        raise PreconditionError(
            "some beta_i - alpha_i <= 0 in the best pairing; shift_reduce first"
        )
    return _smooth_pairing(data)


DEFAULT_QUAD = QuadratureParams()


def h_convolution(data: ExponentData, phi, quad: QuadratureParams | None = None):
    """The kernel h at phi as an (n-1)-fold convolution integral, n <= 3."""
    quad = quad or DEFAULT_QUAD
    pairs = _require_smooth(data)
    n = data.n
    if n > 3:
        raise PreconditionError("direct convolution is limited to n <= 3")
    phi_arr = np.atleast_1d(np.asarray(phi, dtype=float))
    scalar = np.asarray(phi).ndim == 0
    if n == 1:
        vals = h_single(pairs[0][0], pairs[0][1], phi_arr)
    elif n == 2:
        vals = _conv2_batch(pairs[0], pairs[1], phi_arr, quad)
    else:
        vals = _conv3_batch(pairs, phi_arr, quad)
    return vals[0] if scalar else vals


#: rows of w per block of :func:`_conv2_batch`: a block's (rows, nodes)
#: temporaries stay in cache (about 0.3 MB each at the default rules)
_CHUNK = 512


def _conv2_batch(pair1, pair2, ws, quad: QuadratureParams,
                 check: bool = True) -> np.ndarray:
    """(h_1 * h_2)(w) for an array of w, as one tensor quadrature.

    The u-interval is (max(-1/2, w-1/2), min(1/2, w+1/2)); its endpoints
    are where one factor leaves its support, so the integrand is smooth
    inside for every w and the whole batch shares one endpoint rule.
    Both factors lie inside their supports there, so their product is
    exp(g1 log B1 + g2 log B2 + i theta) times the two reciprocal gammas
    (B the 2 cos(pi phi) bases, theta the phases of :func:`h_single`).
    The interval's midpoint is w/2, so on the mirrored rule B2 is B1 at
    the mirrored node, and the part of theta that is the same at every
    node leaves the sum.  What is left of theta is odd in the node, so
    the sum folds onto the non-negative nodes x:
    ((m(x) + m(-x)) cos theta) @ w + i ((m(x) - m(-x)) sin theta) @ w,
    m the magnitude, with the centre weight halved; cos and sin are
    taken on half the nodes.
    With ``check`` the coarse and the fine pass are read off one
    evaluation on the union of their nodes (:func:`_level_rule`) and
    compared; with it off only the fine pass runs (the nested triple
    convolution does its own coarse/fine comparison one level up).  The
    rows are summed in blocks of ``_CHUNK``.
    """
    ws = np.atleast_1d(np.asarray(ws, dtype=float)).ravel()
    out = np.zeros(ws.shape, dtype=complex)
    lo = np.maximum(-0.5, ws - 0.5)
    hi = np.minimum(0.5, ws + 0.5)
    sel = np.flatnonzero(hi - lo > 1e-15)
    a1, b1 = (float(v) for v in pair1)
    a2, b2 = (float(v) for v in pair2)
    g1, g2 = b1 - a1, b2 - a2
    c1, c2 = math.pi * (a1 + b1), math.pi * (a2 + b2)
    scale = reciprocal_gamma(g1 + 1.0) * reciprocal_gamma(g2 + 1.0)
    x, W = _level_rule(quad, check)
    centre = len(x) // 2
    x = x[centre:]
    W = W[centre:].copy()
    W[0] *= 0.5
    for start in range(0, len(sel), _CHUNK):
        idx = sel[start:start + _CHUNK]
        mid = 0.5 * ws[idx]
        half = 0.5 * (hi[idx] - lo[idx])
        hx = half[:, None] * x[None, :]
        with np.errstate(divide="ignore"):
            # u = mid + hx and its mirror w - u = mid - hx
            logp = np.log(np.maximum(2.0 * np.cos(math.pi * (mid[:, None] + hx)), 0.0))
            logm = np.log(np.maximum(2.0 * np.cos(math.pi * (mid[:, None] - hx)), 0.0))
        mag_p = np.exp(g1 * logp + g2 * logm)
        mag_m = np.exp(g1 * logm + g2 * logp)
        phase = (c1 - c2) * hx
        total = ((mag_p + mag_m) * np.cos(phase)) @ W + 1j * (((mag_p - mag_m) * np.sin(phase)) @ W)
        passes = (scale * half * np.exp(1j * (c1 + c2) * mid))[:, None] * total
        if check:
            _disagreement(passes[:, 0], passes[:, 1], quad.tol)
        out[idx] = passes[:, -1]
    return out


def _conv3_batch(pairs, phis, quad: QuadratureParams) -> np.ndarray:
    """Triple-factor kernel on an array of phi, by nested tensor quadrature.

    The outer u-integral over the first factor's support is split at the
    one interior kink u = phi - round(phi) where the inner two-factor
    convolution crosses a breakpoint; both split points are affine in
    phi, so the two sub-segments of the whole array take one batch.  The
    outer level evaluates its integrand once, on the union of the coarse
    and the fine nodes of ``quad`` (:func:`_level_rule`), and compares the
    two sums; the inner two-factor level runs its fine step only.
    """
    phis = np.atleast_1d(np.asarray(phis, dtype=float)).ravel()
    out = np.zeros(phis.shape, dtype=complex)
    lo = np.maximum(-0.5, phis - 1.0)
    hi = np.minimum(0.5, phis + 1.0)
    sel = np.flatnonzero(hi - lo > 1e-15)
    if len(sel) == 0:
        return out
    a1, b1 = pairs[0]
    phis = phis[sel]

    # interior kinks of u -> g23(phi - u) at u = phi - w, w in {-1, 0, 1}
    cut = np.clip(phis - np.round(phis), lo[sel], hi[sel])
    # rows: segment (lo, cut) then (cut, hi), each over the selected phi
    a_edge = np.stack([lo[sel], cut])
    b_edge = np.stack([cut, hi[sel]])
    half = 0.5 * (b_edge - a_edge)
    x, W = _level_rule(quad)
    U = 0.5 * (a_edge + b_edge)[..., None] + half[..., None] * x
    g23 = _conv2_batch(pairs[1], pairs[2], (phis[:, None] - U).ravel(), quad,
                       check=False).reshape(U.shape)
    sums = np.where((b_edge - a_edge > 1e-15)[..., None],
                    half[..., None] * ((h_single(a1, b1, U) * g23) @ W), 0.0)
    coarse, fine = (sums[0] + sums[1]).T
    _disagreement(coarse, fine, quad.tol)
    out[sel] = fine
    return out


def shift_reduce(data: ExponentData):
    """Minimal uniform shift m >= 0 with Re(beta_i + m - alpha_i) > 0 for all i,
    plus the polynomial R with G = R * G_shifted.

    Returns (shifted ExponentData, R as numpy Polynomial, m).
    """
    worst = max(float(a) - float(b) for a, b in zip(sorted(data.alpha_floats()),
                                                    sorted(data.beta_floats())))
    m = max(0, math.floor(worst) + 1)
    shifted = raw_exponent_data(data.alpha, tuple(b + m for b in data.beta))
    R = np.polynomial.Polynomial([1.0])
    for b in data.beta:
        for p in range(1, m + 1):
            R = R * np.polynomial.Polynomial([float(b) + p, -1.0])
    return shifted, R, m


def piece_interval(n: int, k: int) -> tuple[float, float]:
    if not 0 <= k < n:
        raise ValueError(f"piece index k must be in 0..{n - 1}")
    return (-n / 2.0 + k, -n / 2.0 + k + 1.0)


def f_piece(data: ExponentData, k: int, phi_grid,
            quad: QuadratureParams | None = None) -> CircleSample:
    """Piece f_k sampled on a grid strictly inside its interval.

    In the smooth regime this is the convolution directly; otherwise the
    shifted smooth kernel is interpolated by a degree-64 Chebyshev
    polynomial on a slightly larger sub-interval and the operator
    R((1/2 pi i) d/dphi) is applied by spectral differentiation.
    """
    quad = quad or DEFAULT_QUAD
    n = data.n
    a, b = piece_interval(n, k)
    grid = np.asarray(phi_grid, dtype=float)
    if grid.ndim == 0:
        grid = grid[None]
    if not np.all((a < grid) & (grid < b)):
        raise ValueError(f"grid must lie strictly inside ({a}, {b})")

    if n > 3:
        # direct convolution cost grows exponentially with n; recover the
        # piece from transported local solutions instead (branch l = k
        # puts the requested window at component k of the circle basis)
        from .monodromy import circle_basis_values

        basis = build_basis(data, "zero")
        values = np.array([circle_basis_values(data, p, l=k, basis=basis)[k]
                           for p in grid])
        return CircleSample(k=k, grid=tuple(grid), values=tuple(values))

    shifted, R, m = shift_reduce(data)
    if m == 0:
        values = h_convolution(data, grid, quad)
        return CircleSample(k=k, grid=tuple(grid), values=tuple(np.atleast_1d(values)))

    pad = 0.1 * (grid.max() - grid.min() + 1e-3)
    lo = max(a + 0.01, grid.min() - pad)
    hi = min(b - 0.01, grid.max() + pad)
    deg = 64
    nodes = np.cos((2 * np.arange(deg + 1) + 1) * math.pi / (2 * (deg + 1)))
    xs = 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes
    fvals = h_convolution(shifted, xs, quad)
    interp = np.polynomial.Chebyshev.fit(xs, fvals, deg, domain=[lo, hi])

    values = np.zeros(grid.shape, dtype=complex)
    for q, rq in enumerate(R.coef):
        if rq == 0:
            continue
        deriv = interp.deriv(q) if q else interp
        values += rq * (2j * math.pi) ** (-q) * deriv(grid)
    return CircleSample(k=k, grid=tuple(grid), values=tuple(values))


def ft_residuals(data: ExponentData, s_values,
                 quad: QuadratureParams | None = None) -> list[float]:
    """Relative mismatch between the numerical FT of h and the gamma product.

    The transform integral is taken piece by piece (the pieces' endpoints
    are the kink points of h), each with endpoint-adapted quadrature.
    The kernel is evaluated once per piece, on the union of the coarse
    and fine nodes, and those values are shared across all the requested
    transform points, which is what makes the n = 3 nested convolution
    affordable; the sums for every s come from one product per piece.
    """
    quad = quad or DEFAULT_QUAD
    n = data.n
    if n > 3:
        raise PreconditionError("direct Fourier check is limited to n <= 3")
    _require_smooth(data)
    s_arr = np.array([complex(s) for s in s_values], dtype=complex)
    sums = np.zeros((len(s_arr), 2), dtype=complex)
    for k in range(n):
        u, W = endpoint_nodes(*piece_interval(n, k), quad)
        hw = h_convolution(data, u, quad)[:, None] * W
        sums += np.exp((-2j * math.pi * u)[None, :] * s_arr[:, None]) @ hw
    out = []
    for s, (coarse, fine) in zip(s_arr, sums):
        _disagreement(coarse, fine, quad.tol, f" at s={s}")
        ref = balanced_gamma(data, s)
        out.append(abs(fine - ref) / (1.0 + abs(ref)))
    return out


def ft_residual(data: ExponentData, s: complex,
                quad: QuadratureParams | None = None) -> float:
    """Single-point version of :func:`ft_residuals`."""
    return ft_residuals(data, [s], quad)[0]
