"""Solutions on the unit circle: the kernel h and its pieces f_k.

For n = 1 the kernel on (-1/2, 1/2) is

    h(phi) = e^(2 pi i alpha phi) (1 + e^(2 pi i phi))**(beta-alpha) / Gamma(beta-alpha+1),

zero outside, and its Fourier transform is the balanced gamma product.
For n up to 3 the kernel is assembled as an iterated convolution; the
restrictions to the n unit-length windows of [-n/2, n/2] are the circle
solution basis.  When some Re(beta_i - alpha_i) <= 0 the kernel is only a
distribution; the shift reduction trades it for a smooth kernel with
beta + m and a polynomial differential operator R.

Quadrature uses Gauss-Legendre panels in a tanh-regularized variable,
which absorbs the algebraic endpoint behavior of the factors.
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
    points: int = 12          # Gauss-Legendre nodes per panel
    refine_points: int = 18   # nodes for the error-estimate pass
    panel: float = 1.0        # panel width in the regularized variable
    vmax: float = 14.0        # truncation of the regularized variable
    tol: float = 1e-8         # acceptable disagreement between passes


@dataclass(frozen=True)
class CircleSample:
    """Values of one piece f_k on a grid inside its open interval."""

    k: int
    grid: tuple[float, ...]
    values: tuple[complex, ...]


@lru_cache(maxsize=16)
def _gl(npts: int):
    return np.polynomial.legendre.leggauss(npts)


@lru_cache(maxsize=64)
def _endpoint_rule(npts: int, panel: float, vmax: float):
    """Nodes/weights of the tanh-regularized composite rule on (-1, 1)."""
    gn, gw = _gl(npts)
    edges = np.linspace(-vmax, vmax, max(2, int(round(2 * vmax / panel)) + 1))
    vs = []
    ws = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        c = 0.5 * (lo + hi)
        h = 0.5 * (hi - lo)
        vs.append(c + h * gn)
        ws.append(h * gw)
    v = np.concatenate(vs)
    w = np.concatenate(ws)
    return np.tanh(v), w / np.cosh(v) ** 2


def endpoint_nodes(a: float, b: float, quad: QuadratureParams):
    """Two node/weight sets (coarse, fine) clustered at the endpoints of (a, b)."""
    if not b > a:
        raise ValueError("need b > a")
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    out = []
    for npts in (quad.points, quad.refine_points):
        x, w = _endpoint_rule(npts, quad.panel, quad.vmax)
        out.append((mid + half * x, half * w))
    return out


def quad_endpoint(f, a: float, b: float, quad: QuadratureParams) -> complex:
    """Integrate f over (a, b) with endpoint-clustered nodes.

    Substitutes u = mid + half*tanh(v) and applies composite
    Gauss-Legendre in v; f must accept an ndarray of interior points.
    Raises QuadratureError when the refinement pass moves the result by
    more than quad.tol.
    """
    (uc, wc), (uf, wf) = endpoint_nodes(a, b, quad)
    coarse = np.sum(wc * f(uc))
    fine = np.sum(wf * f(uf))
    if abs(coarse - fine) > quad.tol:
        raise QuadratureError(
            f"quadrature disagreement {abs(coarse - fine):.3e} > {quad.tol:.1e}"
        )
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


def _require_smooth(data: ExponentData):
    pairs = _smooth_pairing(data)
    if any(b - a <= 0 for a, b in pairs):
        raise PreconditionError(
            "some beta_i - alpha_i <= 0 in the best pairing; shift_reduce first"
        )
    return pairs


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


_CHUNK = 8192


def _conv2_batch(pair1, pair2, ws, quad: QuadratureParams,
                 check: bool = True) -> np.ndarray:
    """(h_1 * h_2)(w) for an array of w, as one tensor quadrature.

    The u-interval is (max(-1/2, w-1/2), min(1/2, w+1/2)); its endpoints
    are where one factor leaves its support, so the integrand is smooth
    inside for every w and the whole batch shares one endpoint rule.
    With ``check`` off only the fine pass runs (the nested triple
    convolution does its own coarse/fine comparison one level up).
    """
    ws = np.atleast_1d(np.asarray(ws, dtype=float)).ravel()
    out = np.zeros(ws.shape, dtype=complex)
    lo = np.maximum(-0.5, ws - 0.5)
    hi = np.minimum(0.5, ws + 0.5)
    sel = np.flatnonzero(hi - lo > 1e-15)
    a1, b1 = pair1
    a2, b2 = pair2
    rules = (quad.points, quad.refine_points) if check else (quad.refine_points,)
    for start in range(0, len(sel), _CHUNK):
        idx = sel[start:start + _CHUNK]
        mid = 0.5 * (lo[idx] + hi[idx])
        half = 0.5 * (hi[idx] - lo[idx])
        wsub = ws[idx]
        passes = []
        for npts in rules:
            x, w = _endpoint_rule(npts, quad.panel, quad.vmax)
            U = mid[:, None] + half[:, None] * x[None, :]
            vals = h_single(a1, b1, U) * h_single(a2, b2, wsub[:, None] - U)
            passes.append(np.sum(half[:, None] * w[None, :] * vals, axis=1))
        if check:
            err = float(np.max(np.abs(passes[0] - passes[1])))
            if err > quad.tol:
                raise QuadratureError(
                    f"quadrature disagreement {err:.3e} > {quad.tol:.1e}"
                )
        out[idx] = passes[-1]
    return out


def _inner_quad(quad: QuadratureParams) -> QuadratureParams:
    # the inner convolution is not oscillatory; wider panels suffice
    return QuadratureParams(points=12, refine_points=16, panel=2.0,
                            vmax=12.0, tol=max(quad.tol, 1e-8))


def _conv3_batch(pairs, phis, quad: QuadratureParams) -> np.ndarray:
    """Triple-factor kernel on an array of phi, by nested tensor quadrature.

    The outer u-integral over the first factor's support is split at the
    one interior kink u = phi - round(phi) where the inner two-factor
    convolution crosses a breakpoint; both split points are affine in
    phi, so each of the two sub-segments batches across the whole array.
    """
    phis = np.atleast_1d(np.asarray(phis, dtype=float)).ravel()
    out = np.zeros(phis.shape, dtype=complex)
    lo = np.maximum(-0.5, phis - 1.0)
    hi = np.minimum(0.5, phis + 1.0)
    sel = np.flatnonzero(hi - lo > 1e-15)
    if len(sel) == 0:
        return out
    a1, b1 = pairs[0]
    inner = _inner_quad(quad)

    # interior kinks of u -> g23(phi - u) at u = phi - w, w in {-1, 0, 1}
    cut = phis[sel] - np.round(phis[sel])
    cut = np.clip(cut, lo[sel], hi[sel])
    edges = (lo[sel], cut, hi[sel])

    total_c = np.zeros(len(sel), dtype=complex)
    total_f = np.zeros(len(sel), dtype=complex)
    for seg in range(2):
        a_edge, b_edge = edges[seg], edges[seg + 1]
        width = b_edge - a_edge
        live = width > 1e-15
        mid = 0.5 * (a_edge + b_edge)
        half = 0.5 * width
        for pass_idx, npts in enumerate((inner.points, inner.refine_points)):
            x, w = _endpoint_rule(npts, inner.panel, inner.vmax)
            U = mid[:, None] + half[:, None] * x[None, :]
            W = phis[sel][:, None] - U
            g23 = _conv2_batch(pairs[1], pairs[2], W.ravel(), inner,
                               check=False).reshape(W.shape)
            vals = h_single(a1, b1, U) * g23
            sums = np.where(live, np.sum(half[:, None] * w[None, :] * vals, axis=1), 0.0)
            if pass_idx == 0:
                total_c += sums
            else:
                total_f += sums
    err = float(np.max(np.abs(total_c - total_f)))
    if err > quad.tol:
        raise QuadratureError(f"quadrature disagreement {err:.3e} > {quad.tol:.1e}")
    out[sel] = total_f
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
            quad: QuadratureParams | None = None,
            cheb_degree: int = 64) -> CircleSample:
    """Piece f_k sampled on a grid strictly inside its interval.

    In the smooth regime this is the convolution directly; otherwise the
    shifted smooth kernel is interpolated by a Chebyshev polynomial on a
    slightly larger sub-interval and the operator R((1/2 pi i) d/dphi) is
    applied by spectral differentiation.
    """
    quad = quad or DEFAULT_QUAD
    n = data.n
    a, b = piece_interval(n, k)
    grid = np.asarray(phi_grid, dtype=float)
    if grid.ndim == 0:
        grid = grid[None]
    if np.any(grid <= a) or np.any(grid >= b):
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
    deg = cheb_degree
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
    The kernel values at the quadrature nodes are shared across all the
    requested transform points, which is what makes the n = 3 nested
    convolution affordable.
    """
    quad = quad or DEFAULT_QUAD
    n = data.n
    if n > 3:
        raise PreconditionError("direct Fourier check is limited to n <= 3")
    _require_smooth(data)
    pieces = []
    for k in range(n):
        a, b = piece_interval(n, k)
        (uc, wc), (uf, wf) = endpoint_nodes(a, b, quad)
        hc = h_convolution(data, uc, quad)
        hf = h_convolution(data, uf, quad)
        pieces.append((uc, wc * hc, uf, wf * hf))
    out = []
    for s in s_values:
        s = complex(s)
        coarse = 0.0 + 0.0j
        fine = 0.0 + 0.0j
        for uc, whc, uf, whf in pieces:
            coarse += np.sum(whc * np.exp(-2j * math.pi * uc * s))
            fine += np.sum(whf * np.exp(-2j * math.pi * uf * s))
        if abs(coarse - fine) > quad.tol:
            raise QuadratureError(
                f"quadrature disagreement {abs(coarse - fine):.3e} at s={s}"
            )
        ref = balanced_gamma(data, s)
        out.append(abs(fine - ref) / (1.0 + abs(ref)))
    return out


def ft_residual(data: ExponentData, s: complex,
                quad: QuadratureParams | None = None) -> float:
    """Single-point version of :func:`ft_residuals`."""
    return ft_residuals(data, [s], quad)[0]
