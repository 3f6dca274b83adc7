"""Reciprocal gamma, balanced gamma products, and their shift-parameter jets.

The balanced product

    G(s) = 1 / (prod_i Gamma(s - alpha_i + 1) * prod_i Gamma(-s + beta_i + 1))

is entire, and its Taylor jets in the shift parameter t (normalized by
powers of 2*pi*i) supply the coefficients of every local solution series.
Reciprocal gamma is scipy.special.rgamma, whose zeros at the non-positive
integers come out exact.  The jets come as one (L, order+1) table for a
whole range of integer shifts l (``balanced_gamma_jets``; a single jet is
its one-row case), built from broadcast gammaln, gammasgn, psi and Hurwitz
zeta values and row-wise jet arithmetic in log space.  The growth check
along the imaginary axis is summed from log-gamma values as well.

Indices, and the base point t0 of a jet, are exact (``int`` or
``Fraction``; see ``exponents``), so the reflection zeros of G(l + t) at
t = t0 are found by exact integer tests on l + t0 - alpha_i + 1 and
-l - t0 + beta_i + 1, with no tolerance: whether a factor's offset is an
integer is decided once, and its zeros are then an integer range of l.

An optional extended-precision mode (about 30 significant digits, via
mpmath) can be switched on for oracle comparisons that want headroom.  It
covers the products of 2n factors, ``balanced_gamma`` and
``balanced_gamma_jets``, whose results are rounded back to complex128 on
return; a single reciprocal gamma is always scipy's.  The mode is held in
a context variable whose only writer is ``precision_context``, so it
belongs to the context (thread or task) that set it; a new thread starts
in double precision.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np
import scipy.special as sp

from . import _taylor as tj
from .exponents import ExponentData, Index
from .report import VerificationReport

__all__ = [
    "Jet",
    "reciprocal_gamma",
    "gamma",
    "balanced_gamma",
    "balanced_gamma_jet",
    "balanced_gamma_jets",
    "gamma_identity_residual",
    "stirling_bound_check",
    "pw_growth_check",
    "get_precision",
    "precision_context",
]

_PRECISION: ContextVar[str] = ContextVar("hypermono_precision", default="double")
_EXTENDED_DPS = 30


def get_precision() -> str:
    return _PRECISION.get()


@contextmanager
def precision_context(mode: str):
    """Run the body in precision ``mode`` ('double' or 'extended')."""
    if mode not in ("double", "extended"):
        raise ValueError(f"precision must be 'double' or 'extended', got {mode!r}")
    token = _PRECISION.set(mode)
    try:
        yield
    finally:
        _PRECISION.reset(token)


def reciprocal_gamma(s: complex) -> complex:
    """Entire function 1/Gamma(s); exact zeros at s = 0, -1, -2, ..."""
    return complex(sp.rgamma(complex(s)))


def gamma(s: complex) -> complex:
    """Gamma(s) from the same scipy kernel (poles raise ZeroDivisionError)."""
    r = reciprocal_gamma(s)
    if r == 0:
        raise ZeroDivisionError(f"Gamma pole at s={s}")
    return 1.0 / r


def balanced_gamma(data: ExponentData, s):
    """The entire product of 2n reciprocal gamma factors at s: a complex
    for a scalar s, an array of the same shape for an array."""
    s = np.asarray(s, dtype=complex)
    if get_precision() == "extended":
        acc = np.array([_balanced_mp(data, complex(x), 0)[0] for x in s.flat],
                       dtype=complex).reshape(s.shape)
    else:
        acc = np.ones_like(s)
        for a in data.alpha:
            acc = acc * sp.rgamma(s - float(a) + 1.0)
        for b in data.beta:
            acc = acc * sp.rgamma(-s + float(b) + 1.0)
    return complex(acc) if acc.ndim == 0 else acc


def _balanced_mp(data: ExponentData, s0, order: int) -> list:
    """30-digit Taylor coefficients of t -> G(s0 + t) at t = 0.

    ``order = 0`` gives the value alone.  ``s0`` is complex or an exact
    index; it is converted at the working precision.
    """
    import mpmath as mp

    with mp.workdps(_EXTENDED_DPS):
        s0m = _to_mp(s0)

        def G(t):
            acc = mp.mpc(1)
            for a in data.alpha:
                acc *= mp.rgamma(s0m + t - _to_mp(a) + 1)
            for b in data.beta:
                acc *= mp.rgamma(-s0m - t + _to_mp(b) + 1)
            return acc

        return [complex(c) for c in mp.taylor(G, mp.mpf(0), order)]


def _to_mp(x):
    import mpmath as mp

    if isinstance(x, complex):
        return mp.mpc(x.real, x.imag)
    return mp.mpf(x.numerator) / mp.mpf(x.denominator)


# --- jets ------------------------------------------------------------------

@dataclass(frozen=True)
class Jet:
    """Normalized jet: coefficients[r] = (d/(2 pi i dt))**r F(t) at t0."""

    t0: float
    order: int
    coefficients: tuple[complex, ...]

    def __post_init__(self):
        if len(self.coefficients) != self.order + 1:
            raise ValueError("coefficient count must be order+1")

    @property
    def value(self) -> complex:
        return self.coefficients[0]


def _loggamma_jets(x: np.ndarray, order: int) -> np.ndarray:
    """Taylor jets of log Gamma(x + tau) at real non-pole x, one per entry.

    The result has shape x.shape + (order+1,).  The constant term is a
    complex log: magnitude from gammaln, imaginary part pi where
    Gamma(x) < 0, so that exponentiating restores the sign.
    """
    out = np.empty(x.shape + (order + 1,), dtype=complex)
    out[..., 0] = sp.gammaln(x) + 1j * np.pi * (sp.gammasgn(x) < 0)
    if order >= 1:
        out[..., 1] = sp.psi(x)
    if order >= 2:
        # psi^(k)(x)/(k+1)! = (-1)^(k+1) zeta(k+1, x)/(k+1) for k >= 1
        k1 = np.arange(2.0, order + 1.0)
        out[..., 2:] = (-1.0) ** k1 * sp.zeta(k1, x[..., None]) / k1
    return out


def balanced_gamma_jets(data: ExponentData, t0: Index, order: int, shifts) -> np.ndarray:
    """Normalized jets of t -> G(l + t) at t = t0 for each integer l in
    ``shifts``, as an (L, order+1) table; t0 is an exact index (int or
    Fraction) such as a group representative.

    Factor f is 1/Gamma(x_f) with x_f = l + t0 - a + 1 (alpha side) or
    -l - t0 + b + 1 (beta side).  Whether its offset is an integer is
    decided once per factor, exactly; the reflection zeros are then the
    integer range of l where x_f <= 0.  The table is assembled in log
    space from one broadcast gammaln, psi and Hurwitz zeta call over all
    factors and rows: regular factors contribute -log Gamma jets (so the
    magnitudes of the 2n factors, which individually overflow double range
    for |l| in the hundreds, cancel before exponentiation), while a factor
    at a zero contributes an exact sin(pi tau)/pi jet times a log Gamma
    jet via the reflection formula.  No finite differences anywhere.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    ls = np.asarray(shifts, dtype=np.int64)
    if get_precision() == "extended":
        rows = [_balanced_mp(data, int(l) + t0, order) for l in ls]
        return tj.to_normalized(np.array(rows, dtype=complex).reshape(len(ls), order + 1))

    n = data.n
    sides = np.array([1] * n + [-1] * n)
    offsets = [t0 - a + 1 for a in data.alpha] + [b - t0 + 1 for b in data.beta]
    # x_f = m_f + frac_f with m_f = sides_f l + whole_f an integer and
    # |frac_f| <= 1/2: the zero test is exact, and an offset just off an
    # integer keeps its fractional part rather than rounding onto a pole
    whole = [round(c) for c in offsets]
    frac = np.array([float(c - k) for c, k in zip(offsets, whole)])
    integral = np.array([c == k for c, k in zip(offsets, whole)])
    m = sides[:, None] * ls + np.array(whole, dtype=np.int64)[:, None]
    zero = integral[:, None] & (m <= 0)
    # 1/Gamma(m+tau) = (-1)^m sin(pi tau)/pi * Gamma(1-m-tau), and
    # 1/Gamma(m-tau) = -(-1)^m sin(pi tau)/pi * Gamma(1-m+tau)
    lg = _loggamma_jets(np.where(zero, 1 - m, m + frac[:, None]), order)
    flip = (-1.0) ** np.arange(order + 1)
    # jets in -tau: the alpha side at a zero, the beta side elsewhere
    flipped = zero == (sides > 0)[:, None]
    log_acc = np.sum(np.where(zero, 1.0, -1.0)[..., None]
                     * np.where(flipped[..., None], flip, 1.0) * lg, axis=0)
    count = zero.sum(axis=0)
    sign = np.prod(np.where(zero, sides[:, None] * (1 - 2 * (m % 2)), 1), axis=0)
    sj = tj.tsin_pi_over_pi(order)
    powers = np.array([tj.tpow_int(sj, k) for k in range(count.max(initial=0) + 1)])
    acc = tj.tmul(tj.texp(log_acc), sign[:, None] * powers[count])
    return tj.to_normalized(acc)


def balanced_gamma_jet(data: ExponentData, t0: Index, order: int, l: int) -> Jet:
    """Normalized jet of t -> G(l + t) at t = t0: the one-row case of
    :func:`balanced_gamma_jets`."""
    row = balanced_gamma_jets(data, t0, order, [l])[0]
    return Jet(t0=float(t0), order=order, coefficients=tuple(row))


# --- identities and growth -------------------------------------------------

def gamma_identity_residual(data: ExponentData, s):
    """Relative residual of G(s) prod(s - alpha_i) = G(s-1) prod(beta_i - s + 1):
    a float for a scalar s, an array of the same shape for an array."""
    s = np.asarray(s, dtype=complex)
    lhs = balanced_gamma(data, s)
    for a in data.alpha:
        lhs = lhs * (s - float(a))
    rhs = balanced_gamma(data, s - 1)
    for b in data.beta:
        rhs = rhs * (-(s - 1) + float(b))
    res = np.abs(lhs - rhs) / (np.abs(lhs) + np.abs(rhs) + 1e-300)
    return float(res) if res.ndim == 0 else res


def stirling_bound_check(s_grid, C: float) -> VerificationReport:
    """Ratio of |1/Gamma| to the (1+|s|)^(1/2-Re s) e^(arg s Im s + Re s) bound.

    The grid should avoid the negative real axis, where arg is ambiguous.
    """
    if C <= 0:
        raise ValueError("C must be positive")
    grid = np.array([complex(s) for s in s_grid], dtype=complex)
    if not grid.size:
        raise ValueError("grid must be nonempty")
    bound = ((1.0 + np.abs(grid)) ** (0.5 - grid.real)
             * np.exp(np.angle(grid) * grid.imag + grid.real))
    # NaN ratios never count; ties go to the first point
    ratio = np.abs(sp.rgamma(grid)) / bound
    ratio = np.where(ratio > 0, ratio, 0.0)
    k = int(np.argmax(ratio))
    worst = float(ratio[k])
    worst_s = complex(grid[k])
    report = VerificationReport()
    report.add(
        "stirling_bound",
        passed=bool(np.isfinite(worst) and worst <= C),
        residual=worst,
        C=C,
        worst_point=[worst_s.real, worst_s.imag],
        grid_size=len(grid),
    )
    return report


def pw_growth_check(data: ExponentData, ymax: float = 40.0) -> VerificationReport:
    """Growth of log|G(iy)| along the imaginary axis.

    The product of 2n reciprocal gammas grows like exp(pi n |y|) times a
    power of |y|; the check reports the largest finite-difference slope on
    |y| <= ymax and compares it with ``slope_bound`` = pi*n + 0.05.  log|G(iy)|
    is summed from the factors' log-gamma values, since G(iy) itself leaves
    double range at n = 6 (about e^(6 pi 40) at y = 40).
    """
    n = data.n
    slope_bound = math.pi * n + 0.05
    ys = np.arange(1.0, ymax + 1e-9, 0.5)
    iy = 1j * ys[:, None]
    logs = -(sp.loggamma(iy - np.array(data.alpha_floats()) + 1).real.sum(axis=1)
             + sp.loggamma(-iy + np.array(data.beta_floats()) + 1).real.sum(axis=1))
    slopes = np.diff(logs) / np.diff(ys)
    max_slope = float(slopes.max())
    # normalized excess over pi*n stays bounded above
    excess = (logs - math.pi * n * ys) / np.log1p(ys)
    report = VerificationReport()
    report.add(
        "pw_slope",
        passed=max_slope <= slope_bound,
        residual=max_slope,
        slope_bound=slope_bound,
        pi_n=math.pi * n,
        max_normalized_excess=float(excess.max()),
    )
    return report
