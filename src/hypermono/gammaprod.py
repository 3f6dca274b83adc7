"""Reciprocal gamma, balanced gamma products, and their shift-parameter jets.

The balanced product

    G(s) = 1 / (prod_i Gamma(s - alpha_i + 1) * prod_i Gamma(-s + beta_i + 1))

is entire, and its Taylor jets in the shift parameter t (normalized by
powers of 2*pi*i) supply the coefficients of every local solution series.
Reciprocal gamma is scipy.special.rgamma, whose zeros at the non-positive
integers come out exact; the jets are built from lgamma, gammasgn, psi and
Hurwitz zeta values.

Indices, and the base point t0 of a jet, are exact (``int`` or
``Fraction``; see ``exponents``), so the reflection zeros of G(l + t) at
t = t0 are found by exact integer tests on l + t0 - alpha_i + 1 and
-l - t0 + beta_i + 1, with no tolerance.

An optional extended-precision mode (about 30 significant digits, via
mpmath) can be switched on for oracle comparisons that want headroom; the
results are rounded back to complex128 on return.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
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
    "gamma_identity_residual",
    "stirling_bound_check",
    "pw_growth_check",
    "set_precision",
    "get_precision",
    "precision_context",
]

_PRECISION = "double"
_EXTENDED_DPS = 30


def set_precision(mode: str) -> None:
    global _PRECISION
    if mode not in ("double", "extended"):
        raise ValueError(f"precision must be 'double' or 'extended', got {mode!r}")
    _PRECISION = mode


def get_precision() -> str:
    return _PRECISION


@contextmanager
def precision_context(mode: str):
    old = get_precision()
    set_precision(mode)
    try:
        yield
    finally:
        set_precision(old)


def reciprocal_gamma(s: complex) -> complex:
    """Entire function 1/Gamma(s); exact zeros at s = 0, -1, -2, ..."""
    s = complex(s)
    if get_precision() == "extended":
        import mpmath as mp

        with mp.workdps(_EXTENDED_DPS):
            return complex(mp.rgamma(mp.mpc(s.real, s.imag)))
    return complex(sp.rgamma(s))


def gamma(s: complex) -> complex:
    """Gamma(s) from the same scipy kernel (poles raise ZeroDivisionError)."""
    r = reciprocal_gamma(s)
    if r == 0:
        raise ZeroDivisionError(f"Gamma pole at s={s}")
    return 1.0 / r


def balanced_gamma(data: ExponentData, s: complex) -> complex:
    """The entire product of 2n reciprocal gamma factors at s."""
    s = complex(s)
    if get_precision() == "extended":
        return complex(_balanced_mp(data, s, 0)[0])
    acc = 1.0 + 0.0j
    for a in data.alpha:
        acc *= reciprocal_gamma(s - float(a) + 1.0)
    for b in data.beta:
        acc *= reciprocal_gamma(-s + float(b) + 1.0)
    return acc


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


def _loggamma_jet_real(x: float, order: int) -> np.ndarray:
    """Taylor jet of log Gamma(x + tau) at real non-pole x.

    The constant term is a complex log: magnitude from lgamma, imaginary
    part pi when Gamma(x) < 0, so that exponentiating restores the sign.
    """
    out = np.zeros(order + 1, dtype=complex)
    mag = math.lgamma(x)
    out[0] = mag if sp.gammasgn(x) > 0 else complex(mag, math.pi)
    if order >= 1:
        out[1] = sp.psi(x)
    if order >= 2:
        # psi^(k)(x)/(k+1)! = (-1)^(k+1) zeta(k+1, x)/(k+1) for k >= 1
        k1 = np.arange(2.0, order + 1.0)
        out[2:] = (-1.0) ** k1 * sp.zeta(k1, x) / k1
    return out


def balanced_gamma_jet(data: ExponentData, t0: Index, order: int, l: int) -> Jet:
    """Normalized jet of t -> G(l + t) at t = t0, an exact index (int or
    Fraction) such as a group representative.

    Assembled in log space: regular reciprocal-gamma factors contribute
    -log Gamma jets built from psi and Hurwitz zeta values (so the
    magnitudes of the 2n factors, which individually overflow double range
    for |l| in the hundreds, cancel before exponentiation), while factors
    sitting at a zero contribute an exact sin(pi tau)/pi jet times a log
    Gamma jet via the reflection formula.  No finite differences anywhere.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if get_precision() == "extended":
        coeffs = tj.to_normalized(np.array(_balanced_mp(data, l + t0, order)))
        return Jet(t0=float(t0), order=order, coefficients=tuple(coeffs))

    flip = np.array([(-1.0) ** q for q in range(order + 1)])
    log_acc = np.zeros(order + 1, dtype=complex)
    zero_jets = []
    for a in data.alpha:
        x = l + t0 - a + 1
        if x.denominator == 1 and x <= 0:
            # 1/Gamma(m+tau) = (-1)^m sin(pi tau)/pi * Gamma(1-m-tau)
            sj = tj.tsin_pi_over_pi(order)
            zero_jets.append(sj if x % 2 == 0 else -sj)
            log_acc += _loggamma_jet_real(float(1 - x), order) * flip
        else:
            log_acc -= _loggamma_jet_real(float(x), order)
    for b in data.beta:
        y = -l - t0 + b + 1
        if y.denominator == 1 and y <= 0:
            # 1/Gamma(m-tau) = -(-1)^m sin(pi tau)/pi * Gamma(1-m+tau)
            sj = tj.tsin_pi_over_pi(order)
            zero_jets.append(-sj if y % 2 == 0 else sj)
            log_acc += _loggamma_jet_real(float(1 - y), order)
        else:
            log_acc -= _loggamma_jet_real(float(y), order) * flip
    acc = tj.texp(log_acc)
    for zj in zero_jets:
        acc = tj.tmul(acc, zj)
    coeffs = tj.to_normalized(acc)
    return Jet(t0=float(t0), order=order, coefficients=tuple(coeffs))


# --- identities and growth -------------------------------------------------

def gamma_identity_residual(data: ExponentData, s: complex) -> float:
    """Relative residual of G(s) prod(s - alpha_i) = G(s-1) prod(beta_i - s + 1)."""
    s = complex(s)
    lhs = balanced_gamma(data, s)
    for a in data.alpha:
        lhs *= s - float(a)
    rhs = balanced_gamma(data, s - 1)
    for b in data.beta:
        rhs *= -(s - 1) + float(b)
    return abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1e-300)


def stirling_bound_check(s_grid, C: float) -> VerificationReport:
    """Ratio of |1/Gamma| to the (1+|s|)^(1/2-Re s) e^(arg s Im s + Re s) bound.

    The grid should avoid the negative real axis, where arg is ambiguous.
    """
    if C <= 0:
        raise ValueError("C must be positive")
    grid = [complex(s) for s in s_grid]
    if not grid:
        raise ValueError("grid must be nonempty")
    worst = 0.0
    worst_s = grid[0]
    for s in grid:
        ratio = _stirling_ratio(s)
        if ratio > worst:
            worst = ratio
            worst_s = s
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


def _stirling_ratio(s: complex) -> float:
    val = abs(reciprocal_gamma(s))
    arg = math.atan2(s.imag, s.real)
    bound = (1.0 + abs(s)) ** (0.5 - s.real) * math.exp(arg * s.imag + s.real)
    return val / bound


def pw_growth_check(data: ExponentData, ymax: float = 40.0,
                    slope_bound: float | None = None) -> VerificationReport:
    """Growth of log|G(iy)| along the imaginary axis.

    The product of 2n reciprocal gammas grows like exp(pi n |y|) times a
    power of |y|; the check reports the largest finite-difference slope on
    |y| <= ymax and compares it with pi*n plus a small margin.
    """
    n = data.n
    if slope_bound is None:
        slope_bound = math.pi * n + 0.05
    ys = np.arange(1.0, ymax + 1e-9, 0.5)
    logs = np.array([math.log(abs(balanced_gamma(data, 1j * y))) for y in ys])
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
