"""Local solution bases at 0 and infinity, with log terms in resonant cases.

The basis element indexed by (j, r) is

    S_{j,r}(z) = sum_l (d/(2 pi i dt))**r |_{t=rep}  G(l + t) z**(l + t)

summed over l >= 0 at z = 0 (and with l replaced by -l at infinity).  The
r-th normalized derivative of the product expands by Leibniz into jet
coefficients of G times powers of log(z)/(2 pi i); the series is summed
with an adaptive tail criterion.  The branch of log z is part of the
evaluation point: callers pass arg z as a real number on the universal
cover, which is what makes monodromy observable.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import _taylor as tj
from .exponents import ExponentData, Index, group_exponents
from .gammaprod import Jet, balanced_gamma_jet

__all__ = [
    "SolutionSeries",
    "BranchRequiredError",
    "ConvergenceError",
    "build_basis",
    "eval_series",
    "eval_derivatives",
    "coefficient_recurrence_residual",
]

#: stop once this many consecutive terms are below the relative tail tolerance
TAIL_RUN = 5
TAIL_RTOL = 1e-14
HARD_CAP = 100_000


class BranchRequiredError(ValueError):
    """Evaluation needs an explicit arg z on the universal cover."""


class ConvergenceError(RuntimeError):
    """The series did not meet the tail criterion within the hard cap."""


@dataclass(frozen=True)
class SolutionSeries:
    """Truncated log-power series data for one basis element."""

    side: str                       # 'zero' or 'infinity'
    j: int                          # 1-based group index
    r: int                          # derivative order, r < m_j
    representative: Index
    data: ExponentData
    truncation: int
    jets: tuple[Jet, ...]           # jets of G(+-l + t) for l = 0..truncation
    _extra: dict = field(default_factory=dict, repr=False, compare=False)

    def jet(self, l: int) -> Jet:
        """Jet of the l-th term; beyond the table they are computed on demand."""
        if l <= self.truncation:
            return self.jets[l]
        cached = self._extra.get(l)
        if cached is None:
            cached = balanced_gamma_jet(self.data, self.representative,
                                        self.r, self._shift(l))
            self._extra[l] = cached
        return cached

    def _shift(self, l: int) -> int:
        return l if self.side == "zero" else -l


def build_basis(data: ExponentData, side: str, N: int = 80) -> list[SolutionSeries]:
    """All n series for one side, ordered like the multiplicity structure.

    The definition requires r < m_j, so each group of multiplicity m
    contributes orders r = 0..m-1 (n series in total).
    """
    if side not in ("zero", "infinity"):
        raise ValueError(f"side must be 'zero' or 'infinity', got {side!r}")
    if N < 1:
        raise ValueError("truncation must be positive")
    ms = group_exponents(data, "alpha" if side == "zero" else "beta")
    sign = 1 if side == "zero" else -1
    out = []
    for j, (rep, m) in enumerate(zip(ms.representatives, ms.multiplicities), start=1):
        for r in range(m):
            jets = tuple(
                balanced_gamma_jet(data, rep, r, sign * l) for l in range(N + 1)
            )
            out.append(SolutionSeries(side=side, j=j, r=r, representative=rep,
                                      data=data, truncation=N, jets=jets))
    return out


def eval_series(s: SolutionSeries, z: complex, arg: float | None = None,
                dorder: int = 0) -> complex:
    """Value of D**dorder S at the universal-cover point (|z|, arg).

    ``arg`` fixes the branch of log z and must agree with the angle of z
    mod 2 pi.  D = z d/dz acts on the l-th term as multiplication by the
    jet of (l + t), so derivatives reuse the same gamma jets.  This is the
    one-row case of :func:`eval_derivatives`.
    """
    return complex(eval_derivatives(s, z, arg, (dorder,))[0])


def eval_derivatives(s: SolutionSeries, z: complex, arg: float | None,
                     dorders) -> np.ndarray:
    """Values of D**d S for each d in ``dorders``, from one pass over the terms.

    The terms are summed a block at a time (first the jet table, then
    blocks of doubling length) as a (row, term) array.  Each row stops
    where the tail rule alone would stop it: after TAIL_RUN consecutive
    terms below TAIL_RTOL times the largest partial sum so far, so each
    row stops at the same term whichever other rows are asked for.
    """
    logz = _log_point(s, z, arg)
    dorders = np.asarray(dorders, dtype=int)
    rows = len(dorders)
    sign = 1 if s.side == "zero" else -1
    t0 = float(s.representative)
    coef, expo, mix = _row_tables(s.r, dorders, logz / (2j * math.pi))

    # z**(sign*l + t0), advanced multiplicatively over l
    zpow = cmath.exp(t0 * logz)
    zstep = cmath.exp(sign * logz)
    total = np.zeros(rows, dtype=complex)
    scale = np.zeros(rows)
    run = np.zeros(rows, dtype=int)
    out = np.zeros(rows, dtype=complex)
    done = np.zeros(rows, dtype=bool)
    lo, hi = 0, s.truncation + 1
    while lo <= HARD_CAP:
        hi = min(hi, HARD_CAP + 1)
        jets = np.array([s.jet(l).coefficients for l in range(lo, hi)], dtype=complex)
        x = sign * np.arange(lo, hi) + t0
        zp = np.cumprod(np.concatenate(([zpow], np.full(hi - lo - 1, zstep))))
        # W[l, q] is the q-th weighted B column of _row_tables at term l
        W = jets @ mix
        terms = np.zeros((rows, hi - lo), dtype=complex)
        for q in range(mix.shape[1]):
            terms += coef[:, q, None] * x ** expo[:, q, None] * W[:, q]
        terms *= zp
        sums = np.cumsum(np.column_stack([total, terms]), axis=1)[:, 1:]
        scales = np.maximum.accumulate(np.column_stack([scale, np.abs(sums)]), axis=1)[:, 1:]
        # the tail test only starts once something nonzero has appeared:
        # a class spread over several integers makes that many leading
        # gamma jets vanish identically
        small = (scales > 0.0) & (np.abs(terms) <= TAIL_RTOL * scales)
        # length of the run of small terms ending at each position
        k = np.arange(hi - lo)
        runs = k - np.maximum.accumulate(np.where(small, -1 - run[:, None], k), axis=1)
        hit = runs >= TAIL_RUN
        stop = hit.any(axis=1) & ~done
        out[stop] = sums[stop, hit[stop].argmax(axis=1)]
        done |= stop
        if done.all():
            return out
        total, scale, run = sums[:, -1], scales[:, -1], runs[:, -1]
        zpow = zp[-1] * zstep
        lo, hi = hi, 2 * hi
    raise ConvergenceError(f"series did not converge within {HARD_CAP} terms")


def _log_point(s: SolutionSeries, z: complex, arg: float | None) -> complex:
    """log z on the universal cover, after checking arg and the side's domain."""
    if arg is None:
        raise BranchRequiredError("pass arg z explicitly (universal cover)")
    z = complex(z)
    rho = abs(z)
    if rho == 0:
        raise ValueError("z must be nonzero")
    # arg is authoritative for the angle (universal cover); the angle of z
    # only cross-checks against gross mismatches
    mism = (arg - cmath.phase(z) + math.pi) % (2 * math.pi) - math.pi
    if abs(mism) > 1e-4:
        raise BranchRequiredError(
            f"arg={arg} disagrees with the angle of z={z} mod 2 pi"
        )
    if s.side == "zero" and rho >= 1.0:
        raise ValueError("side 'zero' series converge only for |z| < 1")
    if s.side == "infinity" and rho <= 1.0:
        raise ValueError("side 'infinity' series converge only for |z| > 1")
    return complex(math.log(rho), arg)


def _row_tables(r: int, dorders: np.ndarray, w: complex):
    """Weights that turn jets of G(+-l + t) into the terms of D**d S_r.

    With c the normalized jet at x = +-l + rep and w = log z/(2 pi i), the
    term of D**d S is z**x times

        sum_q binom(d, q) x**(d-q) r!/((r-q)! (2 pi i)**q) B_{r-q},
        B_m = sum_p binom(m, p) w**p c_{m-p},

    the normalized r-th derivative of G(x + tau) (x + tau)**d z**tau.
    Returns coef[d, q] = binom(d, q), expo[d, q] = max(d - q, 0) and mix,
    with (c @ mix)[q] = r!/((r-q)! (2 pi i)**q) B_{r-q}.
    """
    width = min(int(dorders.max()), r) + 1
    mix = np.zeros((r + 1, width), dtype=complex)
    for q in range(width):
        m = r - q
        kq = math.factorial(r) / math.factorial(m) / (2j * math.pi) ** q
        for i in range(m + 1):
            mix[i, q] = kq * math.comb(m, i) * w ** (m - i)
    coef = np.array([[math.comb(int(d), q) for q in range(width)] for d in dorders],
                    dtype=float)
    expo = np.maximum(dorders[:, None] - np.arange(width)[None, :], 0)
    return coef, expo, mix


def coefficient_recurrence_residual(data: ExponentData, side: str, l: int) -> float:
    """Jet-level residual of the contiguity of adjacent series coefficients.

    The functional identity G(s) prod(s - alpha_i) = G(s-1) prod(beta_i - s + 1)
    restricted to s = l + t becomes an identity of jets at each group
    representative; the residual is the worst relative coefficient
    mismatch over the side's groups.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    if side not in ("zero", "infinity"):
        raise ValueError(f"side must be 'zero' or 'infinity', got {side!r}")
    ms = group_exponents(data, "alpha" if side == "zero" else "beta")
    sign = 1 if side == "zero" else -1
    worst = 0.0
    for rep, m in zip(ms.representatives, ms.multiplicities):
        order = m - 1
        shift = sign * l
        jet_l = tj.from_normalized(
            np.asarray(balanced_gamma_jet(data, rep, order, shift).coefficients)
        )
        jet_lm1 = tj.from_normalized(
            np.asarray(balanced_gamma_jet(data, rep, order, shift - 1).coefficients)
        )
        lhs = jet_l
        rhs = jet_lm1
        base = shift + float(rep)
        for a in data.alpha:
            lhs = tj.tmul(lhs, tj.tlinear(base - float(a), 1.0, order))
        for b in data.beta:
            rhs = tj.tmul(rhs, tj.tlinear(-(base - 1) + float(b), -1.0, order))
        scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)), 1e-300)
        worst = max(worst, float(np.max(np.abs(lhs - rhs)) / scale))
    return worst
