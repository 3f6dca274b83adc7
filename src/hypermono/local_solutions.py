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
    jet of (l + t), so derivatives reuse the same gamma jets.
    """
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

    logz = complex(math.log(rho), arg)
    w = logz / (2j * math.pi)
    wpow = np.array([w ** p for p in range(s.r + 1)])
    binom = np.array([math.comb(s.r, p) for p in range(s.r + 1)], dtype=float)
    sign = 1 if s.side == "zero" else -1

    t0 = float(s.representative)
    # z**(sign*l + t0), advanced multiplicatively over l
    zpow = cmath.exp(t0 * logz)
    zstep = cmath.exp(sign * logz)

    total = 0.0 + 0.0j
    small_run = 0
    scale = 0.0
    l = 0
    while l <= HARD_CAP:
        coeffs = _term_coeffs(s, l, dorder)
        # sum_p binom(r, p) c_{r-p} w**p
        term = zpow * np.dot(binom * wpow, coeffs[::-1])
        total += term
        scale = max(scale, abs(total))
        # the tail test only starts once something nonzero has appeared:
        # a class spread over several integers makes that many leading
        # gamma jets vanish identically
        if scale > 0.0 and abs(term) <= TAIL_RTOL * scale:
            small_run += 1
            if small_run >= TAIL_RUN:
                return total
        else:
            small_run = 0
        zpow *= zstep
        l += 1
    raise ConvergenceError(f"series did not converge within {HARD_CAP} terms")


def _term_coeffs(s: SolutionSeries, l: int, dorder: int) -> np.ndarray:
    """Normalized jet of G(+-l + t) (l + t)**dorder at the representative."""
    jet = np.asarray(s.jet(l).coefficients, dtype=complex)
    if dorder == 0:
        return jet
    shift = s._shift(l)
    taylor = tj.from_normalized(jet)
    lin = tj.tlinear(shift + float(s.representative), 1.0, s.r)
    taylor = tj.tmul(taylor, tj.tpow_int(lin, dorder))
    return tj.to_normalized(taylor)


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
