"""Independent oracle: numerical analytic continuation of the equation.

The operator lambda prod(D - alpha_i) - z prod(D - beta_i), D = z d/dz,
becomes a first-order system for Y = (u, Du, ..., D^(n-1) u) with
coefficient matrix analytic away from 0 and lambda:

    Y'(z) = C(z) Y,   C = N(z)/z,   N = companion with last row
    (z b_k - lambda a_k) / (lambda - z).

This is the companion-form reduction Beukers and Heckman (1989) use for
these operators.  The right-hand side never forms C: ``OdeSystem.apply``
returns C(z) @ M as the shift M[1:] above one product of the last row of
N with M, scaled by 1/z (``coefficient_matrix`` stays as the dense
definition).

Transport along paths is an embedded Dormand-Prince 5(4) pair with PI
step control on the full fundamental matrix.  The state is flattened and
the seven stage derivatives K are kept as the rows of one (7, Y.size)
array, so each stage input is a single product of a tableau row with the
earlier stages, the error estimate is (B5 - B4) @ K, and the fifth-order
solution is the seventh stage input (first same as last).

The same loop carries P paths in lock step: a ``segment`` built from (P,)
arrays of endpoints holds P parallel curves, the state is (P, n, m), and
``apply`` takes the P points at once.  The paths share every step.  A step
is accepted only if the worst path's RMS scaled error is at most 1, and
the step cap is the smallest of the paths' own caps, so no path takes a
larger or looser step than it would alone.  One path (a 2-D state) is the
case P = 1.

Loops around 0, lambda and infinity are built from circles and radial
segments based at a point where the local series converge, so the
transported monodromy comes out in the same bases as the closed-form
matrices and can be compared entrywise, not just up to conjugation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .exponents import ExponentData, group_exponents
from .local_solutions import SolutionSeries, build_basis, eval_derivatives
from .matrices import ComplexMatrix, char_poly, poly_from_roots
from .report import VerificationReport

__all__ = [
    "OdeSystem",
    "PathSpec",
    "EvaluationNearSingularity",
    "StepFailure",
    "SingularityApproach",
    "companion_system",
    "transport",
    "loop_monodromy",
    "fundamental_matrix",
    "compare_invariants",
    "segment",
    "arc",
]

SING_MARGIN = 1e-3
RTOL = 1e-11
ATOL = 1e-13


class EvaluationNearSingularity(ValueError):
    """Coefficient evaluation too close to 0 or lambda."""


class StepFailure(RuntimeError):
    """Adaptive step size collapsed without meeting the tolerance."""


class SingularityApproach(RuntimeError):
    """A path point came within the safety margin of a singularity."""


@dataclass(frozen=True)
class OdeSystem:
    """First-order companion system equivalent to the operator."""

    data: ExponentData
    a_coeffs: np.ndarray   # prod(D - alpha_i), ascending powers of D
    b_coeffs: np.ndarray   # prod(D - beta_i), ascending powers of D
    lam: complex

    def coefficient_matrix(self, z: complex) -> np.ndarray:
        """The dense C(z) = N(z)/z, the definition :meth:`apply` follows."""
        z = self._regular_point(z)
        n = self.data.n
        N = np.eye(n, k=1, dtype=complex)
        N[-1] = (z * self.b_coeffs[:n] - self.lam * self.a_coeffs[:n]) / (self.lam - z)
        return N / z

    def apply(self, z, M: np.ndarray) -> np.ndarray:
        """C(z) @ M from the companion structure, without forming C: the
        shift M[1:] above one product of the last row of N with M, all
        scaled by 1/z.

        For P paths in lock step, z has shape (P,) and M shape (P, n, m),
        and row p of the result is C(z[p]) @ M[p]; a scalar z with a 2-D M
        is the one-path case.
        """
        z = self._regular_point(z)
        n = self.data.n
        stacked = M.ndim == 3
        w = z[:, None] if stacked else z  # (P, 1): one last row of N per path
        q = 1.0 / (self.lam - w)
        row = (w * q) * self.b_coeffs[:n] - (self.lam * q) * self.a_coeffs[:n]
        out = np.empty(M.shape, dtype=complex)
        if stacked:
            out[:, :-1] = M[:, 1:]
            out[:, -1] = (row[:, None, :] @ M)[:, 0]
            out *= (1.0 / z)[:, None, None]
        else:
            out[:-1] = M[1:]
            out[-1] = row @ M
            out *= 1.0 / z
        return out

    def _regular_point(self, z):
        """z as a complex number, or a complex array of path points, once
        every point keeps 1e-8 away from 0 and lambda."""
        if isinstance(z, np.ndarray):
            z = z.astype(complex, copy=False)
            near = np.abs(z).min() < 1e-8 or np.abs(z - self.lam).min() < 1e-8
        else:
            z = complex(z)
            near = abs(z) < 1e-8 or abs(z - self.lam) < 1e-8
        if near:
            raise EvaluationNearSingularity(f"z={z} too close to a singular point")
        return z


def companion_system(data: ExponentData) -> OdeSystem:
    """Expand the D-polynomials into the companion-form system."""
    a = poly_from_roots(data.alpha_floats(), [1] * data.n)[::-1]  # ascending in D
    b = poly_from_roots(data.beta_floats(), [1] * data.n)[::-1]
    return OdeSystem(data=data, a_coeffs=a, b_coeffs=b, lam=data.lam)


# --- paths -------------------------------------------------------------------

@dataclass(frozen=True)
class _Piece:
    """One curve, or P curves in lock step: z(t) is then a (P,) array and
    dz(t) a (P, 1, 1) array that scales the stacked (P, n, m) state."""

    z: Callable[[float], complex | np.ndarray]
    dz: Callable[[float], complex | np.ndarray]
    # distance of the piece (of each of its curves) to the singular set,
    # for step caps
    closest: float | np.ndarray


def segment(z0, z1, sing: tuple[complex, ...]) -> _Piece:
    """The straight piece from z0 to z1.  Arrays of endpoints, of shape
    (P,), give P parallel segments traversed in lock step."""
    if np.ndim(z0) or np.ndim(z1):
        z0, z1 = np.asarray(z0, dtype=complex), np.asarray(z1, dtype=complex)
        w = (z1 - z0)[:, None, None]
        dz = lambda t: w
    else:
        z0, z1 = complex(z0), complex(z1)
        dz = lambda t: (z1 - z0)
    d = np.min([_dist_segment(z0, z1, s) for s in sing], axis=0)
    return _Piece(z=lambda t: z0 + t * (z1 - z0), dz=dz, closest=d)


def arc(center: complex, radius: float, theta0: float, theta1: float,
        sing: tuple[complex, ...]) -> _Piece:
    center = complex(center)

    def z(t):
        th = theta0 + t * (theta1 - theta0)
        return center + radius * cmath.exp(1j * th)

    def dz(t):
        th = theta0 + t * (theta1 - theta0)
        return radius * 1j * (theta1 - theta0) * cmath.exp(1j * th)

    d = min(abs(abs(s - center) - radius) for s in sing)
    return _Piece(z=z, dz=dz, closest=d)


def _dist_segment(z0, z1, p: complex):
    w = z1 - z0
    ww = np.abs(w) ** 2
    t = np.clip(((p - z0) * np.conj(w)).real / np.where(ww > 0, ww, 1.0), 0.0, 1.0)
    return np.abs(z0 + t * w - p)


@dataclass(frozen=True)
class PathSpec:
    """Piecewise path (segments and arcs) avoiding the singular set."""

    pieces: tuple[_Piece, ...]
    base: complex
    margin: float = field(default=SING_MARGIN)

    def __post_init__(self):
        for p in self.pieces:
            closest = np.min(p.closest)
            if closest < self.margin:
                raise SingularityApproach(
                    f"path comes within {closest:.2e} of a singular point"
                )


# --- Dormand-Prince 5(4) -----------------------------------------------------

# Butcher tableau as arrays; row 6 of A equals B5 (first same as last)
_DP_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
])
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])
_DP_E = _DP_B5 - _DP_B4
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)


def _integrate_piece(sys: OdeSystem, piece: _Piece, Y: np.ndarray,
                     max_step: float) -> np.ndarray:
    shape = Y.shape
    paths = shape[0] if Y.ndim == 3 else 1
    y = Y.ravel()
    K = np.empty((7, y.size), dtype=complex)  # stage derivatives as rows
    t = 0.0
    h = min(max_step, 1e-2)
    err_prev = 1.0
    K[0] = (piece.dz(t) * sys.apply(piece.z(t), Y)).ravel()
    while t < 1.0 - 1e-14:
        last = t + h >= 1.0
        step = 1.0 - t if last else h
        for i in range(1, 7):
            stage = y + step * (_DP_A[i, :i] @ K[:i])
            ti = t + _DP_C[i] * step
            K[i] = (piece.dz(ti) * sys.apply(piece.z(ti), stage.reshape(shape))).ravel()
        y5 = stage  # the last stage input is the fifth-order solution
        e = step * (_DP_E @ K) / (ATOL + RTOL * np.maximum(np.abs(y), np.abs(y5)))
        # RMS of the scaled error of the worst path
        sq = (np.vdot(e, e).real if paths == 1 else
              max(np.vdot(ep, ep).real for ep in e.reshape(paths, -1)))
        err = math.sqrt(sq / (e.size // paths))
        if err <= 1.0:
            t = 1.0 if last else t + step
            y = y5
            K[0] = K[6]  # FSAL
            # PI controller
            fac = 0.9 * err ** -0.7 * err_prev ** 0.4 if err > 0 else 5.0
            err_prev = max(err, 1e-10)
            h = min(max_step, h * min(5.0, max(0.2, fac)))
        else:
            h = step * max(0.2, 0.9 * err ** -0.25)
            if h < 1e-12:
                raise StepFailure("step size underflow during transport")
    return y.reshape(shape)


def transport(sys: OdeSystem, path: PathSpec,
              Y0: ComplexMatrix | np.ndarray) -> np.ndarray:
    """Continue the fundamental matrix Y0 along the path, to ``RTOL`` and
    ``ATOL``.

    Y0 of shape (n, m) follows a path of single curves.  Y0 of shape
    (P, n, m) follows a path of pieces built from (P,) arrays of
    endpoints: state p moves along curve p, all P in lock step.
    """
    Y = Y0.entries.copy() if isinstance(Y0, ComplexMatrix) else np.array(Y0, dtype=complex)
    for piece in path.pieces:
        # pole-adjacent stiffness: cap the parameter step so that the z-step
        # stays below about a twentieth of the distance to the singular set;
        # stacked curves share the smallest of their caps
        span = np.abs(piece.dz(0.5)).ravel()
        caps = np.maximum(0.05 * piece.closest, 0.005) / np.maximum(span, 1e-12)
        max_step = min(1.0, float(np.min(caps)), 0.2)
        Y = _integrate_piece(sys, piece, Y, max_step)
    return Y


# --- loops and seeded fundamental matrices -----------------------------------

def base_angle(data: ExponentData) -> float:
    """Center of the default branch window (l = n // 2) as an angle:
    phi0 = -n/2 + l + 1/2."""
    n = data.n
    return 2 * math.pi * (-n / 2.0 + n // 2 + 0.5)


def fundamental_matrix(series: list[SolutionSeries], z, arg) -> np.ndarray:
    """Columns are the basis solutions as (u, Du, ..., D^(n-1) u) vectors.

    ``z`` and ``arg`` are one point, giving (n, n), or (P,) arrays of
    points, giving (P, n, n) from one pass per series.
    """
    n = len(series)
    return np.stack([eval_derivatives(s, z, arg, range(n)) for s in series], axis=-1)


def _sing_set(sys: OdeSystem) -> tuple[complex, ...]:
    return (0.0 + 0.0j, sys.lam)


def _loop_zero(sys: OdeSystem, rho: float, theta: float) -> PathSpec:
    sing = _sing_set(sys)
    base = rho * cmath.exp(1j * theta)
    return PathSpec(pieces=(arc(0.0, rho, theta, theta + 2 * math.pi, sing),),
                    base=base)


def _loop_lambda(sys: OdeSystem, rho: float, theta: float) -> PathSpec:
    """Based loop around lambda realizing Mlambda Minf M0 = I.

    Out along the base ray to the staging circle, counterclockwise along it
    to the lambda side, a counterclockwise circle of radius 0.4 around
    lambda, and back the same way.  The bare petal (the shortest staging
    arc) composes as Minf Mlambda M0 = I instead; taking the staging arc
    one counterclockwise turn further conjugates it into the advertised
    convention (checked against the closed-form matrices in the test
    suite).  The base must lie inside the staging circle, of radius 0.6,
    so that the turn encloses 0 and not lambda.
    """
    sing = _sing_set(sys)
    lam = sys.lam
    theta_lam = cmath.phase(lam)
    base = rho * cmath.exp(1j * theta)
    r_small = 0.4
    mid_r = 1.0 - r_small  # radius of the staging circle
    p1 = mid_r * cmath.exp(1j * theta)
    # the shortest angular route from theta to the lambda ray plus one
    # turn: counterclockwise, between pi and 3 pi
    dth = (theta_lam - theta + math.pi) % (2 * math.pi) + math.pi
    return PathSpec(pieces=(
        segment(base, p1, sing),
        arc(0.0, mid_r, theta, theta + dth, sing),
        arc(lam, r_small, theta_lam + math.pi, theta_lam + 3 * math.pi, sing),
        arc(0.0, mid_r, theta + dth, theta, sing),
        segment(p1, base, sing),
    ), base=base)


def _loop_infinity(sys: OdeSystem, rho: float, theta: float) -> PathSpec:
    """Radial out to |z| = 3, a clockwise full circle (counterclockwise in
    the 1/z chart), and radially back."""
    sing = _sing_set(sys)
    base = rho * cmath.exp(1j * theta)
    R = 3.0
    far = R * cmath.exp(1j * theta)
    return PathSpec(pieces=(
        segment(base, far, sing),
        arc(0.0, R, theta, theta - 2 * math.pi, sing),
        segment(far, base, sing),
    ), base=base)


def loop_monodromy(sys: OdeSystem, data: ExponentData, around,
                   base: complex | None = None,
                   basis: list[SolutionSeries] | None = None) -> ComplexMatrix:
    """Monodromy of the loop around one singular point, in the basis of the
    local solutions at 0 (or at infinity when seeded with a 'B' basis).

    ``around`` is 0, 'lambda' or 'infinity'.  The loop is based at ``base``
    (default 0.3 times the branch-center direction) and the columns follow
    the multiplicity-structure ordering, so the result is directly
    comparable with the closed-form matrices.
    """
    theta = base_angle(data)
    if base is None:
        base = 0.3 * cmath.exp(1j * theta)
    rho = abs(base)
    if basis is None:
        basis = build_basis(data, "zero" if rho < 1 else "infinity")
    side = basis[0].side
    ms = group_exponents(data, "alpha" if side == "zero" else "beta")
    Y0 = fundamental_matrix(basis, base, theta)

    if around == 0:
        path = _loop_zero(sys, rho, theta)
    elif around in ("lambda", sys.lam):
        path = _loop_lambda(sys, rho, theta)
    elif around in ("infinity", "inf"):
        path = _loop_infinity(sys, rho, theta)
    else:
        raise ValueError(f"around must be 0, 'lambda' or 'infinity', got {around!r}")

    Y1 = transport(sys, path, Y0)
    M = np.linalg.solve(Y0, Y1)
    pairs = ms.pair_indices()
    return ComplexMatrix(M, pairs, pairs)


# --- conjugacy-invariant comparison -------------------------------------------

def jordan_rank_sequence(M: np.ndarray, eigenvalue: complex, depth: int) -> list[int]:
    """Numerical ranks of (M - e I)^p for p = 1..depth, counting singular
    values above 1e-6 of max(largest, 1)."""
    n = M.shape[0]
    A = M - eigenvalue * np.eye(n)
    out = []
    P = np.eye(n, dtype=complex)
    for _ in range(depth):
        P = P @ A
        sv = np.linalg.svd(P, compute_uv=False)
        top = sv[0] if sv[0] > 0 else 1.0
        out.append(int(np.sum(sv > 1e-6 * max(top, 1.0))))
    return out


def numerical_rank(M: np.ndarray) -> int:
    """Count of singular values above 1e-8 of the largest."""
    sv = np.linalg.svd(M, compute_uv=False)
    if sv[0] == 0:
        return 0
    return int(np.sum(sv > 1e-8 * sv[0]))


def compare_invariants(algebraic, numeric_pair, tol: float = 1e-6) -> VerificationReport:
    """Conjugacy-invariant comparison of closed-form and transported monodromy.

    ``algebraic`` is a MonodromyResult; ``numeric_pair`` the transported
    loop matrices (M0, Mlambda).  Characteristic polynomials of M0,
    Mlambda and of the product Minf M0 = Mlambda^(-1) are compared
    coefficientwise, along with rank(Mlambda - I) and the Jordan rank
    sequences at each eigenvalue of M0.
    """
    M0_num, Ml_num = (m.entries if isinstance(m, ComplexMatrix) else np.asarray(m)
                      for m in numeric_pair)
    M0_alg = algebraic.m0.entries
    Ml_alg = algebraic.mlambda.entries
    report = VerificationReport()

    for name, alg, num in (("M0", M0_alg, M0_num), ("Mlambda", Ml_alg, Ml_num),
                           ("product", algebraic.minf.entries @ M0_alg,
                            np.linalg.inv(Ml_num))):
        r = float(np.max(np.abs(char_poly(alg) - char_poly(num))))
        report.add(f"charpoly_{name}", r <= tol, r)

    n = M0_num.shape[0]
    rank_alg = numerical_rank(Ml_alg - np.eye(n))
    rank_num = numerical_rank(Ml_num - np.eye(n))
    report.add("rank_Mlambda_minus_I", rank_alg == rank_num,
               float(abs(rank_alg - rank_num)),
               algebraic=rank_alg, numeric=rank_num)

    ms = group_exponents(algebraic.data, "alpha")
    ok = True
    seqs = {}
    for j, (val, m) in enumerate(zip(ms.values, ms.multiplicities), start=1):
        sa = jordan_rank_sequence(M0_alg, val, m)
        sn = jordan_rank_sequence(M0_num, val, m)
        seqs[f"eig_{j}"] = {"algebraic": sa, "numeric": sn}
        ok = ok and sa == sn
    report.add("jordan_ranks_M0", ok, 0.0 if ok else 1.0, sequences=seqs)
    return report
