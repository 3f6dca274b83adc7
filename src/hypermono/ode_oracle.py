"""Independent oracle: numerical analytic continuation of the equation.

The operator lambda prod(D - alpha_i) - z prod(D - beta_i), D = z d/dz,
becomes a first-order system for Y = (u, Du, ..., D^(n-1) u) with
coefficient matrix analytic away from 0 and lambda:

    Y'(z) = C(z) Y,   C = N(z)/z,   N = companion with last row
    (z b_k - lambda a_k) / (lambda - z).

This is the companion-form reduction Beukers and Heckman (1989) use for
these operators.  The oracle reads only the D-polynomial coefficients a
and b and lambda; ``coefficient_matrix`` is the dense definition of C.

The coefficients are polynomial, so the system is D-finite: at a regular
point z0 the Taylor coefficients of the fundamental matrix obey a
three-term recurrence (``OdeSystem.recurrence``; van der Hoeven 1999,
Theor. Comput. Sci. 230), whose series converges in the disc reaching to
the nearest of 0 and lambda.  ``transport`` continues Y along a path by
steps of at most half that radius, in three stages.  Where the steps
start and how far they reach depend only on the path and on {0, lambda},
never on Y, so the step points z_j and increments h_j are listed first.
One recurrence over the whole stack of points then gives every step's
transfer matrix T_j, the identity continued from z_j to z_j + h_j: the
sum of the scaled terms T_k h_j^k until three consecutive terms are
negligible, each step stopping on its own.  Last, Y <- T_j @ Y for
j = 1..S.  A step whose sum does not stop within ``MAX_TERMS`` terms
raises ``StepFailure``.

The same stages carry P paths in lock step: a ``segment`` built from (P,)
arrays of endpoints holds P parallel curves, the state is (P, n, m), the
step points have shape (S, P) and the transfer matrices (S, P, n, n).
The paths share every step's parameter length, the smallest any of them
allows.  One path (a 2-D state) is the case P = 1.

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
#: a Taylor step covers at most this fraction of the distance to {0, lambda}
STEP_FRACTION = 0.5
#: a term is negligible below this fraction of the partial sum's column
TERM_RTOL = 1e-16
#: a step's sum stops after this many consecutive negligible terms
TAIL_TERMS = 3
#: a step whose sum has not stopped after this many terms fails
MAX_TERMS = 200


class EvaluationNearSingularity(ValueError):
    """Coefficient evaluation too close to 0 or lambda."""


class StepFailure(RuntimeError):
    """A transport step's Taylor series did not converge within
    ``MAX_TERMS`` terms."""


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
        """The dense C(z) = N(z)/z, the definition :meth:`recurrence`
        follows."""
        z = self._regular_point(z)
        n = self.data.n
        N = np.eye(n, k=1, dtype=complex)
        N[-1] = (z * self.b_coeffs[:n] - self.lam * self.a_coeffs[:n]) / (self.lam - z)
        return N / z

    def recurrence(self, z0) -> Callable[[int, np.ndarray, np.ndarray], np.ndarray]:
        """The Taylor recurrence at the regular point z0, as a function
        (k, Y_k, Y_(k-1)) -> Y_(k+1) of the coefficients of Y = sum Y_k t^k,
        t = z - z0.

        Times q(z) = z (lambda - z) the system reads q Y' = P(z) Y, with
        P(z) = (lambda - z) S + e_n (z b - lambda a) and S the shift, so

            q0 (k+1) Y_(k+1) = (P0 - q1 k) Y_k + (P1 + k - 1) Y_(k-1),

        q0 = q(z0), q1 = lambda - 2 z0, P0 = P(z0) and P1 = -S + e_n b.
        P is never formed: the shift of (lambda - z0) Y_k - Y_(k-1) plus
        the diagonal terms, and one row product each of Y_k and Y_(k-1)
        into the last row.

        For paths in lock step, z0 has shape (P,) and the coefficients
        shape (P, n, m); a scalar z0 with 2-D coefficients is one path.
        """
        z0 = self._regular_point(z0)
        n = self.data.n
        lam, b = self.lam, self.b_coeffs[:n]
        w = np.asarray(z0)[..., None, None]  # (1, 1), or (P, 1, 1) per path
        gap = lam - w
        q1 = lam - 2 * w
        inv_q0 = 1.0 / (w * gap)
        row0 = (w[..., 0] * b - lam * self.a_coeffs[:n])[..., None, :]  # last row of P0

        def next_coefficient(k: int, Yk: np.ndarray, Yprev: np.ndarray) -> np.ndarray:
            out = (k - 1) * Yprev - (k * q1) * Yk
            out[..., :-1, :] += gap * Yk[..., 1:, :] - Yprev[..., 1:, :]
            out[..., -1, :] += (row0 @ Yk)[..., 0, :] + b @ Yprev
            return out * (inv_q0 / (k + 1))

        return next_coefficient

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
    """One curve z(t), t in [0, 1], or P curves in lock step: z(t) is then
    a (P,) array, and so are ``length`` and ``closest``."""

    z: Callable[[float], complex | np.ndarray]
    length: float | np.ndarray  # arc length of each curve
    closest: float | np.ndarray  # distance of each curve to the singular set


def segment(z0, z1, sing: tuple[complex, ...]) -> _Piece:
    """The straight piece from z0 to z1.  Arrays of endpoints, of shape
    (P,), give P parallel segments traversed in lock step."""
    if np.ndim(z0) or np.ndim(z1):
        z0, z1 = np.asarray(z0, dtype=complex), np.asarray(z1, dtype=complex)
    else:
        z0, z1 = complex(z0), complex(z1)
    d = np.min([_dist_segment(z0, z1, s) for s in sing], axis=0)
    return _Piece(z=lambda t: z0 + t * (z1 - z0), length=np.abs(z1 - z0), closest=d)


def arc(center: complex, radius: float, theta0: float, theta1: float,
        sing: tuple[complex, ...]) -> _Piece:
    center = complex(center)

    def z(t):
        th = theta0 + t * (theta1 - theta0)
        return center + radius * cmath.exp(1j * th)

    d = min(abs(abs(s - center) - radius) for s in sing)
    return _Piece(z=z, length=radius * abs(theta1 - theta0), closest=d)


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


# --- Taylor steps ------------------------------------------------------------

def _step_points(sys: OdeSystem, path: PathSpec) -> tuple[np.ndarray, np.ndarray]:
    """Start points z_j and increments h_j of every Taylor step along the
    path, shape (S,), or (S, P) for P curves in lock step.

    Each step moves z by an arc length of at most ``STEP_FRACTION`` of the
    distance from z to {0, lambda}, the convergence radius of the series
    there, so the chord it sums along stays inside that disc.  In lock
    step the parameter step is the smallest the P curves allow.
    """
    points, steps = [], []
    for piece in path.pieces:
        length = np.atleast_1d(piece.length)
        moving = length > 0
        if not moving.any():
            continue
        t, z = 0.0, piece.z(0.0)
        while t < 1.0:
            reach = STEP_FRACTION * np.minimum(np.abs(z), np.abs(z - sys.lam))
            dt = float(np.min(np.atleast_1d(reach)[moving] / length[moving]))
            t = 1.0 if dt >= 1.0 - t else t + dt
            z1 = piece.z(t)
            points.append(z)
            steps.append(z1 - z)
            z = z1
    return np.array(points, dtype=complex), np.array(steps, dtype=complex)


def _step_matrices(sys: OdeSystem, z: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Transfer matrix of every step z_j -> z_j + h_j, shape (..., n, n) for
    points of shape (...): the identity continued by the sum of the scaled
    terms T_k h^k of the recurrence at z_j, all steps at once.

    A step's sum stops once ``TAIL_TERMS`` consecutive terms are below
    ``TERM_RTOL`` of the partial sum in every column; later terms of a
    stopped step are not added.  A step still summing after ``MAX_TERMS``
    terms raises ``StepFailure``.
    """
    n = sys.data.n
    expand = sys.recurrence(z)
    h = h[..., None, None]
    term = np.broadcast_to(np.eye(n, dtype=complex), z.shape + (n, n))
    prev = np.zeros_like(term)
    total = term.copy()
    quiet = np.zeros(z.shape, dtype=int)
    summing = np.ones(z.shape, dtype=bool)
    for k in range(MAX_TERMS):
        # h^(k+1) T_(k+1) from h^k T_k and h^k T_(k-1)
        term, prev = h * expand(k, term, h * prev), term
        total += np.where(summing[..., None, None], term, 0)
        small = np.all(np.abs(term).max(axis=-2)
                       <= TERM_RTOL * np.abs(total).max(axis=-2), axis=-1)
        quiet = np.where(small, quiet + 1, 0)
        summing &= quiet < TAIL_TERMS
        if not summing.any():
            return total
    raise StepFailure(f"Taylor series of a transport step did not converge "
                      f"within {MAX_TERMS} terms")


def transport(sys: OdeSystem, path: PathSpec,
              Y0: ComplexMatrix | np.ndarray) -> np.ndarray:
    """Continue the fundamental matrix Y0 along the path by Taylor steps.

    Three stages.  The step points and increments depend only on the path
    and on {0, lambda}, so they are listed first (``_step_points``).  One
    recurrence over the whole stack of points then gives every step's
    transfer matrix T_j (``_step_matrices``).  Last, the chain
    Y <- T_j @ Y for j = 1..S carries Y0 to the end of the path.

    Y0 of shape (n, m) follows a path of single curves.  Y0 of shape
    (P, n, m) follows a path of pieces built from (P,) arrays of
    endpoints: state p moves along curve p, all P in lock step, with the
    parameter step the smallest the P curves allow.
    """
    Y = Y0.entries.copy() if isinstance(Y0, ComplexMatrix) else np.array(Y0, dtype=complex)
    z, h = _step_points(sys, path)
    if not len(z):
        return Y
    for T in _step_matrices(sys, z, h):
        Y = T @ Y
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
