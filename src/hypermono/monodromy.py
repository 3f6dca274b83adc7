"""Explicit monodromy matrices in the A-, B- and f-bases.

With V_A, V_B the generalized Vandermonde matrices for branch l and D_A,
D_B the block matrices of the two multiplicity structures, the monodromy
of the equation is

    basis A:  M_0 = D_A^t,              M_inf = (V_A V_B^-1 D_B^-1 V_B V_A^-1)^t
    basis B:  M_0 = (V_B V_A^-1 D_A V_A V_B^-1)^t,   M_inf = (D_B^-1)^t
    basis f:  M_0 = (V_A^-1 D_A V_A)^t, M_inf = (V_B^-1 D_B^-1 V_B)^t

all with the loop composition convention M_lambda M_inf M_0 = I (loops
counterclockwise around 0 and lambda, the infinity loop counterclockwise
in the 1/z chart), so M_lambda = (M_inf M_0)^-1 is a pseudoreflection.
The convention is validated wholesale against the ODE transport oracle
rather than trusted from the construction.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .circle_solutions import QuadratureParams, h_convolution, piece_interval
from .exponents import ExponentData, MultiplicityStructure, group_exponents
from .matrices import ComplexMatrix, block_diagonal, invert, vandermonde
from .ode_oracle import companion_system, fundamental_matrix, segment, transport, PathSpec
from .local_solutions import SolutionSeries, build_basis
from .report import VerificationReport

__all__ = [
    "MonodromyResult",
    "monodromy_matrices",
    "default_branch",
    "pseudoreflection_check",
    "change_of_basis",
    "circle_basis_values",
    "replication_identity_check",
]


@dataclass(frozen=True)
class MonodromyResult:
    """The three local monodromies in one basis, plus their provenance."""

    basis: str
    l: int
    m0: ComplexMatrix
    minf: ComplexMatrix
    mlambda: ComplexMatrix
    data: ExponentData
    ms_alpha: MultiplicityStructure
    ms_beta: MultiplicityStructure

    def to_jsonable(self) -> dict:
        out = self.data.describe()
        out.update({
            "basis": self.basis,
            "l": self.l,
            "M0": self.m0.to_jsonable(),
            "Minf": self.minf.to_jsonable(),
            "Mlambda": self.mlambda.to_jsonable(),
        })
        return out


def default_branch(data: ExponentData) -> int:
    """l = floor(n/2): the window containing (or abutting) arg z = 0."""
    return data.n // 2


def monodromy_matrices(data: ExponentData, basis: str = "A",
                       l: int | None = None) -> MonodromyResult:
    """Assemble M0, Minf and Mlambda = (Minf M0)^-1 in the chosen basis."""
    if basis not in ("A", "B", "f"):
        raise ValueError(f"basis must be 'A', 'B' or 'f', got {basis!r}")
    if l is None:
        l = default_branch(data)
    ms_a = group_exponents(data, "alpha")
    ms_b = group_exponents(data, "beta")
    D_a = block_diagonal(ms_a).entries
    D_b = block_diagonal(ms_b).entries
    V_a = vandermonde(ms_a, l)
    V_b = vandermonde(ms_b, l)
    Va, Vb = V_a.entries, V_b.entries
    Va_inv = invert(V_a).entries
    Vb_inv = invert(V_b).entries
    Db_inv = np.linalg.inv(D_b)

    if basis == "A":
        m0 = D_a.T
        minf = (Va @ Vb_inv @ Db_inv @ Vb @ Va_inv).T
        rows = ms_a.pair_indices()
    elif basis == "B":
        m0 = (Vb @ Va_inv @ D_a @ Va @ Vb_inv).T
        minf = Db_inv.T
        rows = ms_b.pair_indices()
    else:
        m0 = (Va_inv @ D_a @ Va).T
        minf = (Vb_inv @ Db_inv @ Vb).T
        rows = tuple(range(data.n))

    mlam = np.linalg.inv(minf @ m0)
    wrap = lambda M: ComplexMatrix(M, rows, rows)
    return MonodromyResult(basis=basis, l=l, m0=wrap(m0), minf=wrap(minf),
                           mlambda=wrap(mlam), data=data,
                           ms_alpha=ms_a, ms_beta=ms_b)


def pseudoreflection_check(result: MonodromyResult,
                           sv_threshold: float = 1e-8) -> VerificationReport:
    """rank(Mlambda - I) from singular values; passes iff the rank is 1."""
    n = result.data.n
    A = result.mlambda.entries - np.eye(n)
    sv = np.linalg.svd(A, compute_uv=False)
    top = sv[0]
    rank = int(np.sum(sv > sv_threshold * top)) if top > 0 else 0
    second = float(sv[1] / top) if n > 1 and top > 0 else 0.0
    report = VerificationReport()
    report.add("pseudoreflection", rank == 1, second,
               rank=rank, singular_values=[float(s) for s in sv])
    return report


def change_of_basis(data: ExponentData, l: int | None = None):
    """The transposed Vandermonde pair (V_A^t, V_B^t) relating S bases to f."""
    if l is None:
        l = default_branch(data)
    ms_a = group_exponents(data, "alpha")
    ms_b = group_exponents(data, "beta")
    return (vandermonde(ms_a, l).transpose(), vandermonde(ms_b, l).transpose())


_LOCAL_SIDE = {"A": "zero", "B": "infinity"}


def _side_basis(data: ExponentData, side: str,
                basis: list[SolutionSeries] | None) -> list[SolutionSeries]:
    """The local basis behind circle side 'A' (at 0) or 'B' (at infinity).

    A prebuilt ``basis`` is checked against the side and the indices; one
    is built when none is given.
    """
    want = _LOCAL_SIDE[side]
    if basis is None:
        return build_basis(data, want)
    if basis[0].side != want or basis[0].data != data:
        raise ValueError(f"side {side!r} needs the {want!r} basis of these indices, "
                         f"got a {basis[0].side!r} basis of {basis[0].data.describe()}")
    return basis


def _boundary_values(data: ExponentData, side: str, phi: float,
                     basis: list[SolutionSeries] | None = None) -> np.ndarray:
    """Values of the side's basis at z = e^(2 pi i phi) by radial transport."""
    basis = _side_basis(data, side, basis)
    sys = companion_system(data)
    rho = 0.5 if side == "A" else 2.0
    theta = 2 * math.pi * phi
    z0 = rho * cmath.exp(1j * theta)
    z1 = cmath.exp(1j * theta)
    Y0 = fundamental_matrix(basis, z0, theta)
    path = PathSpec(pieces=(segment(z0, z1, (0.0, sys.lam)),), base=z0)
    return transport(sys, path, Y0)[0, :]


def circle_basis_values(data: ExponentData, phi: float, l: int | None = None,
                        side: str = "A",
                        basis: list[SolutionSeries] | None = None) -> np.ndarray:
    """The circle basis (f_0(phi), ..., f_{n-1}(phi)) by Vandermonde solve.

    Transported boundary values of the local solutions satisfy
    S_vec = V f_vec, so solving the generalized Vandermonde system
    recovers the circle pieces at any phi in the branch-l window.  This
    is the production route for n > 3, where direct convolution
    quadrature is no longer affordable.  ``basis`` is the side's local
    basis (``build_basis`` at 'zero' for A, 'infinity' for B); pass one
    built once to evaluate many phi.
    """
    n = data.n
    if l is None:
        l = default_branch(data)
    lo, hi = piece_interval(n, 0)
    if not lo + l < phi < hi + l:
        raise ValueError(f"phi={phi} outside the branch window ({lo + l}, {hi + l})")
    if side not in ("A", "B"):
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    ms = group_exponents(data, "alpha" if side == "A" else "beta")
    S = _boundary_values(data, side, phi, basis)
    V = vandermonde(ms, l)
    return np.linalg.solve(V.entries, S)


def replication_identity_check(data: ExponentData, l: int | None = None,
                               phis=None, tol: float = 1e-5,
                               quad: QuadratureParams | None = None,
                               sides=("A", "B")) -> VerificationReport:
    """Boundary values of the local solutions against weighted kernel sums.

    For phi in the branch-l window, the solution S_{j,r} continued to
    z = e^(2 pi i phi) must equal sum_k (l-k)**r A_j**(l-k) f_k(phi),
    where f_k(phi) = h(phi - l + k).  The left side is produced by ODE
    transport of the series from |z| = 1/2 (A side) or |z| = 2 (B side)
    radially to the circle; for n <= 3 the right side comes from
    convolution quadrature, so the two routes share nothing.  For larger
    n the circle values are themselves recovered from the A-side
    transport, and the check degrades to mutual consistency of the two
    sides through the two Vandermonde systems.
    """
    n = data.n
    if l is None:
        l = default_branch(data)
    lo, hi = piece_interval(n, 0)
    lo, hi = lo + l, hi + l  # branch-l window
    if phis is None:
        phis = [lo + f * (hi - lo) for f in (0.15, 0.3, 0.5, 0.7, 0.85)]
    for phi in phis:
        if not lo < phi < hi:
            raise ValueError(f"phi={phi} outside the branch window ({lo}, {hi})")

    if n <= 3:
        # f_k(phi) = h(phi - l + k), shared between the two sides
        fk = {
            phi: np.array([h_convolution(data, phi - l + k, quad) for k in range(n)])
            for phi in phis
        }
        independent = True
    else:
        basis_a = build_basis(data, "zero")
        fk = {phi: circle_basis_values(data, phi, l, side="A", basis=basis_a)
              for phi in phis}
        sides = tuple(s for s in sides if s != "A")
        independent = False

    report = VerificationReport()
    for side in sides:
        ms = group_exponents(data, "alpha" if side == "A" else "beta")
        basis = build_basis(data, _LOCAL_SIDE[side])
        worst = 0.0
        for phi in phis:
            boundary = _boundary_values(data, side, phi, basis)
            col = 0
            for val, mult in zip(ms.values, ms.multiplicities):
                for r in range(mult):
                    rhs = sum(
                        float(l - k) ** r * val ** (l - k) * fk[phi][k]
                        for k in range(n)
                    )
                    resid = abs(boundary[col] - rhs) / max(1.0, abs(rhs))
                    worst = max(worst, resid)
                    col += 1
        report.add(f"replication_{side}", worst <= tol, worst,
                   l=l, phis=[float(p) for p in phis],
                   independent_kernel=independent)
    return report
