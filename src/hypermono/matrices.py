"""Generalized Vandermonde and block-diagonal matrices and their cyclic form.

For a tuple of distinct nonzero values A_j with multiplicities m_j
(n = sum m_j) and a branch integer l, the generalized Vandermonde matrix
has rows indexed by pairs (j, r), r < m_j, columns by k = 0..n-1, and
entries (l-k)**r * A_j**(l-k), with the convention 0**0 = 1.  The block
matrix D is lower triangular with entries binom(r, r') A_j.  Conjugating
D by V yields the matrix of multiplication by x on C[x, 1/x]/P(x) in the
monomial basis x**l, ..., x**(l-n+1), which is cyclic: a column of stars
followed by an identity superdiagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exponents import MultiplicityStructure

__all__ = [
    "ComplexMatrix",
    "SingularMatrixError",
    "vandermonde",
    "block_diagonal",
    "invert",
    "cyclic_conjugate",
    "companion_data",
    "char_poly",
    "poly_from_roots",
]

COND_LIMIT = 1e14


class SingularMatrixError(ValueError):
    """Condition estimate exceeds the invertibility limit."""


@dataclass(frozen=True)
class ComplexMatrix:
    """Dense square complex matrix with row/column index metadata."""

    entries: np.ndarray
    row_index: tuple
    col_index: tuple

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=complex)
        object.__setattr__(self, "entries", e)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValueError("entries must be square")
        if len(self.row_index) != e.shape[0] or len(self.col_index) != e.shape[1]:
            raise ValueError("index metadata must match the matrix size")

    def transpose(self) -> "ComplexMatrix":
        return ComplexMatrix(self.entries.T.copy(), self.col_index, self.row_index)

    def to_jsonable(self) -> list:
        return [[[z.real, z.imag] for z in row] for row in self.entries]

    @staticmethod
    def from_jsonable(rows, row_index=None, col_index=None) -> "ComplexMatrix":
        e = np.array([[complex(re, im) for re, im in row] for row in rows])
        n = e.shape[0]
        return ComplexMatrix(
            e,
            tuple(row_index) if row_index else tuple(range(n)),
            tuple(col_index) if col_index else tuple(range(n)),
        )


def _int_pow(base: complex, k: int) -> complex:
    # 0**0 == 1 is required when l-k == 0 lands in an r == 0 row
    if k == 0:
        return 1.0 + 0.0j
    return complex(base) ** k


def vandermonde(ms: MultiplicityStructure, l: int) -> ComplexMatrix:
    """V with entries (l-k)**r A_j**(l-k), rows (j, r), columns k."""
    n = ms.n
    rows = ms.pair_indices()
    entries = np.zeros((n, n), dtype=complex)
    i = 0
    for j, (A, m) in enumerate(zip(ms.values, ms.multiplicities)):
        for r in range(m):
            for k in range(n):
                entries[i, k] = _int_pow(complex(l - k), r) * _int_pow(A, l - k)
            i += 1
    return ComplexMatrix(entries, rows, tuple(range(n)))


def block_diagonal(ms: MultiplicityStructure) -> ComplexMatrix:
    """Lower-triangular D with entries binom(r, r') A_j on the j-th block."""
    n = ms.n
    rows = ms.pair_indices()
    entries = np.zeros((n, n), dtype=complex)
    offset = 0
    for A, m in zip(ms.values, ms.multiplicities):
        for r in range(m):
            for rp in range(r + 1):
                entries[offset + r, offset + rp] = math.comb(r, rp) * A
        offset += m
    return ComplexMatrix(entries, rows, rows)


def invert(M: ComplexMatrix) -> ComplexMatrix:
    cond = np.linalg.cond(M.entries)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularMatrixError(f"condition estimate {cond:.3e} exceeds {COND_LIMIT:.0e}")
    inv = np.linalg.inv(M.entries)
    return ComplexMatrix(inv, M.col_index, M.row_index)


def cyclic_conjugate(ms: MultiplicityStructure, l: int) -> ComplexMatrix:
    """V**-1 D V: multiplication by x in the basis x**l, ..., x**(l-n+1)."""
    V = vandermonde(ms, l)
    D = block_diagonal(ms)
    Vinv = invert(V)
    entries = Vinv.entries @ D.entries @ V.entries
    idx = tuple(range(ms.n))
    return ComplexMatrix(entries, idx, idx)


def poly_from_roots(values, multiplicities) -> np.ndarray:
    """Monic coefficients (descending powers) of prod (x - A_j)**m_j."""
    coeffs = np.array([1.0 + 0.0j])
    for A, m in zip(values, multiplicities):
        for _ in range(m):
            coeffs = np.convolve(coeffs, np.array([1.0, -complex(A)]))
    return coeffs


def companion_data(ms: MultiplicityStructure, l: int) -> np.ndarray:
    """Star column of the cyclic form, by polynomial reduction.

    x**(l+1) = x**(l-n+1) * x**n reduced mod P(x) gives coefficients that
    do not depend on l: entry k is minus the coefficient of x**(n-1-k) in
    P.  ``cyclic_conjugate`` recomputes the same column through linear
    algebra; the two routes are compared in the test suite.
    """
    p = poly_from_roots(ms.values, ms.multiplicities)
    return -p[1:]


def char_poly(M: np.ndarray | ComplexMatrix) -> np.ndarray:
    """Characteristic polynomial coefficients (descending), monic.

    Faddeev-LeVerrier trace recursion; unlike the eigenvalue route it
    loses no accuracy on defective (Jordan block) matrices.
    """
    A = M.entries if isinstance(M, ComplexMatrix) else np.asarray(M, dtype=complex)
    n = A.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    Mk = np.zeros_like(A)
    I = np.eye(n, dtype=complex)
    for k in range(1, n + 1):
        Mk = A @ (Mk + coeffs[k - 1] * I)
        coeffs[k] = -np.trace(Mk) / k
    return coeffs
