"""Truncated Taylor (jet) arithmetic on plain coefficient arrays.

Coefficients are ordinary Taylor coefficients a_k of sum a_k tau**k,
stored along the last axis of complex ndarrays of shape (..., order+1),
so one call works on a single jet or on a whole table of them row by
row.  Conversion to the normalized (d/(2 pi i dt))**r convention happens
at module boundaries.
"""

from __future__ import annotations

import math

import numpy as np


def tconst(c, order: int) -> np.ndarray:
    out = np.zeros(order + 1, dtype=complex)
    out[0] = c
    return out


def tlinear(c0, c1, order: int) -> np.ndarray:
    """Jet of c0 + c1*tau."""
    out = np.zeros(order + 1, dtype=complex)
    out[0] = c0
    if order >= 1:
        out[1] = c1
    return out


def tmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of jets, broadcast over the leading axes."""
    a, b = np.asarray(a), np.asarray(b)
    order = a.shape[-1] - 1
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    for k in range(order + 1):
        out[..., k] = np.sum(a[..., : k + 1] * b[..., k::-1], axis=-1)
    return out


def tpow_int(a: np.ndarray, k: int) -> np.ndarray:
    order = len(a) - 1
    out = tconst(1.0, order)
    for _ in range(k):
        out = tmul(out, a)
    return out


def texp(a: np.ndarray) -> np.ndarray:
    """exp of a jet; uses g' = a' g so no series truncation error."""
    a = np.asarray(a)
    order = a.shape[-1] - 1
    out = np.zeros(a.shape, dtype=complex)
    out[..., 0] = np.exp(a[..., 0])
    j = np.arange(1, order + 1)
    for k in range(1, order + 1):
        out[..., k] = np.sum(j[:k] * a[..., 1 : k + 1] * out[..., k - 1 :: -1], axis=-1) / k
    return out


def tsin_pi_over_pi(order: int) -> np.ndarray:
    """Jet of sin(pi tau)/pi at tau = 0."""
    out = np.zeros(order + 1, dtype=complex)
    for j in range(0, (order - 1) // 2 + 1 if order >= 1 else 0):
        k = 2 * j + 1
        out[k] = (-1) ** j * math.pi ** (2 * j) / math.factorial(k)
    return out


def to_normalized(taylor: np.ndarray) -> np.ndarray:
    """Taylor a_r  ->  normalized c_r = r! a_r / (2 pi i)**r."""
    order = np.shape(taylor)[-1] - 1
    scale = np.array(
        [math.factorial(r) / (2j * math.pi) ** r for r in range(order + 1)],
        dtype=complex,
    )
    return taylor * scale


def from_normalized(coeffs: np.ndarray) -> np.ndarray:
    order = np.shape(coeffs)[-1] - 1
    scale = np.array(
        [(2j * math.pi) ** r / math.factorial(r) for r in range(order + 1)],
        dtype=complex,
    )
    return np.asarray(coeffs, dtype=complex) * scale
