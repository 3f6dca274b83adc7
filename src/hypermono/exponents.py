"""Validation and multiplicity grouping of hypergeometric index tuples.

The two index tuples alpha and beta determine everything downstream: the
operator, the gamma product, and the matrices.  Three things depend on
whether an index difference is an integer: resonance (alpha_i - beta_j),
the grouping of exponentials, and the zeros of the gamma product that give
the log terms.  All three are decided exactly, because every stored index
is an ``int`` or a ``Fraction``.

``raw_exponent_data`` is the one place where indices become exact.  Ints
and ``Fraction``s are kept as they are.  A float within ``GROUP_TOL`` of
an earlier index (of either side) plus an integer becomes exactly that
sum; any other float becomes ``Fraction(x)`` (so ``describe()`` shows a
float 0.25 as '1/4').  Any other type raises ``TypeError``.  CLI text is
parsed straight to ``Fraction``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

Index = Union[int, Fraction]

#: a float index this close to an earlier index plus an integer is taken
#: to be exactly that sum
GROUP_TOL = 1e-12


class LengthMismatchError(ValueError):
    """alpha and beta must have the same positive length."""


class ResonantPairError(ValueError):
    """Some alpha_i and beta_j coincide mod 1, so the operator is reducible."""

    def __init__(self, i: int, j: int, alpha_i, beta_j):
        self.i = i
        self.j = j
        super().__init__(
            f"alpha[{i}]={alpha_i} and beta[{j}]={beta_j} differ by an integer"
        )


def parse_index(text: str) -> Fraction:
    """Parse one index given as 'p/q', an integer or a decimal; ValueError
    unless it is a finite number in double range ('inf', 'nan', '1e400',
    '1/0').

    Decimal text is range-checked through its float before the exact
    ``Fraction`` is built: ``Fraction('1e-10000000')`` alone takes seconds
    and carries a 33-million-bit denominator.  A nonzero value whose float
    underflows to 0 is out of range too; a zero mantissa is 0 at any
    exponent.
    """
    bad = ValueError(f"index {text!r} is not a finite number in double range")
    try:
        approx = float(text)
    except ValueError:
        approx = 1.0  # not decimal text ('p/q'); Fraction decides below
    if not math.isfinite(approx):
        raise bad
    if approx == 0.0:
        mantissa = text.lower().partition("e")[0]
        if any(c in "123456789" for c in mantissa):
            raise bad
        text = mantissa
    try:
        x = Fraction(text)
        if x and float(x) == 0.0:
            raise bad
    except (ValueError, OverflowError, ZeroDivisionError):
        raise bad from None
    return x


def parse_index_list(text: str) -> tuple[Fraction, ...]:
    """Parse a comma-separated index list such as '0,1/2,-0.25'."""
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError(f"empty index list: {text!r}")
    return tuple(parse_index(p) for p in parts)


@dataclass(frozen=True)
class ExponentData:
    """Validated index tuples together with n and lambda = (-1)**n."""

    alpha: tuple[Index, ...]
    beta: tuple[Index, ...]
    n: int
    lam: complex

    def alpha_floats(self) -> list[float]:
        return [float(a) for a in self.alpha]

    def beta_floats(self) -> list[float]:
        return [float(b) for b in self.beta]

    def describe(self) -> dict:
        return {
            "alpha": [str(a) for a in self.alpha],
            "beta": [str(b) for b in self.beta],
            "n": self.n,
            "lambda": [self.lam.real, self.lam.imag],
        }


@dataclass(frozen=True)
class MultiplicityStructure:
    """Distinct exponentials with multiplicities and chosen representatives.

    ``values[j]`` is the exponential exp(2*pi*i*rep), ``multiplicities[j]``
    how many indices share it, and ``representatives[j]`` the index chosen
    for it (minimal for the alpha side, maximal for the beta side).  Values
    are ordered by ascending representative, which fixes the row indexing
    of every matrix built from this structure.  Structures made directly
    from raw values (see :meth:`from_values`) carry no representatives.
    """

    values: tuple[complex, ...]
    multiplicities: tuple[int, ...]
    representatives: tuple[Index, ...] | None

    def __post_init__(self):
        if len(set(self.values)) != len(self.values):
            raise ValueError("values must be pairwise distinct")
        if any(v == 0 for v in self.values):
            raise ValueError("values must be non-zero")
        if any(m < 1 for m in self.multiplicities):
            raise ValueError("multiplicities must be positive")

    @property
    def n(self) -> int:
        return sum(self.multiplicities)

    def pair_indices(self) -> tuple[tuple[int, int], ...]:
        """(j, r) row labels, j 1-based, r = 0..m_j-1, in matrix order."""
        out = []
        for j, m in enumerate(self.multiplicities, start=1):
            out.extend((j, r) for r in range(m))
        return tuple(out)

    @classmethod
    def from_values(cls, values: Sequence[complex],
                    multiplicities: Sequence[int] | None = None) -> "MultiplicityStructure":
        """Build a structure from raw distinct values (CLI cyclic checks)."""
        vals = tuple(complex(v) for v in values)
        mults = tuple(multiplicities) if multiplicities else (1,) * len(vals)
        if len(mults) != len(vals):
            raise ValueError("multiplicities and values length mismatch")
        return cls(values=vals, multiplicities=mults, representatives=None)


def _exact_index(x, earlier: Sequence[Index]) -> Index:
    """x as an int or Fraction, by the rule in the module docstring."""
    if isinstance(x, (int, Fraction)):
        return x
    if not isinstance(x, float):
        raise TypeError(f"index {x!r} is not an int, Fraction or float")
    for e in earlier:
        k = round(x - e)
        if abs(x - e - k) <= GROUP_TOL:
            return e + k
    return Fraction(x)


def raw_exponent_data(alpha: Sequence, beta: Sequence) -> ExponentData:
    """Build ExponentData with exact indices, without the irreducibility check.

    Kernel-level Fourier identities hold for any real indices; only the
    monodromy and local-basis layers need alpha_i - beta_j never integral.
    """
    alpha = tuple(alpha)
    beta = tuple(beta)
    if not alpha or not beta or len(alpha) != len(beta):
        raise LengthMismatchError(
            f"need equal nonempty tuples, got {len(alpha)} and {len(beta)}"
        )
    exact: list[Index] = []
    for x in (*alpha, *beta):
        exact.append(_exact_index(x, exact))
    n = len(alpha)
    return ExponentData(alpha=tuple(exact[:n]), beta=tuple(exact[n:]), n=n,
                        lam=complex((-1) ** n))


def validate_irreducible(alpha: Sequence, beta: Sequence) -> ExponentData:
    """Build ExponentData and check that no alpha_i - beta_j is an integer."""
    data = raw_exponent_data(alpha, beta)
    for i, a in enumerate(data.alpha):
        for j, b in enumerate(data.beta):
            if (a - b).denominator == 1:
                raise ResonantPairError(i, j, a, b)
    return data


def group_exponents(data: ExponentData, side: str) -> MultiplicityStructure:
    """Group one side's indices by their exponential exp(2*pi*i*x).

    Indices congruent mod 1 share an exponential.  The representative is
    the member with minimal value on the alpha side and maximal on the
    beta side; groups are ordered by ascending representative.
    """
    if side not in ("alpha", "beta"):
        raise ValueError(f"side must be 'alpha' or 'beta', got {side!r}")
    xs = data.alpha if side == "alpha" else data.beta

    # members keyed by their exact fractional part
    groups: dict[Index, list[Index]] = {}
    for x in xs:
        groups.setdefault(x - math.floor(x), []).append(x)

    pick = min if side == "alpha" else max
    entries = sorted(
        ((pick(members), len(members), cmath.exp(2j * math.pi * float(key)))
         for key, members in groups.items()),
        key=lambda e: e[0],
    )

    return MultiplicityStructure(
        values=tuple(e[2] for e in entries),
        multiplicities=tuple(e[1] for e in entries),
        representatives=tuple(e[0] for e in entries),
    )
