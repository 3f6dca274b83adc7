"""Explicit monodromy of regular hypergeometric systems.

The toolkit builds the monodromy matrices of the equation

    lambda * prod_i (D - alpha_i) - z * prod_i (D - beta_i),   D = z d/dz,

with lambda = (-1)**n, in the local solution bases at 0 and infinity and
in the basis of unit-circle solutions, and cross-checks every closed-form
identity (Fourier transforms of the circle kernel, cyclic conjugation of
generalized Vandermonde matrices, pseudoreflection rank, replication)
against independent numerical oracles.
"""

from .exponents import (
    ExponentData,
    MultiplicityStructure,
    LengthMismatchError,
    ResonantPairError,
    group_exponents,
    parse_index_list,
    validate_irreducible,
)
from .gammaprod import (
    Jet,
    balanced_gamma,
    balanced_gamma_jet,
    gamma_identity_residual,
    reciprocal_gamma,
    get_precision,
)
from .report import VerificationReport

__version__ = "0.1.0"
