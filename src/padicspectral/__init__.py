"""Exact arithmetic for spectral theory over the p-adic integers.

The package certifies matrices over Z_p whose reductions mod p have
distinct eigenvalues, builds their spectral idempotents and functional
calculus, generates one-parameter groups of unitary operators
U(s) = s^A indexed by the principal units, and recovers the generator A
back from the single value U(1+p).  All computation is exact integer
arithmetic mod p^N with explicit precision tracking; p = 2 is excluded
throughout.
"""

from . import errors
from .core import PadicInt, Prime, Valuation
from .functions import (
    SeriesBudget,
    digit_truncation_error,
    is_principal_unit,
    mahler_coeff,
    pexp,
    plog,
    principal_power,
    principal_powers,
    truncation_length,
    zeta_of,
)
from .groups import (
    GroupCheck,
    OneParamGroup,
    UnitaryOperator,
    additive_reparam,
    generator_log_series,
    make_unitary,
    stone_recover,
)
from .linalg import PadicMatrix, ResidueMatrix, vector_norm
from .spectral import StrongNormalCertificate, certify_strongly_normal

__version__ = "0.1.0"

__all__ = [
    "errors",
    "PadicInt",
    "Prime",
    "Valuation",
    "SeriesBudget",
    "digit_truncation_error",
    "is_principal_unit",
    "mahler_coeff",
    "pexp",
    "plog",
    "principal_power",
    "principal_powers",
    "truncation_length",
    "zeta_of",
    "PadicMatrix",
    "ResidueMatrix",
    "vector_norm",
    "StrongNormalCertificate",
    "certify_strongly_normal",
    "GroupCheck",
    "OneParamGroup",
    "UnitaryOperator",
    "additive_reparam",
    "generator_log_series",
    "make_unitary",
    "stone_recover",
    "__version__",
]
