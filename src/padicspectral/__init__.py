"""Exact arithmetic for spectral theory over the p-adic integers.

The package certifies matrices over Z_p whose reductions mod p have
distinct eigenvalues, builds their spectral idempotents and functional
calculus, generates one-parameter groups of unitary operators
U(s) = s^A indexed by the principal units, and recovers the generator A
back from the single value U(1+p).  All computation is exact integer
arithmetic mod p^N with explicit precision tracking; p = 2 is excluded
throughout.  The public names are those of each module's ``__all__``.
"""

from . import core, errors, functions, groups, linalg, spectral
from .core import *
from .functions import *
from .groups import *
from .linalg import *
from .spectral import *

__version__ = "0.1.0"

__all__ = ["errors", "__version__"] + [
    name for m in (core, functions, linalg, spectral, groups) for name in m.__all__
]
