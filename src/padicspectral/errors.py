"""Exception hierarchy.

Three families matter to callers:

* plain ``PadicError`` subclasses signal misuse (mixed primes, mixed
  dimensions, asking for more digits than a value carries);
* ``Refusal`` subclasses signal that a mathematical hypothesis does not
  hold for the given input, so the requested object does not exist in
  the supported class (these map to CLI exit code 2);
* ``PrecisionFailure`` subclasses signal that the requested computation
  would exhaust the tracked digits (CLI exit code 3).
"""


class PadicError(Exception):
    """Base class for everything raised by this package."""


class PrimeMismatch(PadicError):
    """Operands live over different primes."""


class DimensionMismatch(PadicError):
    """Matrix or vector shapes do not match."""


class PrecisionFailure(PadicError):
    """Requested digits are not available."""


class PrecisionExceeded(PrecisionFailure):
    """A congruence test asked for more digits than both operands carry."""


class InsufficientPrecision(PrecisionFailure):
    """An operation would leave fewer than one correct digit."""


class Refusal(PadicError):
    """A mathematical hypothesis required by the operation is violated."""


class DivisionByHigherValuation(Refusal):
    """Divisor valuation exceeds dividend valuation: quotient leaves Z_p."""


class NotPrincipal(Refusal):
    """Argument is not congruent to 1 mod p."""


class OutOfConvergenceDomain(Refusal):
    """Series argument lies outside the disk of convergence."""


class DegenerateReduction(Refusal):
    """The reduction mod p is a scalar multiple of the identity."""


class ResidueEigenvalueDeficit(Refusal):
    """The residue characteristic polynomial does not split over F_p."""


class RepeatedResidueEigenvalue(Refusal):
    """The reduction has a repeated eigenvalue; lifting is unsupported."""


class NormTooLarge(Refusal):
    """An operator expected to satisfy a strict norm bound has norm 1."""


class CertificationFailed(Refusal):
    """No spectral certificate could be produced for the input."""


class NotPrincipalSpectrum(Refusal):
    """The spectrum is expected to consist of principal units and does not."""
