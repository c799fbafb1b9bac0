"""Exception types raised across the library.

Input-validation errors (bad shapes, broken invariants, out-of-range
parameters) derive from :class:`ValidationError`; failures of the numerics
themselves (singular systems, inadequate truncation or quadrature) derive
from :class:`NumericalError`.
"""


class GaussmeterError(Exception):
    """Base class for all library errors."""


class ValidationError(GaussmeterError):
    """An input violates a declared invariant."""


class NumericalError(GaussmeterError):
    """A computation cannot be carried out reliably at the requested settings."""


class NotHermitian(ValidationError):
    pass


class NotSymmetric(ValidationError):
    pass


class NotPositiveDefinite(ValidationError):
    pass


class NegativeArgument(ValidationError):
    pass


class NegativeEigenvalue(ValidationError):
    pass


class DimensionMismatch(ValidationError):
    pass


class NoModes(ValidationError):
    """A matrix or form has no modes (``0 x 0``)."""


class InvalidCovariance(ValidationError):
    pass


class InvalidRange(ValidationError):
    pass


class InfeasibleConstraint(ValidationError):
    pass


class PairingFailure(NumericalError):
    pass


class SingularSum(NumericalError):
    pass


class DivisionDegenerate(NumericalError):
    pass


class TruncationTooSmall(NumericalError):
    pass


class NegligibleOutcome(NumericalError):
    pass


class GridMassDeficit(NumericalError):
    pass
