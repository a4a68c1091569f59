"""Exception types raised across the package.

Everything domain-specific derives from ShadowcodesError so callers can
catch one base class; most errors are also ValueErrors because they
signal bad argument values.
"""


class ShadowcodesError(Exception):
    """Base class for all errors raised by this package."""


class NotPrime(ShadowcodesError, ValueError):
    """A field characteristic was not a prime number."""


class DegreeMismatch(ShadowcodesError, ValueError):
    """A polynomial had the wrong degree for the requested role."""


class DivisionByZero(ShadowcodesError, ZeroDivisionError):
    """Inversion or division by the zero element or zero polynomial."""


class ZeroArgument(ShadowcodesError, ValueError):
    """Zero passed where only nonzero elements make sense."""


class EvenCharacteristic(ShadowcodesError, ValueError):
    """Square testing requested in a field of even order."""


class FieldMismatch(ShadowcodesError, ValueError):
    """Operands belong to different fields."""


class ConstantInput(ShadowcodesError, ValueError):
    """A constant polynomial passed where degree >= 1 is required."""


class ExhaustedSupply(ShadowcodesError, ValueError):
    """More irreducible polynomials requested than exist."""


class VanishesOnE(ShadowcodesError, ValueError):
    """A basic polynomial has a root inside the evaluation set."""

    def __init__(self, message: str, point: int | None = None):
        super().__init__(message)
        self.point = point


class EvaluationSetIsFullField(ShadowcodesError, ValueError):
    """Degree <= 1 construction needs at least one point left over."""


class NonpositiveDelta(ShadowcodesError, ValueError):
    """The distance bound is vacuous for these parameters."""


class DimensionTooLarge(ShadowcodesError, ValueError):
    """Exhaustive codeword enumeration would exceed the budget."""


class LengthMismatch(ShadowcodesError, ValueError):
    """A message or vector has the wrong length."""


class BadParameters(ShadowcodesError, ValueError):
    """Parameters outside the admissible range of a formula."""


class BadDescriptor(ShadowcodesError, ValueError):
    """A stored code descriptor is not JSON, lacks a key, or disagrees
    with the code its own field, E and B rebuild."""


class BadShape(ShadowcodesError, ValueError):
    """A length with no representation in the required form."""


class ParameterNotAdmissible(ShadowcodesError, ValueError):
    """Requested code parameters need a field order that does not exist."""

    def __init__(self, message: str, suggested_q: int | None = None):
        super().__init__(message)
        self.suggested_q = suggested_q


class BudgetExceeded(ShadowcodesError, ValueError):
    """A brute-force scan was asked to cover too large a space."""
