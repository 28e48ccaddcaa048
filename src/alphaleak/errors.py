"""Exception taxonomy shared by all modules."""


class AlphaleakError(Exception):
    """Base class for all library errors."""


class NegativeWeight(AlphaleakError, ValueError):
    """A probability weight is negative."""


class ZeroTotal(AlphaleakError, ValueError):
    """All weights are zero, nothing to normalize."""


class NotNormalized(AlphaleakError, ValueError):
    """Weights do not sum to one and renormalization was not requested."""


class DimensionMismatch(AlphaleakError, ValueError):
    """Shapes or label sets of two objects do not line up."""


class InvalidOrder(AlphaleakError, ValueError):
    """An order parameter (alpha, beta, q, p) is outside its valid range."""


class DomainError(AlphaleakError, ValueError):
    """An argument lies outside the domain of the requested map."""


class UnsupportedVariant(AlphaleakError, ValueError):
    """The requested measure variant or method combination is not defined."""


class OracleTooLarge(AlphaleakError, ValueError):
    """A brute-force grid would exceed the enumeration budget."""


class ConvergenceFailure(AlphaleakError, RuntimeError):
    """An iterative solver exhausted its budget with residual above tolerance."""


class NumericalInconsistency(AlphaleakError, RuntimeError):
    """A quantity violates a sign/bound constraint by more than rounding noise."""


class DegenerateVulnerability(AlphaleakError, ValueError):
    """A leakage ratio is undefined (zero or non-finite prior vulnerability),
    or a vulnerability problem has no finite optimum."""


class ParseError(AlphaleakError, ValueError):
    """An input document could not be parsed."""


class ValidationError(AlphaleakError, ValueError):
    """An input document parsed but violates a distribution invariant."""
