"""Exception types shared across the package."""


class StreamExhaustedError(RuntimeError):
    """A fixed-sequence uniform stream ran out of values."""


class LevelRangeError(ValueError):
    """A quantile level is outside the range an approximation can serve."""


class UnsupportedModelError(ValueError):
    """The requested operation does not apply to this model kind."""


class RecursionInstabilityError(RuntimeError):
    """The discrete recursion denominator 1 - a*f0 is not positive."""


class TruncationError(RuntimeError):
    """Accumulated probability mass is insufficient for the requested level.

    Callers should enlarge the support (raise M, widen the grid) and
    retry.
    """


class ProposalSupportError(RuntimeError):
    """A path proposal moved to a state that is NaN or outside [0, x]."""


class SupportViolationError(RuntimeError):
    """A path proposal returned a negative or non-finite weight ratio, as
    k / (mass q) is where its density q is zero and the kernel k is not."""


class ExtinctionError(RuntimeError):
    """Every selection potential is zero, so no particle can be selected."""


class NumericError(RuntimeError):
    """A quadrature or root solve failed to reach its tolerance.

    Attributes
    ----------
    achieved : float or None
        Error estimate actually achieved, when available.
    """

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved

