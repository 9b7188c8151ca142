"""Exception types raised across the package."""


class NlvarError(Exception):
    """Base class for all nlvar errors."""


class DimensionMismatchError(NlvarError):
    """Array shapes are inconsistent with each other or with the model."""


class BadRangeError(NlvarError):
    """A window or index argument falls outside the data."""


class ConstantSeriesError(NlvarError):
    """A series is constant over the training window and cannot be rescaled."""


class SeriesTooShortError(NlvarError):
    """The series has too few time steps for the requested lag embedding."""


class DegenerateKernelError(NlvarError):
    """A Gram matrix has (numerically) zero trace and cannot be normalized."""


class NormFactorMissingError(NlvarError):
    """cross_gram called before the kernel was normalized on training data."""


class NotPSDError(NlvarError):
    """A matrix expected to be positive semidefinite has a clearly negative eigenvalue."""


class NonFiniteObjectiveError(NlvarError):
    """An optimizer produced a NaN or infinite objective value."""


class SingularSystemError(NlvarError):
    """A linear system that should be positive definite failed to solve."""


class FoldTooSmallError(NlvarError):
    """Not enough rows to split into the requested number of CV folds."""


class UnsupportedKindError(NlvarError):
    """Operation not defined for this model kind."""


class ConfigError(NlvarError):
    """Invalid experiment or fit configuration, or a malformed model document."""


class BadDataError(NlvarError, ValueError):
    """Series or predict input that is unreadable, non-numeric or non-finite."""
