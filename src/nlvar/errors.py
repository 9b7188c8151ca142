"""Exception types raised across the package, and the readers each type
holding a config or model value calls on construction: a bool, a fraction or
a non-finite value raises ConfigError instead of being converted."""

import itertools
import math
import numbers

import numpy as np


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


#: What a missing key or a malformed value raises on its way into a type.
MALFORMED_VALUE_ERRORS = (AttributeError, KeyError, OverflowError, TypeError, ValueError)


def whole_number(value, what: str) -> int:
    """An integral number as int; a bool, a fraction, a non-finite or a
    non-number value raises ConfigError instead of being truncated."""
    try:
        if not isinstance(value, bool) and value == int(value):
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"{what} must be a whole number, got {value!r}")


def real_number(value, what: str) -> float:
    """A finite number as float; a bool, a string or other non-number, or a
    non-finite value raises ConfigError instead of being converted."""
    try:
        if isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except OverflowError:
        pass
    raise ConfigError(f"{what} must be a finite number, got {value!r}")


def finite_array(doc, ndim: int, what: str) -> np.ndarray:
    """A finite ndim-d (1 or 2) float array, as the read-only copy a frozen
    type holds (the caller's own array stays writable); a wrong shape, a
    non-finite entry or a boolean entry raises ConfigError instead of being
    converted."""
    arr = np.array(doc, dtype=float)
    if not (arr.ndim == ndim and np.all(np.isfinite(arr))):
        raise ConfigError(f"{what} must be a finite {ndim}-d array")
    # the float conversion reads a JSON true as 1.0: one pass over the types
    # of a JSON value's entries (an array holds no bool)
    entries = doc if ndim == 1 else itertools.chain.from_iterable(doc)
    if not isinstance(doc, np.ndarray) and bool in map(type, entries):
        raise ConfigError(f"{what} must hold numbers, not booleans")
    arr.flags.writeable = False
    return arr
