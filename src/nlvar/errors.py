"""Exception types raised across the package, and the readers of the values
that config and model types and the solvers take: a bool, a fraction or a
non-finite value raises a typed error instead of being converted."""

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


def data_array(value, ndim: int | None, what: str) -> np.ndarray:
    """`value` as a float array of ndim axes (None: any), itself when it is a
    float array already: the one reader of numeric arrays. A ragged nesting or
    another rank raises DimensionMismatchError; an entry that is a bool, a
    string or another object, or is not finite, BadDataError."""
    try:
        raw = np.asarray(value)
    except ValueError:  # numpy's inhomogeneous shape, or more than 64 axes
        raise DimensionMismatchError(f"{what} is a ragged nesting, not an array") from None
    if ndim is not None and raw.ndim != ndim:
        raise DimensionMismatchError(f"{what} must be a finite {ndim}-d array, not {raw.ndim}-d")
    kind = raw.dtype.kind
    # a bool beside numbers reads as 1.0: one set of a list nesting's types, arrays not entered
    if kind in "iuf" and isinstance(value, (list, tuple)) and not (
            value and isinstance(value[0], np.ndarray)):
        entries = value
        for _ in range(raw.ndim - 1):
            entries = itertools.chain.from_iterable(entries)
        kind = "b" if bool in set(map(type, entries)) else kind
    if kind == "b":
        raise BadDataError(f"{what} must hold numbers, not booleans")
    if kind not in "iuf" or not np.isfinite(raw).all():
        raise BadDataError(f"{what} must hold finite numbers only")
    return raw.astype(float, copy=False)


def data_vector(value, n: int, what: str) -> np.ndarray:
    """A float copy of the n entries of `value`, read by data_array and
    raveled; another count raises DimensionMismatchError."""
    arr = data_array(value, None, what)
    if arr.size != n:
        raise DimensionMismatchError(f"{what} has {arr.size} entries, expected {n}")
    return arr.flatten()


def frozen_array(value, ndim: int, what: str) -> np.ndarray:
    """data_array's ndim-d array as the read-only copy a frozen type holds (the
    caller's stays writable)."""
    arr = data_array(value, ndim, what).copy()
    arr.flags.writeable = False
    return arr


def finite_array(doc, ndim: int, what: str) -> np.ndarray:
    """frozen_array of a config or model value; what data_array rejects raises
    ConfigError."""
    try:
        return frozen_array(doc, ndim, what)
    except (BadDataError, DimensionMismatchError) as exc:
        raise ConfigError(str(exc)) from None
