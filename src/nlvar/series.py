"""Raw series handling: standardization, lag embedding, CSV ingestion.

All operations are pure value transformations; inputs are never mutated and
returned objects own their arrays.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import (BadDataError, BadRangeError, ConfigError, ConstantSeriesError,
                     DimensionMismatchError, SeriesTooShortError, data_array, finite_array,
                     whole_number)

STD_FLOOR = 1e-12


@dataclass
class MultivariateSeries:
    """An m-dimensional series: rows are time steps, columns scalar series."""

    values: np.ndarray
    names: list[str]

    def __post_init__(self):
        self.values = data_array(self.values, 2, "series values")
        n, m = self.values.shape
        if n < 1 or m < 1:
            raise DimensionMismatchError("series needs at least one row and one column")
        if not _strings(self.names):
            raise BadDataError(f"series names must be a list of strings, got {self.names!r}")
        if len(self.names) != m:
            raise DimensionMismatchError(
                f"series has {m} columns but {len(self.names)} names"
            )

    @property
    def n_steps(self) -> int:
        return self.values.shape[0]

    @property
    def n_series(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class NormStats:
    """Per-series location/scale computed on a training window (finite, 1-d),
    frozen with read-only copies of its arrays like the model that holds it."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", finite_array(self.mean, 1, "norm_stats mean"))
        object.__setattr__(self, "std", finite_array(self.std, 1, "norm_stats std"))
        if self.mean.shape != self.std.shape:
            raise DimensionMismatchError("mean and std must be equally long")
        if np.any(self.std <= 0):
            raise ConstantSeriesError("std entries must be strictly positive")


def _strings(names) -> bool:
    return isinstance(names, (list, tuple)) and all(isinstance(name, str) for name in names)


def model_series(model, m: int | None) -> None:
    """Check a fitted model's lag, names and norm stats for its m series
    (None: not counted), and set its lag and names as read: a lag >= 1, names
    None or a tuple of m strings, and norm stats None or of m series. A value
    that breaks this raises ConfigError."""
    lag, names, stats = whole_number(model.lag, "model lag"), model.names, model.norm_stats
    if lag < 1:
        raise ConfigError(f"model lag must be at least 1, got {lag}")
    if names is not None and not (_strings(names) and m in (None, len(names))):
        raise ConfigError("model names must be null or a list of strings, one per series")
    if stats is not None and m not in (None, stats.mean.shape[0]):
        raise ConfigError(f"model norm_stats cover {stats.mean.shape[0]} series, not {m}")
    object.__setattr__(model, "lag", lag)
    object.__setattr__(model, "names", None if names is None else tuple(names))


@dataclass
class SupervisedSet:
    """Lag-embedded input/output pairs of n_series (the output width) series.

    Input columns are grouped by source series, most recent observation
    first within each group; ``partition_map[j]`` (from lag_columns) lists
    the ``lag`` input columns holding the past of series ``j``.
    """

    inputs: np.ndarray
    outputs: np.ndarray
    lag: int

    def __post_init__(self):
        self.inputs = data_array(self.inputs, 2, "inputs")
        self.outputs = data_array(self.outputs, 2, "outputs")
        if self.inputs.shape[0] != self.outputs.shape[0]:
            raise DimensionMismatchError("inputs and outputs row counts differ")
        if self.inputs.shape[1] != self.n_series * self.lag:
            raise DimensionMismatchError(
                f"expected {self.n_series * self.lag} input columns, got {self.inputs.shape[1]}"
            )

    @property
    def n_pairs(self) -> int:
        return self.inputs.shape[0]

    @property
    def n_series(self) -> int:
        return self.outputs.shape[1]

    @property
    def partition_map(self) -> list[list[int]]:
        return lag_columns(self.n_series, self.lag)

    def subset(self, rows) -> "SupervisedSet":
        """Row-sliced copy with the same lag."""
        rows = np.asarray(rows)
        return SupervisedSet(inputs=self.inputs[rows].copy(), outputs=self.outputs[rows].copy(),
                             lag=self.lag)


def standardize_fit(series: MultivariateSeries, train_len: int) -> NormStats:
    """Compute per-series mean/std over the first ``train_len`` rows.

    Std uses the unbiased (n-1) divisor. A train_len that is no whole number
    raises ConfigError, a column (numerically) constant over the window
    ConstantSeriesError, and finite values that overflow a mean or std BadDataError.
    """
    train_len = whole_number(train_len, "train_len")
    if not 2 <= train_len <= series.n_steps:
        raise BadRangeError(
            f"train_len must be in [2, {series.n_steps}], got {train_len}"
        )
    window = series.values[:train_len]
    with np.errstate(over="ignore", invalid="ignore"):
        mean = window.mean(axis=0)
        std = window.std(axis=0, ddof=1)
    huge = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(std)))
    if huge.size:
        raise BadDataError(f"series {[series.names[j] for j in huge]} overflow the "
                           "standardization: their mean or std is not finite")
    flat = np.flatnonzero(std < STD_FLOOR)
    if flat.size:
        raise ConstantSeriesError(
            f"series {[series.names[j] for j in flat]} constant over the training window"
        )
    return NormStats(mean=mean, std=std)


def standardize_apply(
    series: MultivariateSeries, stats: NormStats, direction: str = "forward"
) -> MultivariateSeries:
    """Apply the per-series affine rescaling, or undo it ("inverse", which
    maps standardized forecasts back to original units). Finite values that
    overflow either way raise BadDataError."""
    if series.n_series != stats.mean.shape[0]:
        raise DimensionMismatchError(
            f"series has {series.n_series} columns, stats cover {stats.mean.shape[0]}"
        )
    if direction not in ("forward", "inverse"):
        raise ConfigError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        if direction == "forward":
            values = (series.values - stats.mean) / stats.std
        else:
            values = series.values * stats.std + stats.mean
    if not np.all(np.isfinite(values)):
        raise BadDataError("the series overflows when standardized" if direction == "forward"
                           else "the forecast overflows in original units")
    return MultivariateSeries(values=values, names=list(series.names))


def input_rows(new_inputs) -> np.ndarray:
    """Lag-embedded input rows (data_array) as a 2-d float array; one row may
    come as a vector, and more axes raise DimensionMismatchError."""
    X = data_array(new_inputs, None, "predict inputs")
    X = X[None, :] if X.ndim == 1 else X
    if X.ndim != 2:
        raise DimensionMismatchError(f"predict inputs must be one row or 2-d, not {X.ndim}-d")
    return X


def finite_forecasts(forecast) -> np.ndarray:
    """forecast(), computed with numpy's floating-point warnings off; a NaN
    or infinite forecast (finite inputs that overflow the model) raises
    BadDataError."""
    with np.errstate(all="ignore"):
        preds = forecast()
    if not np.all(np.isfinite(preds)):
        raise BadDataError("forecast is not finite: the inputs overflow the model")
    return preds


def lag_columns(m: int, p: int) -> list[list[int]]:
    """The input columns of each of m series in a lag-p embedding:
    series j owns columns j*p .. j*p+p-1."""
    return [[j * p + k for k in range(p)] for j in range(m)]


def lag_embed(series: MultivariateSeries, p: int) -> SupervisedSet:
    """Build one-step-ahead supervised pairs from ``p`` past observations.

    Pair t (t = 0..n_total-p-1) has output ``series[t+p]`` and inputs holding,
    for each series j, the values at times t+p-1, t+p-2, ..., t (most recent
    first), in columns ``j*p .. j*p+p-1``; ``p`` is read by whole_number.
    """
    p = whole_number(p, "lag")
    if p < 1:
        raise BadRangeError(f"lag must be positive, got {p}")
    n_total, m = series.values.shape
    if n_total <= p:
        raise SeriesTooShortError(
            f"need more than lag={p} steps, series has {n_total}"
        )
    n = n_total - p
    inputs = np.empty((n, m * p))
    for j in range(m):
        col = series.values[:, j]
        for k in range(p):
            inputs[:, j * p + k] = col[p - 1 - k : p - 1 - k + n]
    outputs = series.values[p:].copy()
    return SupervisedSet(inputs=inputs, outputs=outputs, lag=p)


def read_csv(path) -> MultivariateSeries:
    """Load a series from CSV: header row of names, one time step per row.

    Missing or non-numeric values, bytes that do not decode and a field over
    the csv module's limit are errors; no imputation is attempted.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            names = [name.strip() for name in next(reader)]
            rows = []
            for lineno, row in enumerate(reader, start=2):
                if len(row) != len(names):
                    raise BadDataError(f"{path}:{lineno}: expected {len(names)} values, "
                                       f"got {len(row)}")
                try:
                    rows.append([float(cell) for cell in row])
                except ValueError:
                    raise BadDataError(f"{path}:{lineno}: missing or non-numeric value") from None
        except StopIteration:
            raise BadDataError(f"{path}: empty file") from None
        except (UnicodeDecodeError, csv.Error) as exc:
            raise BadDataError(f"{path}: not a readable CSV file: {exc}") from None
    if not rows:
        raise BadDataError(f"{path}: no data rows")
    return MultivariateSeries(values=rows, names=names)


def write_csv(series: MultivariateSeries, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(series.names)
        # the csv module writes a Python float as its repr, which reads back exactly
        writer.writerows(series.values.tolist())
