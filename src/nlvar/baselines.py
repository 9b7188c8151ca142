"""Comparison models: training mean, univariate ridge AR, ridge VAR and
group-lasso linear Granger. (The unpartitioned kernel model `nvar` is fitted
by solver.fit like the main methods.)

All baselines consume the same lag embedding and standardization as the main
method and predict in standardized space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (ConfigError, DimensionMismatchError, SingularSystemError,
                     UnsupportedKindError, finite_array, real_number)
from .grouplasso import GroupedProblem, SolverOptions, solve_group_lasso
from .series import (NormStats, SupervisedSet, finite_forecasts, input_rows, lag_columns,
                     model_series)
from .solver import AdjacencyMatrix, normalize_adjacency

BASELINE_METHODS = ("mean", "lar", "lvarl2", "lvarl1")


@dataclass(frozen=True, eq=False)
class BaselineFit:
    """A fitted baseline; all methods but mean must carry a dense (m*p x m)
    coefficient matrix (rows ordered like the embedded input columns),
    checked on construction as a ModelFit is, for the m series of coef or
    else of the norm stats (a mean model may have neither), and frozen like a
    ModelFit: coef is a read-only copy."""

    method: str
    lag: int
    coef: np.ndarray | None = None
    norm_stats: NormStats | None = None
    lam: float | None = None
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        m = None if self.norm_stats is None else self.norm_stats.mean.shape[0]
        if self.coef is not None or self.method != "mean":
            object.__setattr__(self, "coef", finite_array(self.coef, 2, "coef"))
            m = self.coef.shape[1]
        if self.lam is not None:
            object.__setattr__(self, "lam", real_number(self.lam, "lambda"))
            if self.lam < 0.0:
                raise ConfigError(f"lambda {self.lam:g} is not >= 0")
        model_series(self, m)
        if self.coef is not None and self.coef.shape[0] != m * self.lag:
            raise ConfigError(f"coef is {self.coef.shape}, expected {(m * self.lag, m)}")


def _ridge_solve(G: np.ndarray, b: np.ndarray, lam: float) -> np.ndarray:
    A = G + lam * np.eye(G.shape[0])
    try:
        return scipy.linalg.solve(A, b, assume_a="pos", check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise SingularSystemError(
            f"normal equations singular at lam={lam}; design may be rank deficient"
        ) from exc


def fit_baseline(method: str, train: SupervisedSet, lam: float = 0.0,
                 options: SolverOptions = SolverOptions(), norm_stats: NormStats | None = None,
                 names: list[str] | None = None) -> BaselineFit:
    """Fit one baseline method at a fixed regularization value from a cold
    start (lvarl1: its path at that one value). For every method, mean
    included, a lam that is not a finite number (a bool or a string
    included) or is negative raises ConfigError."""
    if method not in BASELINE_METHODS:
        raise UnsupportedKindError(f"unknown baseline method {method!r}")
    lam = real_number(lam, "lam")
    if lam < 0.0:
        raise ConfigError(f"lam must be nonnegative, got {lam}")
    X, Y = train.inputs, train.outputs
    m, p = train.n_series, train.lag

    if method == "mean":
        coef = None
    elif method == "lar":
        coef = np.zeros((m * p, m))
        for j, cols in enumerate(train.partition_map):
            Xj = X[:, cols]
            coef[cols, j] = _ridge_solve(Xj.T @ Xj, Xj.T @ Y[:, j], lam)
    elif method == "lvarl2":
        coef = _ridge_solve(X.T @ X, X.T @ Y, lam)
    else:
        coef = next(lvarl1_path(train, [lam], options)).coef
    return BaselineFit(method=method, lag=p, coef=coef, norm_stats=norm_stats,
                       lam=None if coef is None else lam, names=names)


def lvarl1_path(train: SupervisedSet, lams, options: SolverOptions = SolverOptions()):
    """One lvarl1 fit per penalty of `lams`, in order, on one design (the
    inputs, grouped by series) built once for the m outputs: each output
    starts from its weights at the previous penalty (the first from zero).
    Each penalty is read, in its turn, as GroupedProblem reads one."""
    design = GroupedProblem([train.inputs[:, cols] for cols in train.partition_map],
                            train.outputs[:, 0], 0.0)
    coef = np.zeros((design.B.shape[1], train.n_series))
    for lam in lams:
        for s, y in enumerate(train.outputs.T):
            sol = solve_group_lasso(design.with_target(y, lam), opts=options,
                                    warm_start=np.split(coef[:, s], design.starts[1:]))
            coef[:, s] = np.concatenate(sol.weights)
        yield BaselineFit(method="lvarl1", lag=train.lag, coef=coef, lam=lam)


def predict_baseline(fit: BaselineFit, new_inputs) -> np.ndarray:
    """Standardized-space forecasts for lag-embedded input rows; a
    non-finite input or forecast raises BadDataError. A mean model is a zero
    coef for the m series of its norm stats, or of the rows without them."""
    X = input_rows(new_inputs)
    coef = fit.coef
    if fit.method == "mean":
        m = X.shape[1] // fit.lag if fit.norm_stats is None else fit.norm_stats.mean.shape[0]
        coef = np.zeros((m * fit.lag, m))
    if X.shape[1] != coef.shape[0]:
        raise DimensionMismatchError(
            f"inputs have {X.shape[1]} columns, model expects {coef.shape[0]}"
        )
    return finite_forecasts(lambda: X @ coef)


def baseline_adjacency(fit: BaselineFit) -> AdjacencyMatrix:
    """Granger graph of the group-lasso linear model: entry (j, s) is the l2
    norm of series j's lag coefficients in output s's predictor."""
    if fit.method != "lvarl1":
        raise UnsupportedKindError(f"adjacency is only defined for lvarl1, not {fit.method!r}")
    raw = np.array([np.linalg.norm(fit.coef[cols], axis=0)
                    for cols in lag_columns(fit.coef.shape[1], fit.lag)])
    return AdjacencyMatrix(values=normalize_adjacency(raw), names=fit.names)
