"""Learning the per-output kernel weights and expansion coefficients.

Two regularization routes: the entrywise-l1 route reduces each per-output
task to a group lasso on empirical features and recovers the kernel weights
in closed form; the l1/l2 route groups kernels by input partition,
eliminates the coefficients and solves the convex reduced problem in the
nonnegative weights by proximal Newton, to the group stationarity gap. Each
output series is an independent task; the fitted weights stack into the
matrix read out as a Granger graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    ConfigError,
    DimensionMismatchError,
    NonFiniteObjectiveError,
    SingularSystemError,
    UnsupportedKindError,
)
from .grouplasso import (
    GroupedProblem,
    SolverOptions,
    group_penalty,
    group_starts,
    kkt_tolerance,
    prox_groups,
    solve_group_lasso,
)
from .kernels import (
    DEFAULT_DICTIONARY,
    RANK_TOL,
    FeatureStack,
    GramStack,
    KernelSpec,
    build_feature_stack,
    build_gram_stack,
    cross_gram,
    partition_columns,
)
from .series import NormStats, SupervisedSet, lag_columns

KERNEL_METHODS = ("nvarl1", "nvarl12", "nvar")

#: Adjacency entries below this fraction of the largest entry are treated as
#: exact zeros (proximal solvers produce true zeros; this only removes dust).
ADJ_ZERO_TOL = 1e-8

#: Rows of new inputs per cross-Gram block in `predict`: a block and its
#: temporaries stay in cache, and memory does not grow with the row count.
_PREDICT_BLOCK_ROWS = 64


@dataclass
class TaskSolution:
    """Solution of one per-output task: kernel weights a >= 0, coefficients c."""

    a: np.ndarray
    c: np.ndarray
    z_blocks: list[np.ndarray] | None
    objective: float
    converged: bool
    objective_trace: list[float]


@dataclass
class ModelFit:
    """A fitted forecaster: weight matrix A (l x m), coefficients C (n x m),
    the kernel specs with their training normalization, and everything needed
    to evaluate the kernel expansion at new points."""

    method: str
    A: np.ndarray
    C: np.ndarray
    specs: list[KernelSpec]
    group_index: list[tuple[int, int]]
    training_inputs: np.ndarray
    norm_stats: NormStats | None
    lag: int
    lam: np.ndarray
    names: list[str] | None = None

    @property
    def n_outputs(self) -> int:
        return self.A.shape[1]


@dataclass
class AdjacencyMatrix:
    """Nonnegative m x m Granger graph; entry (j, s) is the influence of
    series j on series s, zero meaning j is non-causal for s."""

    values: np.ndarray
    names: list[str] | None = None


def task_objective(grams: GramStack, y, a, c, lam: float, method: str) -> float:
    """Penalized objective of one output task at the point (a, c)."""
    y = np.asarray(y, dtype=float).ravel()
    a = np.asarray(a, dtype=float).ravel()
    c = np.asarray(c, dtype=float).ravel()
    if a.shape[0] != grams.n_kernels:
        raise DimensionMismatchError(f"{a.shape[0]} weights for {grams.n_kernels} kernels")
    if a.min(initial=0.0) < 0.0:
        raise ValueError("kernel weights must be nonnegative")
    pred = a @ np.tensordot(grams.grams, c, axes=1)
    quad = float(c @ pred)
    fit_term = float(np.sum((y - pred) ** 2))
    if method == "l1":
        penalty = float(a.sum())
    elif method == "l12":
        penalty = group_penalty(a, group_starts(_group_sizes(grams.group_index)))
    else:
        raise ValueError(f"method must be 'l1' or 'l12', got {method!r}")
    return fit_term + lam * quad + penalty


def _factor_system(grams: GramStack, a, lam: float):
    """M = sum_d a_d K^d + lam I, by one pass over the stack, and its lower
    Cholesky factor."""
    M = np.tensordot(a, grams.grams, axes=1)
    M.flat[::M.shape[0] + 1] += lam
    try:
        return M, scipy.linalg.cho_factor(M, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise SingularSystemError(f"coefficient system not positive definite: {exc}") from exc


def solve_coefficients(grams: GramStack, a, y, lam: float) -> np.ndarray:
    """Expansion coefficients c from the positive definite system
    (sum_d a_d K^d + lam I) c = y, by Cholesky with one refinement pass."""
    if lam <= 0.0:
        raise ValueError(f"lam must be positive, got {lam}")
    a = np.asarray(a, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    M, factor = _factor_system(grams, a, lam)
    c = scipy.linalg.cho_solve(factor, y, check_finite=False)
    c += scipy.linalg.cho_solve(factor, y - M @ c, check_finite=False)
    return c


def _group_sizes(group_index) -> np.ndarray:
    """Sizes of the partition groups of a kernel stack, in stack order."""
    gids = [g for g, _ in group_index]
    if any(later < earlier for earlier, later in zip(gids, gids[1:])):
        raise ValueError("kernels of one partition must be contiguous")
    return np.unique(gids, return_counts=True)[1]


def l1_weights(Z, starts, lam: float) -> np.ndarray:
    """Kernel weights a_d = sqrt(lam) * ||z_d||_2 from stacked feature-space
    weights Z (one task's vector, or one column per task); `starts` are the
    offsets of the kernels' feature blocks."""
    return math.sqrt(lam) * np.sqrt(np.add.reduceat(Z * Z, starts, axis=0))


def solve_task_l1(features: FeatureStack | GroupedProblem, grams: GramStack, y, lam: float,
                  warm=None, opts: SolverOptions | None = None) -> TaskSolution:
    """One output task under the entrywise-l1 weight penalty.

    The task is solved globally as a group lasso over the empirical features
    with penalty 2*sqrt(lam); the kernel weights follow in closed form as
    a_d = sqrt(lam) * ||z_d||_2 and c from the regularized linear system.
    `features` may also be a GroupedProblem over the feature blocks: tasks
    solved on one such problem share its stacked design and majorizer.
    """
    if lam <= 0.0:
        raise ValueError(f"lam must be positive, got {lam}")
    y = np.asarray(y, dtype=float).ravel()
    if isinstance(features, FeatureStack):
        features = GroupedProblem(features.features, y, 0.0)
    problem = features.with_target(y, 2.0 * math.sqrt(lam))
    sol = solve_group_lasso(problem, warm_start=warm, opts=opts)
    _, starts, _ = problem.stacked()
    a = l1_weights(np.concatenate(sol.weights), starts, lam)
    c = solve_coefficients(grams, a, y, lam)
    return TaskSolution(a=a, c=c, z_blocks=sol.weights,
                        objective=task_objective(grams, y, a, c, lam, "l1"),
                        converged=sol.converged, objective_trace=sol.objective_trace)


#: Cap on the projected proximal gradient steps minimizing one Newton model.
_MODEL_STEPS_MAX = 1000

#: A rejected proximal Newton step shrinks by this factor.
BACKTRACK_FACTOR = 0.5


def _group_gap(a, q, starts, sizes) -> float:
    """Group stationarity gap at a, q = -grad h: |q_d - a_d/||a_g||| on a
    group with a_g != 0, (||q_g|| - 1)+ on a zero group."""
    norms = np.sqrt(np.add.reduceat(a * a, starts))
    unit = a / np.repeat(np.where(norms > 0.0, norms, 1.0), sizes)
    active = np.maximum.reduceat(np.abs(q - unit), starts)
    idle = np.maximum(np.sqrt(np.add.reduceat(q * q, starts)) - 1.0, 0.0)
    return float(np.where(norms > 0.0, active, idle).max())


def solve_task_l12(grams: GramStack, group_index, y, lam: float,
                   warm=None, opts: SolverOptions | None = None) -> TaskSolution:
    """One output task under the l1/l2 penalty grouping kernels by partition.

    With c eliminated the task is min h(a) + sum_g ||a_g|| over a >= 0, where
    h(a) = lam y^T M^-1 y, M = sum_d a_d K^d + lam I, is convex, with gradient
    -q, q_d = lam c^T K^d c, and Hessian 2 lam U^T M^-1 U, U = [K^d c].
    Proximal Newton steps, backtracked on the true objective (a monotone
    trace), until the group stationarity gap is at most kkt_tolerance(opts).
    """
    if lam <= 0.0:
        raise ValueError(f"lam must be positive, got {lam}")
    if opts is None:
        opts = SolverOptions()
    y = np.asarray(y, dtype=float).ravel()
    l = grams.n_kernels
    if len(group_index) != l:
        raise DimensionMismatchError("group index does not match the gram stack")
    sizes = _group_sizes(group_index)
    starts = group_starts(sizes)

    a = np.full(l, 1.0 / l) if warm is None else np.array(warm, dtype=float).ravel()
    if a.shape[0] != l or a.min(initial=0.0) < 0.0:
        raise DimensionMismatchError("warm start must be a nonnegative length-l vector")

    tol = kkt_tolerance(opts)

    def at(point):  # (q, H, penalty, objective); the n x n factor dies on return
        factor = _factor_system(grams, point, lam)[1]
        c = scipy.linalg.cho_solve(factor, y, check_finite=False)
        penalty = group_penalty(point, starts)
        obj = lam * float(y @ c) + penalty
        if not np.isfinite(obj):
            raise NonFiniteObjectiveError(f"objective became {obj}")
        U = np.tensordot(grams.grams, c, axes=1)  # row d is K^d c
        H = 2.0 * lam * (U @ scipy.linalg.cho_solve(factor, U.T, check_finite=False))
        return lam * (U @ c), H, penalty, obj

    q, H, penalty, obj = at(a)
    trace: list[float] = []
    for it in range(opts.max_iter + 1):
        trace.append(obj)
        converged = _group_gap(a, q, starts, sizes) <= tol
        if converged or it == opts.max_iter:
            break
        # minimize the model -q.(b - a) + (b - a).H(b - a)/2 + sum_g ||b_g||
        # over b >= 0 by projected proximal gradient from b = a
        sigma = max(float(np.linalg.eigvalsh(H)[-1]), 1e-30)
        b = a
        for _ in range(_MODEL_STEPS_MAX):
            b_prev, b = b, prox_groups(b - (H @ (b - a) - q) / sigma, 1.0 / sigma, starts,
                                       sizes, nonneg=True)
            if sigma * float(np.abs(b - b_prev).max()) <= 0.1 * tol:
                break
        decrease = group_penalty(b, starts) - penalty - float(q @ (b - a))
        t = 1.0
        # Armijo backtrack (a step must achieve 1e-4 of the predicted decrease)
        # while that decrease stays above the objective's rounding
        while -t * decrease > 1e-14 * abs(obj):
            trial = np.maximum(a + t * (b - a), 0.0)
            point = at(trial)
            if point[-1] <= obj + 1e-4 * t * decrease:
                a, (q, H, penalty, obj) = trial, point
                break
            t *= BACKTRACK_FACTOR
        else:
            break

    c = solve_coefficients(grams, a, y, lam)
    obj = task_objective(grams, y, a, c, lam, "l12")
    trace.append(obj)
    return TaskSolution(
        a=a, c=c, z_blocks=None, objective=obj, converged=converged, objective_trace=trace
    )


def fit(method: str, train: SupervisedSet, lam: float, options: SolverOptions | None = None,
        norm_stats: NormStats | None = None, names: list[str] | None = None, *,
        dictionary=DEFAULT_DICTIONARY, feature_tol: float = RANK_TOL) -> ModelFit:
    """Fit all m output tasks of a kernel method at penalty `lam` over a
    shared Gram stack built once.

    Tasks are independent: each sees the same kernels and its own output
    column, so the columns of A and C match per-task solves exactly.
    """
    if method not in KERNEL_METHODS:
        raise ConfigError(f"method must be one of {KERNEL_METHODS}, got {method!r}")
    lam = float(lam)
    m = train.n_series
    partitions = [None] if method == "nvar" else list(range(m))
    grams = build_gram_stack(train.inputs, train.partition_map, dictionary, partitions)

    if method in ("nvarl1", "nvar"):
        features = build_feature_stack(grams, feature_tol)
        # the stacked design and its majorizer depend only on the features,
        # so the m tasks share them
        design = GroupedProblem(features.features, train.outputs[:, 0], 0.0)
        tasks = [solve_task_l1(design, grams, y, lam, opts=options) for y in train.outputs.T]
    else:
        tasks = [solve_task_l12(grams, grams.group_index, y, lam, opts=options)
                 for y in train.outputs.T]

    return ModelFit(
        method=method,
        A=np.column_stack([t.a for t in tasks]),
        C=np.column_stack([t.c for t in tasks]),
        specs=grams.specs,
        group_index=grams.group_index,
        training_inputs=train.inputs.copy(),
        norm_stats=norm_stats,
        lag=train.lag,
        lam=np.full(m, lam),
        names=list(names) if names is not None else None,
    )


def predict(fit_result: ModelFit, new_inputs) -> np.ndarray:
    """One-step forecasts (standardized space) for lag-embedded input rows."""
    X = np.asarray(new_inputs, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    if X.shape[1] != fit_result.training_inputs.shape[1]:
        raise DimensionMismatchError(
            f"inputs have {X.shape[1]} columns, model expects {fit_result.training_inputs.shape[1]}"
        )
    part_map = lag_columns(X.shape[1] // fit_result.lag, fit_result.lag)
    active = []
    for spec, weights in zip(fit_result.specs, fit_result.A):
        if weights.any():
            cols = partition_columns(spec, part_map)
            active.append((spec, cols, fit_result.training_inputs[:, cols], weights[None, :]))
    preds = np.zeros((X.shape[0], fit_result.n_outputs))
    for start in range(0, X.shape[0], _PREDICT_BLOCK_ROWS):
        rows = X[start:start + _PREDICT_BLOCK_ROWS]
        out = preds[start:start + _PREDICT_BLOCK_ROWS]
        for spec, cols, train_cols, weights in active:
            block = cross_gram(spec, train_cols, rows[:, cols])
            out += (block @ fit_result.C) * weights
    return preds


def normalize_adjacency(raw: np.ndarray, threshold: float = ADJ_ZERO_TOL) -> np.ndarray:
    """Zero entries below threshold*max and rescale so the largest entry is 1."""
    raw = np.asarray(raw, dtype=float)
    top = float(raw.max(initial=0.0))
    if top <= 0.0:
        return np.zeros_like(raw)
    vals = np.where(raw < threshold * top, 0.0, raw)
    return vals / top


def adjacency(fit_result: ModelFit, threshold: float = ADJ_ZERO_TOL) -> AdjacencyMatrix:
    """Granger graph from the weight matrix: sum each output's weights over
    the kernels of one input partition; (j, s) = 0 reads as 'series j is
    non-causal for series s'."""
    if any(spec.partition is None for spec in fit_result.specs):
        raise UnsupportedKindError(
            "adjacency is undefined for unpartitioned (full-input) models"
        )
    m_in = max(spec.partition for spec in fit_result.specs) + 1
    raw = np.zeros((m_in, fit_result.n_outputs))
    for d, spec in enumerate(fit_result.specs):
        raw[spec.partition] += fit_result.A[d]
    return AdjacencyMatrix(
        values=normalize_adjacency(raw, threshold), names=fit_result.names
    )
