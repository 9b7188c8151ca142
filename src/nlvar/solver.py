"""Learning the per-output kernel weights and expansion coefficients.

Two regularization routes: the entrywise-l1 route reduces each per-output
task to a group lasso on empirical features and recovers the kernel weights
in closed form; the l1/l2 route groups kernels by input partition and
alternates exact coefficient solves with backtracked proximal gradient steps
on the nonnegative weights, iterated until the weight subproblem is
stationary (at most A_STEP_MAX steps). Each output series is an independent
task; the fitted weights stack into the matrix read out as a Granger graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

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
    BACKTRACK_FACTOR,
    GroupedProblem,
    SolverOptions,
    group_penalty,
    group_starts,
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


@dataclass
class FitConfig:
    method: str = "nvarl1"
    lam: float | Sequence[float] = 1.0
    dictionary: tuple = DEFAULT_DICTIONARY
    feature_tol: float = RANK_TOL
    options: SolverOptions | None = None

    def __post_init__(self):
        if self.method not in KERNEL_METHODS:
            raise ConfigError(
                f"method must be one of {KERNEL_METHODS}, got {self.method!r}"
            )


def task_objective(grams: GramStack, y, a, c, lam: float, method: str) -> float:
    """Penalized objective of one output task at the point (a, c)."""
    y = np.asarray(y, dtype=float).ravel()
    a = np.asarray(a, dtype=float).ravel()
    c = np.asarray(c, dtype=float).ravel()
    if a.shape[0] != grams.n_kernels:
        raise DimensionMismatchError(f"{a.shape[0]} weights for {grams.n_kernels} kernels")
    if a.min(initial=0.0) < 0.0:
        raise ValueError("kernel weights must be nonnegative")
    pred = np.zeros_like(y)
    quad = 0.0
    for d in np.flatnonzero(a):
        Kc = grams.grams[d] @ c
        pred += a[d] * Kc
        quad += a[d] * float(c @ Kc)
    fit_term = float(np.sum((y - pred) ** 2))
    if method == "l1":
        penalty = float(a.sum())
    elif method == "l12":
        penalty = group_penalty(a, group_starts(_group_sizes(grams.group_index)))
    else:
        raise ValueError(f"method must be 'l1' or 'l12', got {method!r}")
    return fit_term + lam * quad + penalty


def solve_coefficients(grams: GramStack, a, y, lam: float) -> np.ndarray:
    """Expansion coefficients c from the positive definite system
    (sum_d a_d K^d + lam I) c = y, by Cholesky with one refinement pass."""
    if lam <= 0.0:
        raise ValueError(f"lam must be positive, got {lam}")
    a = np.asarray(a, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    n = grams.n_train
    M = np.eye(n) * lam
    for d in np.flatnonzero(a):
        M += a[d] * grams.grams[d]
    try:
        factor = scipy.linalg.cho_factor(M, lower=True, check_finite=False)
        c = scipy.linalg.cho_solve(factor, y, check_finite=False)
        c += scipy.linalg.cho_solve(factor, y - M @ c, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise SingularSystemError(f"coefficient system not positive definite: {exc}") from exc
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
    solved on one such problem share its stacked design and step-size bound.
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


#: Cap on proximal gradient steps within one weight update of the
#: alternating l1/l2 solver (the subproblem is l-dimensional and cheap;
#: running it to stationarity keeps the number of expensive coefficient
#: solves small).
A_STEP_MAX = 200


def solve_task_l12(grams: GramStack, group_index, y, lam: float,
                   warm=None, opts: SolverOptions | None = None) -> TaskSolution:
    """One output task under the l1/l2 penalty grouping kernels by partition.

    Alternating minimization: an exact coefficient solve, then backtracked
    proximal gradient steps on the nonnegative weights (iterated until the
    weight subproblem is stationary) per outer iteration. Jointly
    non-convex, so the result may be a local minimum.
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

    if warm is None:
        a = np.full(l, 1.0 / l)
    else:
        a = np.array(warm.a if isinstance(warm, TaskSolution) else warm, dtype=float).ravel()
        if a.shape[0] != l or a.min(initial=0.0) < 0.0:
            raise DimensionMismatchError("warm start must be a nonnegative length-l vector")

    yy = float(y @ y)
    trace: list[float] = []
    converged = False
    for it in range(1, opts.max_iter + 1):
        c = solve_coefficients(grams, a, y, lam)
        U = np.column_stack([K @ c for K in grams.grams])
        q = U.T @ c
        Uty = U.T @ y
        G = U.T @ U

        def smooth(vec):
            return yy - 2.0 * float(Uty @ vec) + float(vec @ (G @ vec)) + lam * float(q @ vec)

        sigma = float(np.linalg.eigvalsh(G)[-1])
        step = 1.0 / max(sigma, 1e-30)
        g_a = smooth(a)
        comp = g_a + group_penalty(a, starts)
        for _ in range(A_STEP_MAX):
            grad = 2.0 * (G @ a - Uty) + lam * q
            while True:
                a_new = prox_groups(a - step * grad, step, starts, sizes, nonneg=True)
                delta = a_new - a
                dd = float(delta @ delta)
                if dd == 0.0:
                    break
                if smooth(a_new) <= g_a + float(grad @ delta) + dd / (2.0 * step) + 1e-12 * max(1.0, abs(g_a)):
                    break
                step *= BACKTRACK_FACTOR
                if step <= 1e-300:
                    raise NonFiniteObjectiveError("weight-step line search underflow")
            if dd == 0.0:
                break
            a = a_new
            g_a = smooth(a)
            comp_new = g_a + group_penalty(a, starts)
            moved = abs(comp - comp_new)
            comp = comp_new
            if moved <= 0.1 * opts.rel_tol * max(abs(comp), 1e-300):
                break

        obj = comp
        if not np.isfinite(obj):
            raise NonFiniteObjectiveError(f"objective became {obj} at outer iteration {it}")
        if trace and abs(trace[-1] - obj) <= opts.rel_tol * max(abs(trace[-1]), 1e-300):
            trace.append(obj)
            converged = True
            break
        trace.append(obj)

    c = solve_coefficients(grams, a, y, lam)
    obj = task_objective(grams, y, a, c, lam, "l12")
    trace.append(obj)
    return TaskSolution(
        a=a, c=c, z_blocks=None, objective=obj, converged=converged, objective_trace=trace
    )


def fit(train: SupervisedSet, config: FitConfig, norm_stats: NormStats | None = None,
        names: list[str] | None = None) -> ModelFit:
    """Fit all m output tasks over a shared Gram stack built once.

    Tasks are independent: each sees the same kernels and its own output
    column, so the columns of A and C match per-task solves exactly.
    """
    m = train.n_series
    lam_vec = np.asarray(config.lam, dtype=float).ravel()
    if lam_vec.size == 1:
        lam_vec = np.full(m, float(lam_vec[0]))
    elif lam_vec.size != m:
        raise ConfigError(f"lam must be scalar or length {m}, got {lam_vec.size}")

    partitions = [None] if config.method == "nvar" else list(range(m))
    grams = build_gram_stack(train.inputs, train.partition_map, config.dictionary, partitions)

    tasks: list[TaskSolution] = []
    if config.method in ("nvarl1", "nvar"):
        features = build_feature_stack(grams, config.feature_tol)
        # the stacked design and its Lipschitz estimate depend only on the
        # features, so the m tasks share them
        design = GroupedProblem(features.features, train.outputs[:, 0], 0.0)
        for s in range(m):
            tasks.append(solve_task_l1(design, grams, train.outputs[:, s], lam_vec[s],
                                       opts=config.options))
    else:
        for s in range(m):
            tasks.append(
                solve_task_l12(grams, grams.group_index, train.outputs[:, s],
                               lam_vec[s], opts=config.options)
            )

    return ModelFit(
        method=config.method,
        A=np.column_stack([t.a for t in tasks]),
        C=np.column_stack([t.c for t in tasks]),
        specs=grams.specs,
        group_index=grams.group_index,
        training_inputs=train.inputs.copy(),
        norm_stats=norm_stats,
        lag=train.lag,
        lam=lam_vec,
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
    preds = np.zeros((X.shape[0], fit_result.n_outputs))
    for d, spec in enumerate(fit_result.specs):
        row = fit_result.A[d]
        if not row.any():
            continue
        cols = partition_columns(spec, part_map)
        block = cross_gram(spec, fit_result.training_inputs[:, cols], X[:, cols])
        preds += (block @ fit_result.C) * row[None, :]
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
