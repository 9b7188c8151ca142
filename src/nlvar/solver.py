"""Learning the per-output kernel weights and expansion coefficients.

Two regularization routes: the entrywise-l1 route reduces each per-output
task to a group lasso on empirical features, recovers the kernel weights in
closed form and reads the coefficients off the solver's residual; the l1/l2
route groups kernels by input partition, eliminates the coefficients and
solves the convex reduced problem in the nonnegative weights by proximal
Newton, to the group stationarity gap. Each output series is an independent
task; the fitted weights stack into the matrix read out as a Granger graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import blas, lapack

from .errors import (BadDataError, ConfigError, DimensionMismatchError,
                     NonFiniteObjectiveError, SingularSystemError, UnsupportedKindError,
                     finite_array)
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
    FeatureStack,
    GramStack,
    KernelSpec,
    TrainingRows,
    build_feature_stack,
    build_gram_stack,
    cross_gram,
    group_index_of,
    group_sizes,
)
from .series import NormStats, SupervisedSet, finite_forecasts, input_rows, model_series

KERNEL_METHODS = ("nvarl1", "nvarl12", "nvar")

#: Adjacency entries below this fraction of the largest entry are treated as
#: exact zeros (proximal solvers produce true zeros; this only removes dust).
ADJ_ZERO_TOL = 1e-8

#: (Slot x row) pairs of new inputs per cross-Gram block in `predict` (one
#: row of each slot when a layout has more slots): a block's kernels and their
#: temporaries stay in cache, and memory does not grow with the row count.
_PREDICT_BLOCK_ROWS = 32


@dataclass
class TaskSolution:
    """Solution of one per-output task: kernel weights a >= 0, coefficients c.

    objective (objective_trace[-1]) is the task objective
    ||y - sum_d a_d K^d c||^2 + lam sum_d a_d c^T K^d c + penalty(a) as the
    route's solver holds it where the solve stopped. The l1 route reports
    its group lasso's objective ||y - B w||^2 + 2 sqrt(lam) sum_d ||w_d||,
    equal to the task objective at (a, c) at the optimum and apart from it
    by the square of the KKT residual; the l1/l2 route reports
    lam y^T c + sum_g ||a_g|| at the refined c, equal to it wherever
    (sum_d a_d K^d + lam I) c = y.
    """

    a: np.ndarray
    c: np.ndarray
    z_blocks: list[np.ndarray] | None
    converged: bool
    objective_trace: list[float]

    @property
    def objective(self) -> float:
        return self.objective_trace[-1]


def _serving_plan(A, specs, X, columns) -> tuple:
    """(grid, weights, rows, columns) of each (kind, param) layout that the
    active kernels of P slots (rows of `columns`) share: each slot's k specs,
    their (k, P, m) rows of A, the slots' TrainingRows and (P, p) columns."""
    # grouped by slot, not by group_sizes: a model document may list a
    # partition's kernels apart
    kernels_of: dict = {}
    for d in np.flatnonzero(A.any(axis=1)).tolist():
        kernels_of.setdefault(specs[d].partition or 0, []).append(d)
    layouts: dict = {}
    for slot, kernels in kernels_of.items():
        layouts.setdefault(tuple((specs[d].kind, specs[d].param) for d in kernels), []).append(slot)
    plan = []
    for slots in layouts.values():
        kernels = [kernels_of[slot] for slot in slots]
        weights, cols = A[np.transpose(kernels)], columns[slots]
        train = TrainingRows.of(np.stack([X[:, c] for c in cols]))
        for arr in (weights, cols, train.rows, train.half_sq):
            arr.flags.writeable = False
        plan.append((tuple(tuple(specs[d] for d in k) for k in kernels), weights, train, cols))
    return tuple(plan)


@dataclass(frozen=True, eq=False)
class ModelFit:
    """A fitted forecaster: weight matrix A (l x m), coefficients C (n x m),
    the kernel specs with their training normalization, and everything needed
    to evaluate the kernel expansion at new points.

    Loaded, fitted or built by hand, a model is read and checked on
    construction (the lag, names and norm stats by series.model_series); a
    value or shape the forecasts cannot use raises ConfigError. A model is a
    frozen value: its arrays are read-only copies, specs and names tuples,
    and dataclasses.replace makes a changed copy, checked again.

    With its inputs fixed, construction also builds the plan predict serves
    from (_serving_plan), over one input slot per series, or one of the
    full row when no spec has a partition (specs may not mix the two).
    """

    method: str
    A: np.ndarray
    C: np.ndarray
    specs: tuple[KernelSpec, ...]
    group_index: tuple[tuple[int, int], ...]
    training_inputs: np.ndarray
    norm_stats: NormStats | None
    lag: int
    lam: np.ndarray
    names: tuple[str, ...] | None = None
    plan: tuple = field(init=False, repr=False)

    def __post_init__(self):
        for name, ndim, what in (("A", 2, "weights A"), ("C", 2, "coefficients C"),
                                 ("lam", 1, "lambda"), ("training_inputs", 2, "training_inputs")):
            object.__setattr__(self, name, finite_array(getattr(self, name), ndim, what))
        l, m = self.A.shape
        model_series(self, m)
        object.__setattr__(self, "specs", tuple(self.specs))
        object.__setattr__(self, "group_index", tuple(self.group_index))
        X = self.training_inputs
        if l != len(self.specs):
            raise ConfigError(f"weights A have {l} rows for {len(self.specs)} kernel specs")
        if self.C.shape != (X.shape[0], m):
            raise ConfigError(f"coefficients C are {self.C.shape}, expected {(X.shape[0], m)}")
        if X.shape[1] != m * self.lag:
            raise ConfigError(f"training_inputs have {X.shape[1]} columns, expected {m * self.lag}")
        if self.lam.shape != (m,):
            raise ConfigError(f"lambda has {self.lam.size} entries for {m} outputs")
        if not (self.lam > 0.0).all():
            raise ConfigError(f"lambda {self.lam.min():g} is not > 0")
        if (self.A < 0.0).any():
            raise ConfigError(f"weights A hold a negative entry, {self.A.min():g}")
        for spec in self.specs:
            if spec.norm_factor is None:
                raise ConfigError(f"spec {spec.label()} has no norm_factor")
            if spec.partition is not None and not 0 <= spec.partition < m:
                raise ConfigError(f"spec {spec.label()} names a partition outside 0..{m - 1}")
        full = [spec.partition is None for spec in self.specs]
        if any(full) and not all(full):
            raise ConfigError("kernel specs mix full-input and partitioned kernels")
        columns = np.arange(X.shape[1]).reshape(1 if any(full) else m, -1)
        object.__setattr__(self, "plan", _serving_plan(self.A, self.specs, X, columns))

    @property
    def n_outputs(self) -> int:
        return self.A.shape[1]


@dataclass
class AdjacencyMatrix:
    """Nonnegative m x m Granger graph; entry (j, s) is the influence of
    series j on series s, zero meaning j is non-causal for s."""

    values: np.ndarray
    names: list[str] | None = None


# The dense algebra below stays on scipy's BLAS/LAPACK: numpy and scipy each load
# their own OpenBLAS thread pool, and every switch between the two waits on the
# other pool. The packed stack's transpose reaches f2py without a copy, and
# every n x n system is held and read as its lower triangle.
def _stack_times(grams: GramStack, c) -> np.ndarray:
    """U = [K^d c], row d, by one dspmv per packed Gram."""
    n = grams.n_train
    return np.array([blas.dspmv(n, 1.0, K, c, lower=1) for K in grams.packed])


def _gram_sum(grams: GramStack, a) -> np.ndarray:
    """sum_d a_d K^d as a Fortran-ordered lower triangle (zero above it):
    one dgemv over the packed stack, unpacked by dtpttr."""
    if a.shape != (grams.n_kernels,):
        raise DimensionMismatchError(f"{a.shape[0]} weights for {grams.n_kernels} kernels")
    packed_sum = blas.dgemv(1.0, grams.packed.T, a)
    return lapack.dtpttr(grams.n_train, packed_sum, uplo="L")[0]


def _cholesky(M, overwrite: bool = False):
    """Lower Cholesky factor of the positive definite M (in place if `overwrite`)."""
    factor, info = lapack.dpotrf(M, lower=1, clean=0, overwrite_a=overwrite)
    if info != 0:
        raise SingularSystemError(f"coefficient system not positive definite (dpotrf info {info})")
    return factor


def _factor_system(grams: GramStack, a, lam: float):
    """M = sum_d a_d K^d + lam I (a Fortran-ordered lower triangle) and its
    lower Cholesky factor."""
    M = _gram_sum(grams, a)
    M.ravel(order="F")[::M.shape[0] + 1] += lam
    return M, _cholesky(M)


def _cho_solve(factor, b) -> np.ndarray:
    """M^-1 b from the lower Cholesky factor of M."""
    return lapack.dpotrs(factor, b, lower=1)[0]


def _target(grams: GramStack, y) -> np.ndarray:
    """One task's target as a float vector of the stack's n entries; another
    length raises DimensionMismatchError and a non-finite entry BadDataError."""
    y = np.asarray(y, dtype=float).ravel()
    if y.shape != (grams.n_train,):
        raise DimensionMismatchError(f"target of {y.size} entries for {grams.n_train} rows")
    if not np.isfinite(y).all():
        raise BadDataError("the target holds a non-finite entry")
    return y


def solve_coefficients(grams: GramStack, a, y, lam: float) -> np.ndarray:
    """Expansion coefficients c from the positive definite system
    (sum_d a_d K^d + lam I) c = y, by Cholesky with one refinement pass; a
    y of another length than the stack's n raises DimensionMismatchError and
    a non-finite y BadDataError."""
    if lam <= 0.0:
        raise ConfigError(f"lam must be positive, got {lam}")
    a = np.asarray(a, dtype=float).ravel()
    y = _target(grams, y)
    M, factor = _factor_system(grams, a, lam)
    c = _cho_solve(factor, y)
    c += _cho_solve(factor, blas.dsymv(-1.0, M, c, beta=1.0, y=y, lower=1))
    return c


def l1_penalty(lam: float) -> float:
    """kappa = 2 sqrt(lam), the group-lasso penalty of an l1-route task at
    lam, in final fits and along the CV path alike; a lam that is not > 0
    raises ConfigError."""
    if not lam > 0.0:
        raise ConfigError(f"lam must be positive, got {lam}")
    return 2.0 * math.sqrt(lam)


def l1_solution(problem: GroupedProblem, W, Y, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """(A, C) of the l1 route from group-lasso weights W on `problem`'s
    design: kernel weights a_d = kappa / 2 * ||w_d||_2 = sqrt(lam) * ||w_d||_2
    (kappa = l1_penalty(lam)) and coefficients c = (y - B w) / lam, the
    residual over lam. W and Y hold one task's vectors, or one column per
    task."""
    A = 0.5 * l1_penalty(lam) * np.sqrt(np.add.reduceat(W * W, problem.starts, axis=0))
    return A, (Y - problem.B @ W) / lam


def solve_task_l1(features: FeatureStack, grams: GramStack, y, lam: float,
                  warm=None, opts: SolverOptions = SolverOptions()) -> TaskSolution:
    """One output task under the entrywise-l1 weight penalty.

    The task is solved globally as a group lasso over the empirical features
    with penalty l1_penalty(lam); the kernel weights follow in closed form as
    a_d = sqrt(lam) * ||z_d||_2, and c = (y - sum_d Phi_d z_d) / lam, the
    residual over lam, solves (sum_d a_d K^d + lam I) c = y at the optimum.
    """
    y = np.asarray(y, dtype=float).ravel()
    if len(features.features) != grams.n_kernels:
        raise DimensionMismatchError(
            f"{len(features.features)} feature blocks for {grams.n_kernels} kernels"
        )
    return _solve_l1(GroupedProblem(features.features, y, 0.0), y, lam, warm, opts)


def _solve_l1(design: GroupedProblem, y, lam: float, warm, opts: SolverOptions) -> TaskSolution:
    """One l1-route task on the stacked design of its kernels' features."""
    problem = design.with_target(y, l1_penalty(lam))
    sol = solve_group_lasso(problem, warm_start=warm, opts=opts)
    a, c = l1_solution(problem, np.concatenate(sol.weights), y, lam)
    return TaskSolution(a=a, c=c, z_blocks=sol.weights, converged=sol.converged,
                        objective_trace=sol.objective_trace)


def l1_design(method: str, train: SupervisedSet,
              dictionary=DEFAULT_DICTIONARY) -> tuple[list[KernelSpec], GroupedProblem]:
    """The kernel specs of the l1 route (nvarl1, nvar) on `train`, with their
    norm factors, and the stacked design of their empirical features.

    Each input partition's Grams are built, factored into their features and
    dropped before the next partition's are built, so the route never holds
    the whole stack; build_gram_stack builds every partition alone,
    so the features are those of the full stack bit for bit. The design's
    target is a placeholder (the first output): each task sets its own.
    """
    specs, features = [], []
    for part in [None] if method == "nvar" else range(train.n_series):
        grams = build_gram_stack(train.inputs, train.partition_map, dictionary, [part])
        specs += grams.specs
        features += build_feature_stack(grams).features
        del grams
    return specs, GroupedProblem(features, train.outputs[:, 0], 0.0)


#: Cap on the projected proximal gradient steps minimizing one Newton model.
_MODEL_STEPS_MAX = 1000

#: A Newton model is minimized until sigma max|db| <= max(_MODEL_TOL_FLOOR * tol,
#: min(_FORCING_CAP, gap) * gap), gap the outer stationarity gap: far from the
#: optimum a rough model step does, and the forcing term tightens it as the gap
#: closes (inexact proximal Newton; Lee, Sun & Saunders, SIAM J. Optim. 2014).
_MODEL_TOL_FLOOR = 0.1
_FORCING_CAP = 0.1

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


#: The cold start's search along the ray stops once phi'(s) >= -_RAY_TOL * P:
#: phi(s) is then within 1.5e-7 relative of the ray's minimum on random tasks
#: (1.4e-5 at 1e-2, one factorization fewer). Newton from s = 0 gets there in
#: 3-5 steps; _RAY_STEPS_MAX only bounds the loop.
_RAY_TOL = 1e-3
_RAY_STEPS_MAX = 50


def _ray_start(grams: GramStack, y, lam: float, starts) -> np.ndarray:
    """Cold start s u: the minimizer of the task objective along the ray of
    uniform weights u = 1/l, phi(s) = lam y^T (s Kbar + lam I)^-1 y + s P with
    Kbar = sum_d u_d K^d and P = sum_g ||u_g||.

    phi is convex with phi'(s) = P - g(s), g = lam c^T Kbar c for
    c = (s Kbar + lam I)^-1 y, so s = 0 when g(0) = y^T Kbar y / lam <= P
    (within _RAY_TOL). Otherwise Newton solves g^(-1/2) = P^(-1/2): over
    Kbar's eigenpairs g^(-1/2) is a power mean of degree -2 of the affine
    s mu_i + lam, concave and increasing in s, so Newton climbs from s = 0 to
    the root without passing it. g'(s) = -2 lam v^T (s Kbar + lam I)^-1 v
    with v = Kbar c. Only Kbar and one n x n work matrix, factored in place,
    are held.
    """
    u = np.full(grams.n_kernels, 1.0 / grams.n_kernels)
    P = group_penalty(u, starts)
    Kbar = _gram_sum(grams, u)
    M = np.empty_like(Kbar)
    s, c, factor = 0.0, y / lam, None
    for _ in range(_RAY_STEPS_MAX):
        v = blas.dsymv(1.0, Kbar, c, lower=1)
        g = lam * float(c @ v)
        if g <= (1.0 + _RAY_TOL) * P:
            break
        curvature = float(v @ v) / lam if factor is None else float(v @ _cho_solve(factor, v))
        s += g * (math.sqrt(g / P) - 1.0) / (lam * curvature)
        np.multiply(Kbar, s, out=M)
        M.ravel(order="F")[::M.shape[0] + 1] += lam
        factor = _cholesky(M, overwrite=True)
        c = _cho_solve(factor, y)
    return s * u


@np.errstate(all="ignore")
def solve_task_l12(grams: GramStack, group_index, y, lam: float,
                   warm=None, opts: SolverOptions = SolverOptions()) -> TaskSolution:
    """One output task under the l1/l2 penalty over the contiguous kernel
    groups of `group_index` (kernels.group_sizes; the stack's own index
    groups by partition, singletons make it an l1 penalty).

    With c eliminated the task is min h(a) + sum_g ||a_g|| over a >= 0, where
    h(a) = lam y^T M^-1 y, M = sum_d a_d K^d + lam I, is convex, with gradient
    -q, q_d = lam c^T K^d c, and Hessian 2 lam U^T M^-1 U, U = [K^d c].
    Proximal Newton steps, backtracked on the true objective (a monotone
    trace), until the group stationarity gap is at most kkt_tolerance(opts);
    a step whose predicted decrease is below the objective's rounding is
    taken whole if it narrows the gap, and the solve stops unconverged if not.
    Without a warm start the solve starts at the best point on the ray of
    uniform weights (_ray_start), which halves the Newton steps of a cold
    fit against a start at a = 1/l. With numpy's warnings off, an overflow
    ends as a non-finite objective or Hessian (NonFiniteObjectiveError). y
    is checked as solve_coefficients checks it.
    """
    if lam <= 0.0:
        raise ConfigError(f"lam must be positive, got {lam}")
    y = _target(grams, y)
    l = grams.n_kernels
    if len(group_index) != l:
        raise DimensionMismatchError("group index does not match the gram stack")
    sizes = group_sizes(group_index)
    starts = group_starts(sizes)

    a = _ray_start(grams, y, lam, starts) if warm is None else np.array(warm, dtype=float).ravel()
    if a.shape[0] != l or a.min(initial=0.0) < 0.0:
        raise DimensionMismatchError("warm start must be a nonnegative length-l vector")

    tol = kkt_tolerance(opts)

    def at(point):  # (q, H, penalty, objective); the n x n factor dies on return
        factor = _factor_system(grams, point, lam)[1]
        c = _cho_solve(factor, y)
        penalty = group_penalty(point, starts)
        obj = lam * float(y @ c) + penalty
        Ut = _stack_times(grams, c).T  # column d is K^d c
        H = blas.dgemm(2.0 * lam, Ut, _cho_solve(factor, Ut), trans_a=1)
        if not (np.isfinite(obj) and np.isfinite(H).all()):
            raise NonFiniteObjectiveError(f"objective {obj} or its Hessian is not finite")
        return blas.dgemv(lam, Ut, c, trans=1), H, penalty, obj

    q, H, penalty, obj = at(a)
    trace: list[float] = []
    for it in range(opts.max_iter + 1):
        trace.append(obj)
        gap = _group_gap(a, q, starts, sizes)
        converged = gap <= tol
        if converged or it == opts.max_iter:
            break
        # minimize the model -q.(b - a) + (b - a).H(b - a)/2 + sum_g ||b_g||
        # over b >= 0 by projected proximal gradient from b = a
        sigma = max(float(np.linalg.eigvalsh(H)[-1]), 1e-30)
        model_tol = max(_MODEL_TOL_FLOOR * tol, min(_FORCING_CAP, gap) * gap)
        b = a
        for _ in range(_MODEL_STEPS_MAX):
            b_prev, b = b, prox_groups(b - (H @ (b - a) - q) / sigma, 1.0 / sigma, starts,
                                       sizes, nonneg=True)
            if sigma * float(np.abs(b - b_prev).max()) <= model_tol:
                break
        decrease = group_penalty(b, starts) - penalty - float(q @ (b - a))
        if -decrease <= 1e-14 * abs(obj):
            # the objective cannot tell a step this small from its rounding:
            # take the full step only if it narrows the gap
            point = at(b)
            if _group_gap(b, point[0], starts, sizes) >= gap:
                break
            a, (q, H, penalty, obj) = b, point
            continue
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

    # y - sum_d a_d K^d c = lam c at the refined c: the fit and quadratic
    # terms of the task objective sum to lam y^T c
    c = solve_coefficients(grams, a, y, lam)
    trace.append(lam * float(y @ c) + penalty)
    return TaskSolution(a=a, c=c, z_blocks=None, converged=converged, objective_trace=trace)


def fit(method: str, train: SupervisedSet, lam: float, options: SolverOptions = SolverOptions(),
        norm_stats: NormStats | None = None, names: list[str] | None = None, *,
        dictionary=DEFAULT_DICTIONARY) -> ModelFit:
    """Fit all m output tasks of a kernel method at penalty `lam` over
    kernels built once: the l1 route's stacked design (l1_design), or
    nvarl12's whole Gram stack.

    Tasks are independent: each sees the same kernels and its own output
    column, so the columns of A and C match per-task solves exactly.
    """
    if method not in KERNEL_METHODS:
        raise ConfigError(f"method must be one of {KERNEL_METHODS}, got {method!r}")
    lam = float(lam)
    m = train.n_series
    if method == "nvarl12":
        grams = build_gram_stack(train.inputs, train.partition_map, dictionary)
        specs = grams.specs
        tasks = [solve_task_l12(grams, grams.group_index, y, lam, opts=options)
                 for y in train.outputs.T]
    else:
        # the m tasks share the design and its majorizer
        specs, design = l1_design(method, train, dictionary)
        tasks = [_solve_l1(design, y, lam, None, options) for y in train.outputs.T]

    return ModelFit(method=method, A=np.column_stack([t.a for t in tasks]),
                    C=np.column_stack([t.c for t in tasks]), specs=specs,
                    group_index=group_index_of(specs), training_inputs=train.inputs,
                    norm_stats=norm_stats, lag=train.lag, lam=np.full(m, lam), names=names)


def predict(fit_result: ModelFit, new_inputs) -> np.ndarray:
    """One-step forecasts (standardized space) for lag-embedded input rows;
    a non-finite input, or finite inputs that overflow to a non-finite
    forecast, raise BadDataError.

    Each layout of the model's plan serves its P slots together: one
    cross_gram call per block of max(1, _PREDICT_BLOCK_ROWS // P) rows, and
    expand contracts the blocks with C and the layout's weights. A one-row
    call whose slots share one layout is one call. Nothing is grouped or
    gathered per call: the plan is built with the model.
    """
    X, width = input_rows(new_inputs), fit_result.training_inputs.shape[1]
    if X.shape[1] != width:
        raise DimensionMismatchError(f"inputs have {X.shape[1]} columns, model expects {width}")

    def serve():
        preds = np.zeros((X.shape[0], fit_result.n_outputs))
        for grid, weights, train, cols in fit_result.plan:
            step = max(1, _PREDICT_BLOCK_ROWS // len(grid))
            for start in range(0, X.shape[0], step):
                rows = X[start:start + step, cols].swapaxes(0, 1)
                preds[start:start + step] += expand(cross_gram(grid, train, rows), weights,
                                                    fit_result.C)
        return preds

    return finite_forecasts(serve)


def expand(blocks: np.ndarray, weights: np.ndarray, C: np.ndarray) -> np.ndarray:
    """The kernel expansion sum_k weights[k] * (blocks[k] @ C) of cross-Gram
    blocks (..., rows, n) with their (..., m) weights over the same leading
    axes (k kernels, or k kernels by P partitions), by one (k*rows, n) @ C
    product; a zero weight adds exact zeros."""
    *lead, rows, n = blocks.shape
    k = math.prod(lead)
    terms = (blocks.reshape(k * rows, n) @ C).reshape(k, rows, -1)
    return np.einsum("krm,km->rm", terms, weights.reshape(k, -1))


def normalize_adjacency(raw: np.ndarray) -> np.ndarray:
    """Zero entries below ADJ_ZERO_TOL*max and rescale so the largest entry is 1."""
    raw = np.asarray(raw, dtype=float)
    top = float(raw.max(initial=0.0))
    if top <= 0.0:
        return np.zeros_like(raw)
    vals = np.where(raw < ADJ_ZERO_TOL * top, 0.0, raw)
    return vals / top


def adjacency(fit_result: ModelFit) -> AdjacencyMatrix:
    """Granger graph from the weight matrix: sum each output's weights over
    the kernels of one input partition; (j, s) = 0 reads as 'series j is
    non-causal for series s'."""
    if any(spec.partition is None for spec in fit_result.specs):
        raise UnsupportedKindError(
            "adjacency is undefined for unpartitioned (full-input) models"
        )
    raw = np.zeros((fit_result.n_outputs, fit_result.n_outputs))
    for d, spec in enumerate(fit_result.specs):
        raw[spec.partition] += fit_result.A[d]
    return AdjacencyMatrix(values=normalize_adjacency(raw), names=fit_result.names)
