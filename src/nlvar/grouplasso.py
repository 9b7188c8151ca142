"""Group-lasso solver: cyclic block coordinate descent with exact group steps.

Minimizes  ||y - sum_g B_g w_g||_2^2 + kappa * sum_g ||w_g||_2  over the
block-partitioned weight vector (note: no 1/2 on the squared loss). Each
group step minimizes the objective in w_g exactly, with B_g^T B_g replaced by
a diagonal majorizer D_g (Tseng, JOTA 2001; Yuan & Lin, JRSS-B 2006), so
every step lowers the objective. D_g is diag(B_g^T B_g) when the group's
columns are orthogonal, as the empirical kernel features are: there the
steps are exact block minimizations.

Two accelerations leave the optimum and the stop rule alone. A sweep visits
only a working set: the nonzero groups and those whose zero step would move
them, chosen again from the full gradient at each KKT check (as in Celer,
Massias, Gramfort & Salmon, ICML 2018). And every few sweeps the last
sweep-end iterates are Anderson extrapolated (Bertrand & Massias, AISTATS
2021); the extrapolated point is taken only where it lowers the objective,
so the objective still never rises.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, DimensionMismatchError, NonFiniteObjectiveError, real_number,
                     whole_number)

#: KKT tolerance relative to the penalty: a solve is converged only once the
#: largest per-group optimality violation is below this times kappa.
KKT_REL_TOL = 1e-4

#: Newton steps of one group's norm equation, and the distance from 1 at
#: which its norm ratio counts as solved (a few times its rounding error).
#: Newton converges monotonically and quadratically, so 2-3 steps are usual.
_NORM_NEWTON_MAX = 50
_NORM_TOL = 1e-13

#: Sweeps between Anderson extrapolations (Bertrand & Massias, AISTATS 2021),
#: each combining the last _ANDERSON_EVERY + 1 sweep-end iterates, and the
#: ridge, relative to the trace, that keeps their small system solvable.
_ANDERSON_EVERY = 5
_ANDERSON_RIDGE = 1e-10


@dataclass(frozen=True)
class SolverOptions:
    """Budget and tolerance of one solve, CV and final fits alike.

    max_iter counts sweeps for the group lasso (one exact step per
    working-set group each; an extrapolation is not a sweep) and outer
    proximal Newton steps for nvarl12. rel_tol is the relative objective
    change per sweep below which a group-lasso solve checks its KKT gap over
    all groups, and it sets the KKT tolerance (kkt_tolerance: KKT_REL_TOL at
    the default), the gap a converged solve must meet. Frozen, so the one
    default SolverOptions() can be every entry point's default. A wrongly
    typed value raises ConfigError.
    """

    max_iter: int = 800
    rel_tol: float = 1e-6

    def __post_init__(self):
        object.__setattr__(self, "max_iter", whole_number(self.max_iter, "solver max_iter"))
        object.__setattr__(self, "rel_tol", real_number(self.rel_tol, "solver rel_tol"))
        if self.max_iter < 1:
            raise ConfigError("max_iter must be >= 1")
        if not self.rel_tol > 0.0:
            raise ConfigError("rel_tol must be positive")


@dataclass
class GroupedProblem:
    """Design blocks B_g (n x r_g each), a length-n target, penalty kappa >= 0.

    The design is built once, on construction: the blocks are copied into
    the stacked design B (design_blocks then holds views of B), with the
    group offsets `starts`, the group `sizes` and the block_majorizer of B.
    Problems derived by with_target share all four by reference.
    """

    design_blocks: list[np.ndarray]
    target: np.ndarray
    penalty: float

    def __post_init__(self):
        self.target = np.asarray(self.target, dtype=float).ravel()
        n = self.target.shape[0]
        blocks = [np.asarray(b, dtype=float) for b in self.design_blocks]
        for g, block in enumerate(blocks):
            if block.ndim != 2 or block.shape[0] != n:
                raise DimensionMismatchError(
                    f"block {g} has shape {block.shape}, expected ({n}, r_g)"
                )
        if self.penalty < 0.0:
            raise ConfigError("penalty must be nonnegative")
        self.sizes = np.array([b.shape[1] for b in blocks])
        self.starts = group_starts(self.sizes)
        self.B = np.hstack(blocks)
        self.design_blocks = [self.B[:, lo:lo + size] for lo, size in zip(self.starts, self.sizes)]
        self.majorizer = block_majorizer(self.B, self.starts, self.sizes)

    def with_target(self, target, penalty: float) -> "GroupedProblem":
        """The same design with a new target and penalty."""
        other = copy.copy(self)
        other.target = np.asarray(target, dtype=float).ravel()
        other.penalty = penalty
        if other.target.shape != self.target.shape:
            raise DimensionMismatchError(
                f"target has {other.target.shape[0]} rows, expected {self.target.shape[0]}"
            )
        if penalty < 0.0:
            raise ConfigError("penalty must be nonnegative")
        return other


@dataclass
class GroupedSolution:
    weights: list[np.ndarray]
    objective_trace: list[float]
    converged: bool

    @property
    def iterations(self) -> int:
        """Sweeps made: the trace holds the start and one entry per sweep."""
        return len(self.objective_trace) - 1


def kkt_tolerance(opts: SolverOptions) -> float:
    """KKT tolerance over the penalty: KKT_REL_TOL, tighter for a tighter rel_tol."""
    return max(1e-8, min(KKT_REL_TOL, 1e3 * opts.rel_tol))


def group_starts(sizes) -> np.ndarray:
    """Offsets of contiguous groups of the given sizes in a stacked vector."""
    return np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(int)


def prox_groups(v, t: float, starts, sizes, nonneg: bool = False) -> np.ndarray:
    """Proximal operator of t * sum_g ||v_g||_2 over the contiguous groups.

    Each group shrinks towards zero by t in norm and vanishes when its norm
    is at most t. With nonneg the vector is first clamped elementwise at zero
    and the clamped groups shrunk; this is the exact prox of the penalty
    plus the orthant indicator.
    """
    if nonneg:
        v = np.maximum(v, 0.0)
    gn = np.sqrt(np.add.reduceat(v * v, starts))
    scale = np.where(gn > t, 1.0 - t / np.where(gn > 0.0, gn, 1.0), 0.0)
    return v * np.repeat(scale, sizes)


def group_penalty(w, starts) -> float:
    return float(np.sum(np.sqrt(np.add.reduceat(w * w, starts))))


def _gap_from_gradient(w, grad, kappa, starts, sizes) -> float:
    """Largest per-group KKT violation given the smooth gradient at w."""
    wn = np.sqrt(np.add.reduceat(w * w, starts))
    safe = np.where(wn > 0.0, wn, 1.0)
    adjusted = grad + np.repeat(np.where(wn > 0.0, kappa / safe, 0.0), sizes) * w
    an = np.sqrt(np.add.reduceat(adjusted * adjusted, starts))
    viol = np.where(wn > 0.0, an, np.maximum(0.0, an - kappa))
    return float(viol.max()) if viol.size else 0.0


def block_majorizer(B, starts, sizes) -> np.ndarray:
    """Diagonal d with diag(d_g) - B_g^T B_g positive semidefinite on every
    group g: the row sums of |B_g^T B_g| weighted by the column norms s,
    d_i = sum_j |G_ij| s_j / s_i (a scaled Gershgorin bound). On a group of
    orthogonal columns d is the squared column norms."""
    d = np.empty(B.shape[1])
    for lo, size in zip(starts, sizes):
        Bg = B[:, lo:lo + size]
        G = np.abs(Bg.T @ Bg)
        s = np.sqrt(np.diag(G))
        d[lo:lo + size] = (G @ s) / np.where(s > 0.0, s, 1.0)
    return d


def _group_step(b, d, kappa: float, nu: float) -> np.ndarray:
    """argmin_w  w^T diag(d) w - 2 b^T w + kappa ||w||_2, d >= 0.

    The minimizer is zero when ||b|| <= kappa/2. Otherwise it is
    nu * b / (d nu + kappa/2), nu = ||w|| being the root of
    1 / ||b / (d nu + kappa/2)|| = 1. That left side is a power mean of
    affine functions of nu, so concave and increasing: Newton from any start
    (here the group's current norm; a negative step is clamped at 0) lands
    at or below the root and then climbs to it monotonically. A step that is
    not finite (t = b / (kappa/2) overflows on a cold start once kappa is
    tiny) restarts Newton from the root's lower bound (||b|| - kappa/2) /
    max d, where every d_i nu + kappa/2 <= ||b||. A zero d_i has b_i = 0 and
    w_i = 0.
    """
    if kappa == 0.0:
        return b / np.where(d > 0.0, d, 1.0)
    half = 0.5 * kappa
    b_norm = math.sqrt(b @ b)
    if b_norm <= half:
        return np.zeros_like(b)
    for _ in range(_NORM_NEWTON_MAX):
        x = d * nu + half
        t = b / x
        s = math.sqrt(t @ t)
        if abs(s - 1.0) <= _NORM_TOL:
            break
        step = nu + s * s * (s - 1.0) / (t @ (t * d / x))
        nu = max(step, 0.0) if math.isfinite(step) else (b_norm - half) / d.max()
    return nu * b / (d * nu + half)


def _working_set(w, corr, kappa, starts) -> np.ndarray:
    """Indices of the groups a sweep visits: those that are nonzero and those
    whose zero step would move them, ||B_g^T r|| > kappa/2, given the
    correlations corr = B^T r at w."""
    nonzero = np.add.reduceat(w * w, starts) > 0.0
    moving = np.sqrt(np.add.reduceat(corr * corr, starts)) > 0.5 * kappa
    return np.flatnonzero(nonzero | moving)


def _extrapolate(history) -> np.ndarray | None:
    """Anderson extrapolation of the iterates w_0..w_k: sum_i c_i w_{i+1}
    with c minimizing ||sum_i c_i (w_{i+1} - w_i)|| subject to sum c = 1;
    None when that small system is singular or c is not finite."""
    W = np.array(history)
    U = np.diff(W, axis=0)
    A = U @ U.T
    A[np.diag_indices_from(A)] += _ANDERSON_RIDGE * np.trace(A)
    try:
        z = np.linalg.solve(A, np.ones(A.shape[0]))
    except np.linalg.LinAlgError:
        return None
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c = z / z.sum()
    if not np.all(np.isfinite(c)):
        return None
    return c @ W[1:]


@np.errstate(all="ignore")
def _solve_stacked(B, starts, sizes, y, kappa, opts, majorizer, w0=None):
    """Cyclic block coordinate descent on the stacked design, one exact
    majorized step per group and sweep, with a working set and Anderson
    extrapolation; returns (w, trace, sweeps, converged).

    A sweep visits only the working set: the groups that are nonzero or
    whose zero step would move them. After every sweep that changes the
    objective by less than opts.rel_tol (relative) the solve takes the KKT
    gap over all groups and stops once it is at most kkt_tolerance(opts) *
    kappa; otherwise the working set is chosen afresh from the same
    gradient. Every _ANDERSON_EVERY sweeps within one working set the last
    sweep-end iterates are extrapolated, and the extrapolated point is taken
    only if its objective is strictly lower. trace[k] is the objective after
    sweep k and any extrapolation taken after it. Between extrapolations the
    residual is updated in place: its rounding drift over a budget of sweeps
    is orders of magnitude below the KKT tolerance. With numpy's warnings
    off, an overflow ends as a non-finite objective (NonFiniteObjectiveError).
    """
    total = B.shape[1]
    w = np.zeros(total) if w0 is None else np.array(w0, dtype=float)
    if w.shape != (total,):
        raise DimensionMismatchError(f"warm start has size {w.shape}, expected {total}")

    r = (y - B @ w) if w.any() else y.copy()
    trace = [float(r @ r) + kappa * group_penalty(w, starts)]
    if not np.isfinite(trace[0]):
        raise NonFiniteObjectiveError("objective not finite at the starting point")

    if kappa > 0.0:
        eps_kkt = kappa * kkt_tolerance(opts)
    else:
        # pure least squares: run the sweeps down to (near-)orthogonality
        eps_kkt = max(1e-8, 1e-14 * 2.0 * float(np.linalg.norm(B.T @ y)))

    groups = [(slice(lo, lo + size), B[:, lo:lo + size], majorizer[lo:lo + size])
              for lo, size in zip(starts, sizes)]
    working = _working_set(w, B.T @ r, kappa, starts)
    visit = [groups[g] for g in working]
    history = [w.copy()]
    converged = False
    sweeps = 0
    for sweeps in range(1, opts.max_iter + 1):
        for cols, Bg, dg in visit:
            wg = w[cols]
            new = _group_step(dg * wg + Bg.T @ r, dg, kappa, math.sqrt(wg @ wg))
            delta = new - wg
            if delta.any():
                r -= Bg @ delta
                w[cols] = new
        obj = float(r @ r) + kappa * group_penalty(w, starts)
        if not np.isfinite(obj):
            raise NonFiniteObjectiveError(f"objective became {obj} at sweep {sweeps}")
        rel_change = abs(trace[-1] - obj) / max(abs(trace[-1]), 1e-300)
        trace.append(obj)
        if rel_change < opts.rel_tol:
            corr = B.T @ r
            if _gap_from_gradient(w, -2.0 * corr, kappa, starts, sizes) <= eps_kkt:
                converged = True
                break
            chosen = _working_set(w, corr, kappa, starts)
            if not np.array_equal(chosen, working):
                working = chosen
                visit = [groups[g] for g in working]
                history = [w.copy()]
                continue
        history.append(w.copy())
        if len(history) > _ANDERSON_EVERY:
            w_e = _extrapolate(history)
            if w_e is not None:
                r_e = y - B @ w_e
                obj_e = float(r_e @ r_e) + kappa * group_penalty(w_e, starts)
                if obj_e < obj:
                    w, r, trace[-1] = w_e, r_e, obj_e
            history = [w.copy()]
    return w, trace, sweeps, converged


def solve_group_lasso(problem: GroupedProblem, warm_start=None,
                      opts: SolverOptions = SolverOptions()) -> GroupedSolution:
    """Solve the grouped problem to the KKT tolerance (global optimum; convex).

    Stops when a sweep changes the objective by less than opts.rel_tol
    (relative) AND the largest per-group KKT violation is at most
    kkt_tolerance(opts)*kappa (for kappa > 0), or when max_iter sweeps are
    done (converged=False, last iterate kept; the objective never rises).
    """
    w0 = None
    if warm_start is not None:
        parts = [np.asarray(p, dtype=float).ravel() for p in warm_start]
        if [p.shape[0] for p in parts] != list(problem.sizes):
            raise DimensionMismatchError("warm start block sizes do not match the design")
        w0 = np.concatenate(parts)
    w, trace, _, converged = _solve_stacked(
        problem.B, problem.starts, problem.sizes, problem.target, problem.penalty, opts,
        problem.majorizer, w0
    )
    return GroupedSolution(
        weights=[part.copy() for part in np.split(w, problem.starts[1:])],
        objective_trace=trace,
        converged=converged,
    )


def optimality_gap(problem: GroupedProblem, weights) -> float:
    """Largest per-group KKT violation of the given weights (0 at an optimum)."""
    B = problem.B
    w = np.concatenate([np.asarray(p, dtype=float).ravel() for p in weights])
    if w.shape[0] != B.shape[1]:
        raise DimensionMismatchError("weights do not match the design blocks")
    grad = 2.0 * (B.T @ (B @ w - problem.target))
    return _gap_from_gradient(w, grad, problem.penalty, problem.starts, problem.sizes)
