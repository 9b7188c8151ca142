"""Group-lasso solver: cyclic block coordinate descent with exact group steps.

Minimizes  ||y - sum_g B_g w_g||_2^2 + kappa * sum_g ||w_g||_2  over the
block-partitioned weight vector (note: no 1/2 on the squared loss). Each
group step minimizes the objective in w_g exactly, with B_g^T B_g replaced by
a diagonal majorizer D_g (Tseng, JOTA 2001; Yuan & Lin, JRSS-B 2006), so
every step lowers the objective. D_g is diag(B_g^T B_g) when the group's
columns are orthogonal, as the empirical kernel features are: there the
steps are exact block minimizations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, NonFiniteObjectiveError

#: KKT tolerance relative to the penalty: a solve is converged only once the
#: largest per-group optimality violation is below this times kappa.
KKT_REL_TOL = 1e-4

#: Newton steps of one group's norm equation, and the distance from 1 at
#: which its norm ratio counts as solved (a few times its rounding error).
#: Newton converges monotonically and quadratically, so 2-3 steps are usual.
_NORM_NEWTON_MAX = 50
_NORM_TOL = 1e-13


@dataclass
class SolverOptions:
    """Budget and tolerance of one solve.

    max_iter counts sweeps for the group lasso (one exact step per group
    each) and outer proximal Newton steps for nvarl12. rel_tol is the
    relative objective change per sweep below which a group-lasso solve
    checks its KKT gap, and it sets the KKT tolerance (kkt_tolerance).
    """

    max_iter: int = 2000
    rel_tol: float = 1e-7

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not self.rel_tol > 0.0:  # NaN included
            raise ValueError("rel_tol must be positive")


@dataclass
class GroupedProblem:
    """Design blocks B_g (n x r_g each), a length-n target, penalty kappa >= 0."""

    design_blocks: list[np.ndarray]
    target: np.ndarray
    penalty: float

    # the stacked design and its majorizer, filled lazily and shared with
    # every problem with_target derives from this one
    _shared: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.design_blocks = [np.asarray(b, dtype=float) for b in self.design_blocks]
        self.target = np.asarray(self.target, dtype=float).ravel()
        n = self.target.shape[0]
        for g, block in enumerate(self.design_blocks):
            if block.ndim != 2 or block.shape[0] != n:
                raise DimensionMismatchError(
                    f"block {g} has shape {block.shape}, expected ({n}, r_g)"
                )
        if self.penalty < 0.0:
            raise ValueError("penalty must be nonnegative")

    def stacked(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if "stacked" not in self._shared:
            sizes = np.array([b.shape[1] for b in self.design_blocks])
            self._shared["stacked"] = (np.hstack(self.design_blocks), group_starts(sizes), sizes)
        return self._shared["stacked"]

    def majorizer(self) -> np.ndarray:
        """block_majorizer of the stacked design."""
        if "majorizer" not in self._shared:
            self._shared["majorizer"] = block_majorizer(*self.stacked())
        return self._shared["majorizer"]

    def with_target(self, target, penalty: float) -> "GroupedProblem":
        """The same design with a new target and penalty. Problems derived
        this way build the stacked design and its majorizer once between
        them."""
        other = GroupedProblem(self.design_blocks, target, penalty)
        other._shared = self._shared
        return other


@dataclass
class GroupedSolution:
    weights: list[np.ndarray]
    objective_trace: list[float]
    iterations: int
    converged: bool


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
    at or below the root and then climbs to it monotonically. A zero d_i has
    b_i = 0 and w_i = 0.
    """
    if kappa == 0.0:
        return b / np.where(d > 0.0, d, 1.0)
    half = 0.5 * kappa
    if math.sqrt(b @ b) <= half:
        return np.zeros_like(b)
    for _ in range(_NORM_NEWTON_MAX):
        x = d * nu + half
        t = b / x
        s = math.sqrt(t @ t)
        if abs(s - 1.0) <= _NORM_TOL:
            break
        nu = max(nu + s * s * (s - 1.0) / (t @ (t * d / x)), 0.0)
    return nu * b / (d * nu + half)


def _solve_stacked(B, starts, sizes, y, kappa, opts, majorizer, w0=None):
    """Cyclic block coordinate descent on the stacked design, one exact
    majorized step per group and sweep; returns (w, trace, sweeps, converged).

    After every sweep that changes the objective by less than opts.rel_tol
    (relative) the solve takes the KKT gap and stops once it is at most
    kkt_tolerance(opts) * kappa. The residual is only ever updated in place:
    its rounding drift over a budget of sweeps is orders of magnitude below
    that tolerance.
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
    converged = False
    sweeps = 0
    for sweeps in range(1, opts.max_iter + 1):
        for cols, Bg, dg in groups:
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
        if (rel_change < opts.rel_tol
                and _gap_from_gradient(w, -2.0 * (B.T @ r), kappa, starts, sizes) <= eps_kkt):
            converged = True
            break
    return w, trace, sweeps, converged


def solve_group_lasso(problem: GroupedProblem, warm_start=None, opts: SolverOptions | None = None) -> GroupedSolution:
    """Solve the grouped problem to the KKT tolerance (global optimum; convex).

    Stops when a sweep changes the objective by less than opts.rel_tol
    (relative) AND the largest per-group KKT violation is at most
    kkt_tolerance(opts)*kappa (for kappa > 0), or when max_iter sweeps are
    done (converged=False, last iterate kept; the objective never rises).
    """
    if opts is None:
        opts = SolverOptions()
    B, starts, sizes = problem.stacked()
    w0 = None
    if warm_start is not None:
        parts = [np.asarray(p, dtype=float).ravel() for p in warm_start]
        if [p.shape[0] for p in parts] != list(sizes):
            raise DimensionMismatchError("warm start block sizes do not match the design")
        w0 = np.concatenate(parts)
    w, trace, iters, converged = _solve_stacked(
        B, starts, sizes, problem.target, problem.penalty, opts, problem.majorizer(), w0
    )
    return GroupedSolution(
        weights=[part.copy() for part in np.split(w, starts[1:])],
        objective_trace=trace,
        iterations=iters,
        converged=converged,
    )


def optimality_gap(problem: GroupedProblem, weights) -> float:
    """Largest per-group KKT violation of the given weights (0 at an optimum)."""
    B, starts, sizes = problem.stacked()
    w = np.concatenate([np.asarray(p, dtype=float).ravel() for p in weights])
    if w.shape[0] != B.shape[1]:
        raise DimensionMismatchError("weights do not match the design blocks")
    grad = 2.0 * (B.T @ (B @ w - problem.target))
    return _gap_from_gradient(w, grad, problem.penalty, starts, sizes)
