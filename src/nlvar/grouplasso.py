"""Group-lasso solver: proximal gradient descent with ISTA backtracking.

Minimizes  ||y - sum_g B_g w_g||_2^2 + kappa * sum_g ||w_g||_2  over the
block-partitioned weight vector (note: no 1/2 on the squared loss). Plain
ISTA is used rather than an accelerated variant so every accepted step is
guaranteed not to increase the composite objective.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, NonFiniteObjectiveError

#: KKT tolerance relative to the penalty: a solve is converged only once the
#: largest per-group optimality violation is below this times kappa.
KKT_REL_TOL = 1e-4

#: Residuals are recomputed from scratch this often to stop float drift.
_REFRESH_EVERY = 50

#: After a backtrack-free acceptance the next trial step grows by this
#: factor; the quadratic-bound check still gates every accepted step, so the
#: composite objective stays monotone while steps can exceed the (global,
#: often pessimistic) Lipschitz bound on flat active manifolds.
_STEP_GROWTH = 2.0

#: Number of consecutive non-improving KKT checks before a solve is declared
#: plateaued at its numerical gap floor and the best iterate is returned.
_PLATEAU_CHECKS = 50

#: A rejected trial step shrinks by this factor. Every solve starts from the
#: step 1/sigma, sigma bounding the curvature of the smooth part.
BACKTRACK_FACTOR = 0.5


@dataclass
class SolverOptions:
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

    # the stacked design and its largest squared singular value, filled
    # lazily and shared with every problem with_target derives from this one
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

    def with_target(self, target, penalty: float) -> "GroupedProblem":
        """The same design with a new target and penalty. Problems derived
        this way build the stacked design and estimate its step-size bound
        once between them."""
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


def _largest_sq_singular(B, iters: int = 80, tol: float = 1e-5) -> float:
    """Power iteration estimate of ||B||_2^2 (deterministic start)."""
    rng = np.random.default_rng(0)
    v = rng.standard_normal(B.shape[1])
    v /= np.linalg.norm(v)
    sigma = 0.0
    for _ in range(iters):
        u = B @ v
        s_new = float(u @ u)
        if s_new <= 0.0:
            return 1e-30
        v = B.T @ u
        v /= np.linalg.norm(v)
        if abs(s_new - sigma) <= tol * s_new:
            return s_new
        sigma = s_new
    return sigma


def _solve_stacked(B, starts, sizes, y, kappa, opts, w0=None, sigma=None):
    """ISTA on the stacked design; returns (w, trace, iterations, converged, sigma)."""
    n, total = B.shape
    w = np.zeros(total) if w0 is None else np.array(w0, dtype=float)
    if w0 is not None and w.shape != (total,):
        raise DimensionMismatchError(f"warm start has size {w.shape}, expected {total}")

    if sigma is None:
        sigma = _largest_sq_singular(B)
    step = 1.0 / max(sigma, 1e-30)

    r = (B @ w - y) if w.any() else -y
    f = float(r @ r)
    trace = [f + kappa * group_penalty(w, starts)]
    if not np.isfinite(trace[0]):
        raise NonFiniteObjectiveError("objective not finite at the starting point")

    if kappa > 0.0:
        eps_kkt = kappa * kkt_tolerance(opts)
    else:
        # pure least squares: run the gradient down to (near-)orthogonality
        eps_kkt = max(1e-8, 1e-14 * 2.0 * float(np.linalg.norm(B.T @ y)))

    rel_change = np.inf
    converged = False
    steps_taken = 0
    clean_accept = False
    best_w = None
    best_gap = np.inf
    anchor_gap = np.inf
    checks = 0
    for it in range(1, opts.max_iter + 1):
        if it % _REFRESH_EVERY == 0:
            r = B @ w - y
            f = float(r @ r)
        grad = 2.0 * (B.T @ r)
        if rel_change < opts.rel_tol:
            gap = _gap_from_gradient(w, grad, kappa, starts, sizes)
            if gap <= eps_kkt:
                converged = True
                break
            # a stop on slow progress, not a numerical floor: ISTA can crawl
            # for thousands of iterations (plateau exits stop at gap/kappa
            # around 1e-2 on CV folds where FISTA with restart reaches 1e-4),
            # so keep the best iterate seen and stop once a whole window of
            # checks brings no real progress
            if gap < best_gap:
                best_gap = gap
                best_w = w.copy()
            checks += 1
            if checks >= _PLATEAU_CHECKS:
                if best_gap > 0.9 * anchor_gap:
                    w = best_w
                    converged = best_gap <= (KKT_REL_TOL * kappa if kappa > 0.0 else eps_kkt)
                    break
                anchor_gap = best_gap
                checks = 0

        # step growth targets the penalized flat-manifold regime; plain
        # least squares settles cleanly with the persistent step
        if clean_accept and kappa > 0.0:
            step *= _STEP_GROWTH
        clean_accept = True
        while True:
            w_new = prox_groups(w - step * grad, step * kappa, starts, sizes)
            delta = w_new - w
            dd = float(delta @ delta)
            if dd == 0.0:
                # numerical prox fixed point: fall back to the base step so a
                # stalled (too small) step cannot freeze the iteration
                r_new, f_new = r, f
                step = 1.0 / max(sigma, 1e-30)
                clean_accept = False
                break
            r_new = r + B @ delta
            f_new = float(r_new @ r_new)
            bound = f + float(grad @ delta) + dd / (2.0 * step)
            if f_new <= bound + 1e-12 * max(1.0, abs(f)):
                break
            step *= BACKTRACK_FACTOR
            clean_accept = False
            if step <= 1e-300:
                raise NonFiniteObjectiveError("line search underflow; design may contain non-finite values")

        w, r, f = w_new, r_new, f_new
        obj = f + kappa * group_penalty(w, starts)
        if not np.isfinite(obj):
            raise NonFiniteObjectiveError(f"objective became {obj} at iteration {it}")
        rel_change = abs(trace[-1] - obj) / max(abs(trace[-1]), 1e-300)
        trace.append(obj)
        steps_taken = it

    if not converged and best_w is not None:
        w = best_w
    return w, trace, steps_taken, converged, sigma


def solve_group_lasso(problem: GroupedProblem, warm_start=None, opts: SolverOptions | None = None) -> GroupedSolution:
    """Solve the grouped problem to the KKT tolerance (global optimum; convex).

    Stops when the relative objective change drops below opts.rel_tol AND the
    largest per-group KKT violation is at most 1e-4*kappa (for kappa > 0),
    or when max_iter is hit (converged=False, best iterate kept).
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
    w, trace, iters, converged, problem._shared["sigma"] = _solve_stacked(
        B, starts, sizes, problem.target, problem.penalty, opts, w0, problem._shared.get("sigma")
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
