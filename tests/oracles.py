"""Independent reference implementations used only to cross-check the solvers.

task_objective is the definition of a per-output task's penalized objective,
evaluated term by term from the Gram matrices; the solvers report the same
value from quantities their solves already hold. kernel_eval evaluates one
kernel on one pair of vectors, against which the vectorized Grams are checked.
predict_per_kernel sums a kernel model's forecast one kernel at a time, the
reference for the partition-wise serving path. full_stack_l1_fit fits the
l1 route over the whole Gram stack, the reference for the fit that builds
and factors one partition's Grams at a time.

The group-lasso oracle is block coordinate descent like the solver it
validates, but shares no code with it and differs in each step: it
minimizes every block exactly through a full eigendecomposition of
B_g^T B_g (no diagonal majorizer), finds the block norm by bisection (not
Newton), and ends with Newton polishing on the active set. Objective
convention matches the package: ||y - sum B_g w_g||^2 + kappa * sum ||w_g||.
"""

import numpy as np
import scipy.optimize
import scipy.sparse.linalg

from nlvar.errors import DimensionMismatchError
from nlvar.grouplasso import GroupedProblem
from nlvar.kernels import build_feature_stack, build_gram_stack, cross_gram
from nlvar.solver import solve_task_l1


def kernel_eval(spec, u, v) -> float:
    """Raw (unnormalized) kernel value for a single pair of vectors."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape or u.ndim != 1:
        raise DimensionMismatchError(f"vectors of shapes {u.shape} and {v.shape}")
    if spec.kind == "linear":
        return float(u @ v)
    if spec.kind == "polynomial":
        return float((1.0 + u @ v) ** spec.param)
    diff = u - v
    return float(np.exp(-(diff @ diff) / (2.0 * spec.param**2)))


def predict_per_kernel(model, new_inputs) -> np.ndarray:
    """Forecasts sum_d (K_d(z, X) C) * A[d] of a kernel model, one cross_gram
    call and one product with C per kernel with a nonzero weight."""
    Z = np.atleast_2d(np.asarray(new_inputs, dtype=float))
    p = model.lag
    preds = np.zeros((Z.shape[0], model.C.shape[1]))
    for spec, weights in zip(model.specs, model.A):
        if weights.any():
            cols = (slice(None) if spec.partition is None
                    else [spec.partition * p + k for k in range(p)])
            block = cross_gram(spec, model.training_inputs[:, cols], Z[:, cols])
            preds += (block @ model.C) * weights
    return preds


def full_stack_l1_fit(method, train, lam, dictionary, opts):
    """(A, C, norm factors) of an nvarl1 or nvar fit made over the whole
    (l, n, n) Gram stack: every partition's Grams built by one
    build_gram_stack call and factored together, and each output solved by
    solve_task_l1 on the shared design."""
    partitions = [None] if method == "nvar" else list(range(train.n_series))
    grams = build_gram_stack(train.inputs, train.partition_map, dictionary, partitions)
    design = GroupedProblem(build_feature_stack(grams).features, train.outputs[:, 0], 0.0)
    tasks = [solve_task_l1(design, grams, y, lam, opts=opts) for y in train.outputs.T]
    return (np.column_stack([t.a for t in tasks]), np.column_stack([t.c for t in tasks]),
            [spec.norm_factor for spec in grams.specs])


def task_objective(stack, y, a, c, lam, method):
    """Penalized objective of one output task at the point (a, c):
    ||y - sum_d a_d K^d c||^2 + lam sum_d a_d c^T K^d c + penalty(a), where the
    penalty is sum_d a_d for "l1" and sum_g ||a_g||_2 over the partition
    groups of stack.group_index for "l12"."""
    y, a, c = (np.asarray(v, dtype=float).ravel() for v in (y, a, c))
    if a.shape[0] != len(stack.grams):
        raise DimensionMismatchError(f"{a.shape[0]} weights for {len(stack.grams)} kernels")
    pred = sum(a_d * (K @ c) for a_d, K in zip(a, stack.grams))
    quad = sum(a_d * float(c @ K @ c) for a_d, K in zip(a, stack.grams))
    if method == "l1":
        penalty = float(a.sum())
    elif method == "l12":
        groups = {}
        for a_d, (g, _) in zip(a, stack.group_index):
            groups.setdefault(g, []).append(a_d)
        penalty = sum(float(np.linalg.norm(v)) for v in groups.values())
    else:
        raise ValueError(f"method must be 'l1' or 'l12', got {method!r}")
    return float(np.sum((y - pred) ** 2)) + lam * quad + penalty


def alternating_l1_oracle(grams, y, lam, restarts=20, outer=400, seed=0):
    """Best objective of a restart-based alternating minimizer for the task
    ||y - sum_d a_d K^d c||^2 + lam sum_d a_d c'K^d c + sum_d a_d, a >= 0.

    The coefficient step solves the regularized linear system directly; the
    weight step minimizes the (convex, bound-constrained) quadratic in a via
    L-BFGS-B. Independent of the group-lasso reduction it validates.
    """
    grams = [np.asarray(K, dtype=float) for K in grams]
    y = np.asarray(y, dtype=float).ravel()
    n, l = y.shape[0], len(grams)
    rng = np.random.default_rng(seed)
    best = np.inf
    for r in range(restarts):
        a = np.full(l, 1.0 / l) if r == 0 else rng.uniform(0.0, 2.0 / l, l)
        prev = None
        for _ in range(outer):
            M = lam * np.eye(n)
            for d in range(l):
                M += a[d] * grams[d]
            c = np.linalg.solve(M, y)
            U = np.column_stack([K @ c for K in grams])
            q = U.T @ c
            lin = lam * q + 1.0

            def fun(vec):
                resid = y - U @ vec
                val = float(resid @ resid + lin @ vec)
                grad = -2.0 * (U.T @ resid) + lin
                return val, grad

            res = scipy.optimize.minimize(
                fun, a, jac=True, method="L-BFGS-B",
                bounds=[(0.0, None)] * l,
                options={"ftol": 1e-16, "gtol": 1e-12, "maxiter": 500},
            )
            a = res.x
            obj = res.fun
            if prev is not None and abs(prev - obj) <= 1e-13 * max(1.0, abs(prev)):
                break
            prev = obj
        best = min(best, obj)
    return best


def cg_solve(M, y, tol=1e-12):
    """Conjugate-gradient solve, independent of the direct factorization."""
    c, info = scipy.sparse.linalg.cg(M, y, rtol=tol, atol=0.0, maxiter=20000)
    assert info == 0, f"CG did not converge (info={info})"
    return c


def _block_minimize(B, u, kappa, evals, evecs):
    """argmin_w ||u - B w||^2 + kappa ||w||_2 for one block.

    evals/evecs diagonalize 2 B^T B. Stationarity for w != 0 reads
    (2 B^T B + (kappa/||w||) I) w = 2 B^T u; the norm nu = ||w|| solves
    sum_i b_i^2 / (s_i nu + kappa)^2 = 1 with b = Q^T 2 B^T u, found by
    bisection (left side is strictly decreasing in nu).
    """
    rhs = 2.0 * (B.T @ u)
    if np.linalg.norm(rhs) <= kappa:
        return np.zeros(B.shape[1])
    b = evecs.T @ rhs

    def lhs(nu):
        return float(np.sum(b**2 / (evals * nu + kappa) ** 2))

    hi = 1.0
    while lhs(hi) > 1.0:
        hi *= 2.0
    lo = 0.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if lhs(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    nu = 0.5 * (lo + hi)
    return evecs @ (b / (evals + kappa / nu))


def _newton_polish(blocks, y, kappa, weights, iters=60):
    """Refine a CD iterate by Newton steps on the active-set KKT system.

    The objective is smooth in the nonzero groups, so once coordinate descent
    has identified the support, a few damped Newton iterations reach machine
    precision. Returns None if the active set destabilizes.
    """
    active = [g for g, w in enumerate(weights) if np.linalg.norm(w) > 0.0]
    if not active:
        return weights
    B = np.hstack([blocks[g] for g in active])
    sizes = [blocks[g].shape[1] for g in active]
    bounds = np.cumsum(sizes)[:-1]
    x = np.concatenate([weights[g] for g in active])
    BtB2 = 2.0 * (B.T @ B)
    Bty2 = 2.0 * (B.T @ y)

    def pieces(vec):
        parts = np.split(vec, bounds)
        norms = [np.linalg.norm(p) for p in parts]
        if min(norms) < 1e-13:
            return None
        f = float(np.sum((y - B @ vec) ** 2)) + kappa * sum(norms)
        grad = BtB2 @ vec - Bty2 + kappa * np.concatenate(
            [p / nn for p, nn in zip(parts, norms)]
        )
        return parts, norms, f, grad

    state = pieces(x)
    if state is None:
        return None
    for _ in range(iters):
        parts, norms, f, grad = state
        if np.max(np.abs(grad)) <= 1e-13 * max(1.0, kappa):
            break
        H = BtB2.copy()
        pos = 0
        for p, nn in zip(parts, norms):
            r = len(p)
            H[pos : pos + r, pos : pos + r] += kappa * (
                np.eye(r) / nn - np.outer(p, p) / nn**3
            )
            pos += r
        try:
            step = np.linalg.solve(H, grad)
        except np.linalg.LinAlgError:
            return None
        t = 1.0
        for _ in range(60):
            trial = pieces(x - t * step)
            if trial is not None and trial[2] <= f:
                break
            t *= 0.5
        else:
            break
        x = x - t * step
        state = trial
    out = [np.zeros(Bg.shape[1]) for Bg in blocks]
    for g, part in zip(active, np.split(x, bounds)):
        out[g] = part
    return out


def _full_gap(blocks, y, kappa, weights):
    """Largest KKT violation of a candidate over all groups."""
    resid = y - sum(B @ w for B, w in zip(blocks, weights))
    worst = 0.0
    for B, w in zip(blocks, weights):
        g = -2.0 * (B.T @ resid)
        nn = np.linalg.norm(w)
        if nn == 0.0:
            worst = max(worst, max(0.0, float(np.linalg.norm(g)) - kappa))
        else:
            worst = max(worst, float(np.linalg.norm(g + kappa * w / nn)))
    return worst


def cd_group_lasso(blocks, y, kappa, sweeps_per_round=4000):
    """Block coordinate descent with an exact Newton polish.

    The sweeps only need to identify the active set; the polish then drives
    the smooth active-set KKT system to machine precision. A full-problem
    KKT check decides whether another, tighter round is needed.
    """
    blocks = [np.asarray(B, dtype=float) for B in blocks]
    y = np.asarray(y, dtype=float).ravel()
    if kappa == 0.0:
        # plain least squares on the stacked design
        Bfull = np.hstack(blocks)
        w, *_ = np.linalg.lstsq(Bfull, y, rcond=None)
        sizes = np.cumsum([B.shape[1] for B in blocks])[:-1]
        return [part.copy() for part in np.split(w, sizes)]
    eigs = []
    for B in blocks:
        evals, evecs = np.linalg.eigh(2.0 * (B.T @ B))
        eigs.append((np.maximum(evals, 0.0), evecs))
    weights = [np.zeros(B.shape[1]) for B in blocks]
    resid = y.copy()
    tol = 1e-6
    for _ in range(4):
        for _ in range(sweeps_per_round):
            change = 0.0
            for g, B in enumerate(blocks):
                u = resid + B @ weights[g]
                w_new = _block_minimize(B, u, kappa, *eigs[g])
                change = max(change, float(np.max(np.abs(w_new - weights[g]), initial=0.0)))
                resid = u - B @ w_new
                weights[g] = w_new
            if change < tol:
                break
        polished = _newton_polish(blocks, y, kappa, weights)
        if polished is not None and gl_objective(blocks, y, kappa, polished) <= gl_objective(
            blocks, y, kappa, weights
        ):
            weights = polished
            resid = y - sum(B @ w for B, w in zip(blocks, weights))
        if _full_gap(blocks, y, kappa, weights) <= 1e-11 * max(1.0, kappa):
            break
        tol *= 1e-3
    return weights


def gl_objective(blocks, y, kappa, weights):
    pred = sum(B @ w for B, w in zip(blocks, weights))
    return float(np.sum((np.asarray(y).ravel() - pred) ** 2)) + kappa * sum(
        float(np.linalg.norm(w)) for w in weights
    )


def random_grouped_instance(rng, n=None, n_groups=None, max_block=3, noise=0.5):
    """A small random group-lasso instance with a planted sparse signal."""
    n = n if n is not None else int(rng.integers(6, 13))
    n_groups = n_groups if n_groups is not None else int(rng.integers(2, 5))
    blocks = []
    signal = np.zeros(n)
    for _ in range(n_groups):
        r = int(rng.integers(1, max_block + 1))
        B = rng.standard_normal((n, r))
        blocks.append(B)
        if rng.random() < 0.6:
            signal += B @ rng.standard_normal(r)
    y = signal + noise * rng.standard_normal(n)
    return blocks, y
