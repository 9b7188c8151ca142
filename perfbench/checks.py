"""Checks of fitted models made from outside the solver.

Every check works from the saved model document and the training data alone,
through public nlvar functions, so a solver that is batched or restructured
cannot change what is checked.

Stationarity of the kernel methods. For fixed weights a the coefficients are
c = (sum_d a_d K_d + lam I)^-1 y, and the reduced objective
J(a) = lam y^T (sum_d a_d K_d + lam I)^-1 y has gradient dJ/da_d = -q_d with
q_d = lam c^T K_d c. From the saved (A, C) and cross_gram on the training
inputs this gives every q[d, s] without touching the solver.

- nvarl1 (penalty sum_d a_d, solved as a group lasso with kappa = 2 sqrt(lam)):
  the KKT gap over kappa is |sqrt(q_d) - 1| on active kernels and
  (sqrt(q_d) - 1)+ on inactive ones.
- nvarl12 (penalty sum_g ||a_g||): on a group with a_g != 0 the gap is
  |q_d - a_d / ||a_g|||, on a zero group (||q_g|| - 1)+.
- lvarl1: the public `optimality_gap`, over the penalty.
- lvarl2: the relative residual of the ridge normal equations.
- mean: nothing to solve; its tasks pass when its row is ok.
"""

from __future__ import annotations

import numpy as np

#: The solvers' contractual KKT tolerance: a solve is converged once its gap
#: is at most this times the penalty.
KKT_REL_TOL = 1e-4

#: nvarl1 and lvarl1 fail above this gap over the penalty. The nvarl1 check
#: reads the gap at (a, exact c), not at the solver's feature-space iterate,
#: and there sits up to a few percent above the solver's own figure; the
#: margin keeps a task the solver stopped at 0.99e-4 from failing here.
L1_GAP_TOL = 1.5 * KKT_REL_TOL

#: nvarl12 fails above this group stationarity gap. Its solver stops on the
#: objective, not on a KKT gap, so there is no contractual tolerance; the
#: value is about 3.5 times the largest gap its default tolerance left in
#: the measurement recorded in README.md ("nvarl12 threshold").
L12_GAP_TOL = 5e-3

#: lvarl2 fails above this relative residual of (X^T X + lam I) w = X^T y.
RIDGE_RES_TOL = 1e-8


def _kernel_q(model) -> np.ndarray:
    """q[d, s] = lam_s C_s^T K_d C_s with K_d from public cross_gram."""
    from nlvar.kernels import cross_gram, partition_columns

    X = model.training_inputs
    p = model.lag
    part_map = [list(range(j * p, (j + 1) * p)) for j in range(X.shape[1] // p)]
    C = model.C
    q = np.empty(model.A.shape)
    for d, spec in enumerate(model.specs):
        cols = partition_columns(spec, part_map)
        K = cross_gram(spec, X[:, cols], X[:, cols])
        q[d] = np.einsum("is,is->s", C, K @ C)
    return q * model.lam[None, :]


def l1_gaps(model) -> np.ndarray:
    """Per output: KKT gap over kappa of an nvarl1 model."""
    root = np.sqrt(np.maximum(_kernel_q(model), 0.0))
    gap = np.where(model.A > 0.0, np.abs(root - 1.0), np.maximum(root - 1.0, 0.0))
    return gap.max(axis=0)


def l12_gaps(model) -> np.ndarray:
    """Per output: group stationarity gap of an nvarl12 model."""
    q = _kernel_q(model)
    A = model.A
    groups = sorted({spec.partition for spec in model.specs})
    gaps = np.zeros(A.shape[1])
    for g in groups:
        rows = [d for d, spec in enumerate(model.specs) if spec.partition == g]
        a_g, q_g = A[rows], q[rows]
        norm = np.linalg.norm(a_g, axis=0)
        active = np.abs(q_g - a_g / np.where(norm > 0.0, norm, 1.0)).max(axis=0)
        idle = np.maximum(np.linalg.norm(q_g, axis=0) - 1.0, 0.0)
        gaps = np.maximum(gaps, np.where(norm > 0.0, active, idle))
    return gaps


def lvarl1_gaps(model, train) -> np.ndarray:
    """Per output: optimality gap over the penalty of an lvarl1 model."""
    from nlvar import GroupedProblem, optimality_gap

    blocks = [train.inputs[:, cols] for cols in train.partition_map]
    gaps = []
    for s in range(model.coef.shape[1]):
        problem = GroupedProblem(design_blocks=blocks, target=train.outputs[:, s],
                                 penalty=model.lam)
        weights = [model.coef[cols, s] for cols in train.partition_map]
        gaps.append(optimality_gap(problem, weights) / model.lam)
    return np.array(gaps)


def ridge_residuals(model, train) -> np.ndarray:
    """Per output: relative residual of the lvarl2 normal equations."""
    X, Y = train.inputs, train.outputs
    lhs = X.T @ (X @ model.coef) + model.lam * model.coef
    rhs = X.T @ Y
    return np.linalg.norm(lhs - rhs, axis=0) / np.linalg.norm(rhs, axis=0)


def task_gaps(method: str, model, train) -> tuple[np.ndarray, float]:
    """(per-output gap, failure threshold) of one saved final model."""
    m = train.n_series
    if method == "nvarl1":
        return l1_gaps(model), L1_GAP_TOL
    if method == "nvarl12":
        return l12_gaps(model), L12_GAP_TOL
    if method == "lvarl1":
        return lvarl1_gaps(model, train), L1_GAP_TOL
    if method == "lvarl2":
        return ridge_residuals(model, train), RIDGE_RES_TOL
    if method == "mean":
        return np.zeros(m), 0.0
    raise ValueError(f"no outside check for method {method!r}")


def adjacency_within_mass(adj, blocks) -> float:
    """Share of an adjacency's mass on (cause, effect) pairs inside one block."""
    adj = np.asarray(adj, dtype=float)
    label = np.empty(adj.shape[0], dtype=int)
    for b, members in enumerate(blocks):
        label[list(members)] = b
    inside = label[:, None] == label[None, :]
    total = float(adj.sum())
    return float(adj[inside].sum()) / total if total > 0.0 else 0.0
