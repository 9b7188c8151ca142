import numpy as np
import pytest
from oracles import _block_minimize, cd_group_lasso, gl_objective, random_grouped_instance

from nlvar.errors import DimensionMismatchError, NonFiniteObjectiveError
from nlvar.grouplasso import (
    GroupedProblem,
    SolverOptions,
    _group_step,
    block_majorizer,
    group_starts,
    optimality_gap,
    prox_groups,
    solve_group_lasso,
)

TIGHT = SolverOptions(max_iter=100000, rel_tol=1e-13)


def _prox(v, t, nonneg=False):
    """prox_groups with the whole vector as one group."""
    v = np.asarray(v, dtype=float)
    return prox_groups(v, t, np.array([0]), np.array([v.size]), nonneg=nonneg)


def test_prox_at_exact_threshold():
    np.testing.assert_array_equal(_prox([3.0, 4.0], 5.0), [0.0, 0.0])


def test_prox_shrinks_by_closed_form():
    np.testing.assert_allclose(_prox([3.0, 4.0], 2.5), [1.5, 2.0], rtol=1e-15)


def test_prox_nonneg_clamps_then_shrinks():
    np.testing.assert_allclose(_prox([-3.0, 4.0], 2.0, nonneg=True), [0.0, 2.0], rtol=1e-15)


def test_prox_identity_at_zero_threshold():
    v = np.array([0.3, -1.7, 2.2])
    out = _prox(v, 0.0)
    assert np.array_equal(out, v)


def test_prox_zero_vector():
    np.testing.assert_array_equal(_prox(np.zeros(3), 1.0), np.zeros(3))


def test_prox_thresholds_each_group_on_its_own():
    sizes = np.array([2, 1, 2])
    v = np.array([3.0, 4.0, -0.5, 0.0, -2.0])
    out = prox_groups(v, 1.0, group_starts(sizes), sizes)
    np.testing.assert_allclose(out, [2.4, 3.2, 0.0, 0.0, -1.0], rtol=1e-15)


def test_unpenalized_solve_is_least_squares():
    rng = np.random.default_rng(0)
    blocks = [rng.standard_normal((15, 2)) for _ in range(3)]
    y = rng.standard_normal(15)
    problem = GroupedProblem(blocks, y, 0.0)
    sol = solve_group_lasso(problem, opts=TIGHT)
    assert sol.converged
    B = np.hstack(blocks)
    resid = y - B @ np.concatenate(sol.weights)
    assert np.max(np.abs(B.T @ resid)) < 1e-8


def test_orthonormal_design_matches_prox():
    rng = np.random.default_rng(1)
    Q, _ = np.linalg.qr(rng.standard_normal((10, 4)))
    y = rng.standard_normal(10)
    kappa = 1.3
    sol = solve_group_lasso(GroupedProblem([Q], y, kappa), opts=TIGHT)
    np.testing.assert_allclose(
        sol.weights[0], _prox(Q.T @ y, kappa / 2.0), atol=1e-9
    )


def test_matches_coordinate_descent_oracle():
    rng = np.random.default_rng(2)
    blocks = [rng.standard_normal((12, 2)) for _ in range(3)]
    y = rng.standard_normal(12)
    sol = solve_group_lasso(GroupedProblem(blocks, y, 1.0), opts=TIGHT)
    ref = cd_group_lasso(blocks, y, 1.0)
    for w, wr in zip(sol.weights, ref):
        np.testing.assert_allclose(w, wr, atol=1e-6)


def test_full_shrinkage_when_penalty_dominates():
    rng = np.random.default_rng(3)
    blocks, y = random_grouped_instance(rng)
    kappa = 2.0 * max(np.linalg.norm(2.0 * (B.T @ y)) for B in blocks)
    sol = solve_group_lasso(GroupedProblem(blocks, y, kappa), opts=TIGHT)
    for w in sol.weights:
        np.testing.assert_array_equal(w, 0.0)


def test_gap_of_converged_solution():
    rng = np.random.default_rng(4)
    blocks, y = random_grouped_instance(rng)
    problem = GroupedProblem(blocks, y, 0.8)
    sol = solve_group_lasso(problem, opts=TIGHT)
    assert sol.converged
    assert optimality_gap(problem, sol.weights) <= 1e-4 * 0.8


def test_gap_zero_for_zero_solution_under_huge_penalty():
    rng = np.random.default_rng(5)
    blocks, y = random_grouped_instance(rng)
    kappa = 10.0 * max(np.linalg.norm(2.0 * (B.T @ y)) for B in blocks)
    problem = GroupedProblem(blocks, y, kappa)
    zeros = [np.zeros(B.shape[1]) for B in blocks]
    assert optimality_gap(problem, zeros) == 0.0


def test_gap_grows_with_perturbation():
    rng = np.random.default_rng(6)
    blocks, y = random_grouped_instance(rng)
    problem = GroupedProblem(blocks, y, 0.5)
    sol = solve_group_lasso(problem, opts=TIGHT)
    base = optimality_gap(problem, sol.weights)
    small = [w + 1e-4 * rng.standard_normal(w.shape) for w in sol.weights]
    large = [w + 1e-1 * rng.standard_normal(w.shape) for w in sol.weights]
    assert optimality_gap(problem, small) > base
    assert optimality_gap(problem, large) > optimality_gap(problem, small)


def test_objective_trace_monotone():
    rng = np.random.default_rng(7)
    for _ in range(10):
        blocks, y = random_grouped_instance(rng)
        kappa = float(rng.uniform(0.1, 3.0))
        sol = solve_group_lasso(GroupedProblem(blocks, y, kappa))
        trace = np.array(sol.objective_trace)
        slack = 1e-12 * np.maximum(1.0, np.abs(trace[:-1]))
        assert np.all(trace[1:] <= trace[:-1] + slack)


def test_warm_starts_reach_same_objective():
    rng = np.random.default_rng(8)
    blocks, y = random_grouped_instance(rng, n=12, n_groups=3)
    kappa = 0.7
    problem = GroupedProblem(blocks, y, kappa)
    cold = solve_group_lasso(problem, opts=TIGHT)
    warm_init = [rng.standard_normal(B.shape[1]) for B in blocks]
    warm = solve_group_lasso(problem, warm_start=warm_init, opts=TIGHT)
    f_cold = gl_objective(blocks, y, kappa, cold.weights)
    f_warm = gl_objective(blocks, y, kappa, warm.weights)
    assert abs(f_cold - f_warm) <= 1e-6 * max(1.0, abs(f_cold))


def test_target_and_penalty_scaling_scales_weights():
    rng = np.random.default_rng(9)
    blocks, y = random_grouped_instance(rng)
    kappa, s = 0.9, 3.7
    base = solve_group_lasso(GroupedProblem(blocks, y, kappa), opts=TIGHT)
    scaled = solve_group_lasso(GroupedProblem(blocks, s * y, s * kappa), opts=TIGHT)
    for w, ws in zip(base.weights, scaled.weights):
        np.testing.assert_allclose(s * w, ws, atol=1e-7)


def test_rejects_nan_target():
    blocks = [np.ones((3, 1))]
    y = np.array([1.0, np.nan, 0.0])
    with pytest.raises(NonFiniteObjectiveError):
        solve_group_lasso(GroupedProblem(blocks, y, 0.1))


def test_rejects_mismatched_warm_start():
    rng = np.random.default_rng(10)
    blocks, y = random_grouped_instance(rng)
    problem = GroupedProblem(blocks, y, 0.1)
    with pytest.raises(DimensionMismatchError):
        solve_group_lasso(problem, warm_start=[np.zeros(b.shape[1] + 1) for b in blocks])


def test_solution_reports_iterations_and_convergence():
    rng = np.random.default_rng(11)
    blocks, y = random_grouped_instance(rng)
    sol = solve_group_lasso(GroupedProblem(blocks, y, 0.5), opts=SolverOptions(max_iter=1))
    assert not sol.converged
    assert sol.iterations == 1


def test_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(max_iter=0)
    with pytest.raises(ValueError):
        SolverOptions(rel_tol=0.0)


def _orthogonal_block(rng, n, r):
    Q, _ = np.linalg.qr(rng.standard_normal((n, r)))
    return Q * rng.uniform(0.1, 3.0, r)


def test_majorizer_is_squared_column_norms_on_orthogonal_blocks():
    rng = np.random.default_rng(12)
    blocks = [_orthogonal_block(rng, 20, r) for r in (1, 4, 7)]
    B, starts, sizes = GroupedProblem(blocks, np.zeros(20), 1.0).stacked()
    np.testing.assert_allclose(block_majorizer(B, starts, sizes), np.sum(B * B, axis=0),
                               rtol=1e-12)


def test_majorizer_bounds_the_group_gram():
    rng = np.random.default_rng(13)
    blocks, y = random_grouped_instance(rng, n=10, n_groups=3)
    B, starts, sizes = GroupedProblem(blocks, y, 1.0).stacked()
    d = block_majorizer(B, starts, sizes)
    for lo, size, block in zip(starts, sizes, blocks):
        slack = np.diag(d[lo:lo + size]) - block.T @ block
        assert np.linalg.eigvalsh(slack).min() >= -1e-12


def test_group_step_matches_bisection_oracle_on_orthogonal_blocks():
    rng = np.random.default_rng(14)
    for r in (1, 3, 6):
        for kappa in (0.0, 0.3, 2.0, 8.0):
            B = _orthogonal_block(rng, 15, r)
            u = rng.standard_normal(15)
            d = block_majorizer(B, np.array([0]), np.array([r]))
            evals, evecs = np.linalg.eigh(2.0 * (B.T @ B))
            ref = _block_minimize(B, u, kappa, evals, evecs)
            # from a cold start, and from norms above and below the answer
            for nu in (0.0, 0.1 * np.linalg.norm(ref), 10.0 * np.linalg.norm(ref) + 1.0):
                np.testing.assert_allclose(_group_step(B.T @ u, d, kappa, nu), ref,
                                           rtol=1e-9, atol=1e-12)


def test_group_step_on_an_all_zero_block_is_zero():
    B = np.zeros((8, 3))
    d = block_majorizer(B, np.array([0]), np.array([3]))
    np.testing.assert_array_equal(d, 0.0)
    for kappa in (0.0, 1.0):
        np.testing.assert_array_equal(_group_step(B.T @ np.ones(8), d, kappa, 0.0), 0.0)
        np.testing.assert_array_equal(
            _block_minimize(B, np.ones(8), kappa, np.zeros(3), np.eye(3)), 0.0)


def test_group_step_at_the_exact_threshold_is_zero():
    rng = np.random.default_rng(15)
    B = _orthogonal_block(rng, 12, 4)
    u = rng.standard_normal(12)
    b = B.T @ u
    kappa = 2.0 * float(np.linalg.norm(b))
    d = block_majorizer(B, np.array([0]), np.array([4]))
    evals, evecs = np.linalg.eigh(2.0 * (B.T @ B))
    np.testing.assert_array_equal(_group_step(b, d, kappa, 1.0), 0.0)
    np.testing.assert_array_equal(_block_minimize(B, u, kappa, evals, evecs), 0.0)
    assert np.linalg.norm(_group_step(b, d, 0.999 * kappa, 1.0)) > 0.0
