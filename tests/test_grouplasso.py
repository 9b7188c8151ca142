import numpy as np
import pytest
from oracles import _block_minimize, cd_group_lasso, gl_objective, random_grouped_instance

from nlvar import grouplasso
from nlvar.errors import BadDataError, ConfigError, DimensionMismatchError
from nlvar.grouplasso import (
    GroupedProblem,
    SolverOptions,
    _group_step,
    block_majorizer,
    group_starts,
    kkt_tolerance,
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
    with pytest.raises(BadDataError):
        GroupedProblem(blocks, y, 0.1)


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
    with pytest.raises(ConfigError):
        SolverOptions(max_iter=0)
    with pytest.raises(ConfigError):
        SolverOptions(rel_tol=0.0)


def _orthogonal_block(rng, n, r):
    Q, _ = np.linalg.qr(rng.standard_normal((n, r)))
    return Q * rng.uniform(0.1, 3.0, r)


def test_majorizer_is_squared_column_norms_on_orthogonal_blocks():
    rng = np.random.default_rng(12)
    blocks = [_orthogonal_block(rng, 20, r) for r in (1, 4, 7)]
    problem = GroupedProblem(blocks, np.zeros(20), 1.0)
    np.testing.assert_allclose(problem.majorizer, np.sum(problem.B * problem.B, axis=0),
                               rtol=1e-12)


def test_majorizer_bounds_the_group_gram():
    rng = np.random.default_rng(13)
    blocks, y = random_grouped_instance(rng, n=10, n_groups=3)
    problem = GroupedProblem(blocks, y, 1.0)
    d = problem.majorizer
    for lo, size, block in zip(problem.starts, problem.sizes, blocks):
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


def test_group_step_at_a_tiny_kappa_is_the_least_squares_step():
    # t = b / (kappa/2) overflows from a cold start: Newton restarts from the
    # root's lower bound (_solve_stacked runs its steps with warnings off)
    rng = np.random.default_rng(16)
    B = _orthogonal_block(rng, 12, 4)
    b = B.T @ rng.standard_normal(12)
    d = block_majorizer(B, np.array([0]), np.array([4]))
    with np.errstate(all="ignore"):
        for kappa in (1e-150, 1e-300):
            np.testing.assert_allclose(_group_step(b, d, kappa, 0.0), b / d, rtol=1e-12)


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


def test_blocks_are_views_of_the_stacked_design():
    rng = np.random.default_rng(16)
    blocks, y = random_grouped_instance(rng, n=10, n_groups=3)
    problem = GroupedProblem(blocks, y, 1.0)
    B = problem.B
    for block, lo, size, view in zip(blocks, problem.starts, problem.sizes,
                                     problem.design_blocks):
        assert np.shares_memory(view, B)
        np.testing.assert_array_equal(view, block)
        np.testing.assert_array_equal(B[:, lo:lo + size], block)
    np.testing.assert_array_equal(problem.majorizer,
                                  block_majorizer(B, problem.starts, problem.sizes))
    derived = problem.with_target(-y, 2.0)
    assert derived.B is B
    assert derived.majorizer is problem.majorizer
    with pytest.raises(DimensionMismatchError):
        problem.with_target(y[:-1], 1.0)


def _correlated_instance(rng, n=40, n_groups=4, r=3, rho=0.99):
    """Groups whose columns all load on one common factor: plain cyclic
    sweeps crawl along it for thousands of sweeps."""
    z = rng.standard_normal(n)
    blocks = [rho * z[:, None] + np.sqrt(1.0 - rho ** 2) * rng.standard_normal((n, r))
              for _ in range(n_groups)]
    y = blocks[0] @ rng.standard_normal(r) + blocks[1] @ rng.standard_normal(r)
    return blocks, y + 0.1 * rng.standard_normal(n)


@pytest.mark.parametrize("kappa", [0.05, 0.5])
def test_correlated_groups_match_the_oracle_with_a_monotone_trace(kappa):
    blocks, y = _correlated_instance(np.random.default_rng(17))
    sol = solve_group_lasso(GroupedProblem(blocks, y, kappa), opts=TIGHT)
    assert sol.converged
    trace = np.array(sol.objective_trace)
    assert len(trace) == sol.iterations + 1
    assert np.all(trace[1:] <= trace[:-1] + 1e-12 * np.abs(trace[:-1]))
    for w, wr in zip(sol.weights, cd_group_lasso(blocks, y, kappa)):
        np.testing.assert_allclose(w, wr, atol=1e-7)


def test_extrapolation_cuts_the_sweeps_on_correlated_groups(monkeypatch):
    blocks, y = _correlated_instance(np.random.default_rng(17))
    problem = GroupedProblem(blocks, y, 0.5)
    accelerated = solve_group_lasso(problem, opts=TIGHT)
    monkeypatch.setattr(grouplasso, "_ANDERSON_EVERY", TIGHT.max_iter + 1)
    plain = solve_group_lasso(problem, opts=TIGHT)
    assert plain.converged and accelerated.converged
    assert plain.iterations >= 500
    assert accelerated.iterations <= plain.iterations // 5
    f_plain = gl_objective(blocks, y, 0.5, plain.weights)
    f_acc = gl_objective(blocks, y, 0.5, accelerated.weights)
    assert f_acc == pytest.approx(f_plain, rel=1e-10)


def test_extrapolation_is_skipped_on_a_singular_or_non_finite_system():
    # identical iterates: the difference system is all zero, its ridge too
    assert grouplasso._extrapolate([np.ones(3)] * 6) is None
    # iterates whose products overflow: the combination weights are not finite
    with np.errstate(over="ignore", invalid="ignore"):
        assert grouplasso._extrapolate([np.zeros(3), np.full(3, 1e200)] * 3) is None


def test_solve_goes_on_past_a_skipped_extrapolation(monkeypatch):
    # no KKT gap meets a zero tolerance, so the sweeps run on to a
    # floating-point fixed point, where the iterates stop changing
    skipped = []

    def recording(history, _extrapolate=grouplasso._extrapolate):
        point = _extrapolate(history)
        skipped.append(point is None)
        return point

    monkeypatch.setattr(grouplasso, "_extrapolate", recording)
    monkeypatch.setattr(grouplasso, "kkt_tolerance", lambda opts: 0.0)
    opts = SolverOptions(max_iter=300)
    for seed in range(3):
        rng = np.random.default_rng(seed)
        blocks = [rng.standard_normal((30, 3)) for _ in range(4)]
        y = rng.standard_normal(30)
        for kappa in (0.1, 1.0, 10.0):
            sol = solve_group_lasso(GroupedProblem(blocks, y, kappa), opts=opts)
            assert not sol.converged and sol.iterations == opts.max_iter
            trace = np.array(sol.objective_trace)
            assert np.all(trace[1:] <= trace[:-1] + 1e-12 * np.abs(trace[:-1]))
    assert any(skipped)


def test_warm_start_from_a_sparser_solution_lets_groups_enter():
    # the target is orthogonal to group 1, which enters only once group 0
    # has grown: at the warm start its zero step does not move it
    rng = np.random.default_rng(2)
    n = 30
    x0 = rng.standard_normal((n, 2))
    x1 = 0.8 * x0 @ rng.standard_normal((2, 2)) + 0.6 * rng.standard_normal((n, 2))
    blocks = [x0, x1, rng.standard_normal((n, 2))]
    y = x0 @ np.array([1.0, -1.0]) + 0.3 * rng.standard_normal(n)
    Q, _ = np.linalg.qr(x1)
    y -= Q @ (Q.T @ y)
    big = 0.5 * max(2.0 * np.linalg.norm(B.T @ y) for B in blocks)
    small = 0.3 * big
    opts = SolverOptions(max_iter=100000, rel_tol=1e-10)
    sparse = solve_group_lasso(GroupedProblem(blocks, y, big), opts=opts)
    problem = GroupedProblem(blocks, y, small)
    cold = solve_group_lasso(problem, opts=opts)
    warm = solve_group_lasso(problem, warm_start=sparse.weights, opts=opts)
    resid = y - sum(B @ w for B, w in zip(blocks, sparse.weights))
    assert not sparse.weights[1].any() and np.linalg.norm(x1.T @ resid) <= small / 2
    assert np.linalg.norm(cold.weights[1]) > 0.1
    assert warm.converged
    assert optimality_gap(problem, warm.weights) <= kkt_tolerance(opts) * small
    f_cold = gl_objective(blocks, y, small, cold.weights)
    f_warm = gl_objective(blocks, y, small, warm.weights)
    assert f_warm == pytest.approx(f_cold, rel=1e-8)


@pytest.mark.parametrize("max_iter", [1, 4, 5, 6, 11, 17])
def test_sweeps_never_exceed_the_budget(max_iter):
    blocks, y = _correlated_instance(np.random.default_rng(18))
    sol = solve_group_lasso(GroupedProblem(blocks, y, 0.05),
                            opts=SolverOptions(max_iter=max_iter, rel_tol=1e-13))
    assert not sol.converged
    assert sol.iterations == max_iter
    assert len(sol.objective_trace) == max_iter + 1
