import dataclasses
import tracemalloc

import numpy as np
import pytest
from oracles import (alternating_l1_oracle, cg_solve, dense_grams, dense_l12_fit,
                     full_stack_l1_fit, predict_per_kernel, task_objective)

from nlvar import solver
from nlvar.errors import (BadDataError, ConfigError, DimensionMismatchError,
                          SingularSystemError, UnsupportedKindError)
from nlvar.grouplasso import GroupedProblem, SolverOptions, kkt_tolerance
from nlvar.harness import SyntheticSpec, generate_synthetic, split_experiment_data
from nlvar.kernels import (
    DEFAULT_DICTIONARY,
    FeatureStack,
    GramStack,
    KernelSpec,
    build_feature_stack,
    build_gram_stack,
    cross_gram,
    partition_columns,
)
from nlvar.modelio import load_model, model_from_dict, model_to_dict, save_model
from nlvar.series import MultivariateSeries, lag_columns, lag_embed
from nlvar.solver import (
    _PREDICT_BLOCK_ROWS,
    adjacency,
    fit,
    predict,
    solve_coefficients,
    solve_task_l1,
    solve_task_l12,
)

TIGHT = SolverOptions(max_iter=200000, rel_tol=1e-13)


def _identity_stack(n):
    spec = KernelSpec("linear", partition=0, norm_factor=1.0)
    return GramStack.of([np.eye(n)], [spec], [(0, 0)])


def _random_stack(rng, n, parts=3, per_part=1):
    """Random PSD trace-normalized grams grouped into `parts` partitions."""
    grams, specs, gidx = [], [], []
    for j in range(parts):
        for i in range(per_part):
            A = rng.standard_normal((n, n + 2))
            K = A @ A.T
            K *= n / np.trace(K)
            grams.append(K)
            specs.append(KernelSpec("gaussian", 1.0, partition=j, norm_factor=1.0))
            gidx.append((j, i))
    return GramStack.of(grams, specs, gidx)


def test_objective_all_zero_weights():
    rng = np.random.default_rng(0)
    stack = _random_stack(rng, 8)
    y = rng.standard_normal(8)
    c = rng.standard_normal(8)
    assert task_objective(stack, y, np.zeros(3), c, 1.0, "l1") == pytest.approx(y @ y)


def test_objective_identity_kernel_perfect_fit():
    y = np.array([1.0, -2.0, 0.5])
    stack = _identity_stack(3)
    obj = task_objective(stack, y, np.array([1.0]), y, 1.0, "l1")
    assert obj == pytest.approx(y @ y + 1.0)


def test_objective_matches_direct_formula():
    rng = np.random.default_rng(1)
    stack = _random_stack(rng, 7, parts=2, per_part=2)
    y = rng.standard_normal(7)
    c = rng.standard_normal(7)
    a = rng.uniform(0.0, 1.0, 4)
    lam = 0.7
    pred = sum(a[d] * stack.gram(d) @ c for d in range(4))
    quad = sum(a[d] * c @ stack.gram(d) @ c for d in range(4))
    expect_l1 = np.sum((y - pred) ** 2) + lam * quad + a.sum()
    expect_l12 = (
        np.sum((y - pred) ** 2)
        + lam * quad
        + np.sqrt(a[0] ** 2 + a[1] ** 2)
        + np.sqrt(a[2] ** 2 + a[3] ** 2)
    )
    assert task_objective(stack, y, a, c, lam, "l1") == pytest.approx(expect_l1, rel=1e-12)
    assert task_objective(stack, y, a, c, lam, "l12") == pytest.approx(expect_l12, rel=1e-12)


def test_coefficients_zero_weights():
    stack = _identity_stack(4)
    y = np.array([2.0, 0.0, -4.0, 1.0])
    np.testing.assert_allclose(solve_coefficients(stack, np.zeros(1), y, 0.5), y / 0.5)


def test_coefficients_identity_kernel():
    stack = _identity_stack(3)
    y = np.array([3.0, -1.0, 2.0])
    np.testing.assert_allclose(solve_coefficients(stack, np.ones(1), y, 1.0), y / 2.0)
    with pytest.raises(DimensionMismatchError):  # BLAS would read only the first weight
        solve_coefficients(stack, np.ones(2), y, 1.0)


def test_coefficients_residual_and_cg_oracle():
    rng = np.random.default_rng(2)
    for _ in range(5):
        n = int(rng.integers(6, 15))
        stack = _random_stack(rng, n)
        a = rng.uniform(0.0, 2.0, 3)
        y = rng.standard_normal(n)
        lam = float(rng.uniform(0.05, 2.0))
        c = solve_coefficients(stack, a, y, lam)
        M = lam * np.eye(n) + sum(a[d] * stack.gram(d) for d in range(3))
        assert np.linalg.norm(M @ c - y) <= 1e-8 * np.linalg.norm(y)
        np.testing.assert_allclose(c, cg_solve(M, y), atol=1e-9, rtol=1e-9)


def test_non_positive_definite_system_is_rejected():
    spec = KernelSpec("linear", partition=0, norm_factor=1.0)
    stack = GramStack.of([-2.0 * np.eye(3)], [spec], [(0, 0)])
    y = np.array([1.0, 2.0, 3.0])  # M = -2 I + I = -I
    with pytest.raises(SingularSystemError):
        solve_coefficients(stack, np.ones(1), y, 1.0)
    with pytest.raises(SingularSystemError):
        solve_task_l12(stack, stack.group_index, y, 1.0, warm=[1.0])


def test_stack_products_match_tensordot():
    rng = np.random.default_rng(26)
    for l, n in [(1, 1), (1, 7), (4, 1), (6, 9), (30, 12)]:
        stack = _random_stack(rng, n, parts=l)
        a, c, lam = rng.uniform(0.0, 2.0, l), rng.standard_normal(n), 0.3
        dense = dense_grams(stack)
        # M is held as its lower triangle
        for got, ref in [(solver._factor_system(stack, a, lam)[0],
                          np.tril(np.tensordot(a, dense, axes=1) + lam * np.eye(n))),
                         (solver._stack_times(stack, c), np.tensordot(dense, c, axes=1))]:
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_solves_make_no_copy_of_the_gram_stack():
    # f2py copies any argument that is not Fortran-ordered; a copy of the
    # stack would cost l n^2 doubles per call
    train = _toy_train(np.random.default_rng(27), n_total=300, m=5)
    grams = build_gram_stack(train.inputs, train.partition_map)
    l, n = grams.n_kernels, grams.n_train
    assert l == 30
    a, y = np.full(l, 1.0 / l), train.outputs[:, 0]
    for call in (lambda: solve_coefficients(grams, a, y, 1.0),
                 lambda: solve_task_l12(grams, grams.group_index, y, 1.0,
                                        opts=SolverOptions(max_iter=2))):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # M and its factor, or the cold start's Kbar and its work matrix
        assert peak < 2.5 * n * n * 8


def test_solves_reject_a_target_of_another_length_or_a_non_finite_one():
    stack = _random_stack(np.random.default_rng(28), 5)
    a = np.ones(3)
    for y, error in [(np.ones(4), DimensionMismatchError), (np.ones(6), DimensionMismatchError),
                     (np.array([1.0, np.nan, 0.0, 0.0, 0.0]), BadDataError),
                     (np.array([1.0, 0.0, -np.inf, 0.0, 0.0]), BadDataError)]:
        with pytest.raises(error):
            solve_coefficients(stack, a, y, 1.0)
        with pytest.raises(error):
            solve_task_l12(stack, stack.group_index, y, 1.0)
        with pytest.raises(error):
            solve_task_l12(stack, stack.group_index, y, 1.0, warm=a)


def test_nvarl12_fit_matches_the_dense_stack_oracle():
    # the packed stack changes only how each Newton step reads the Grams:
    # the same steps, to rounding
    series = generate_synthetic(SyntheticSpec(length=260, seed=20))
    _, train, _ = split_experiment_data(series, train=200, holdout=60, lag=3)
    model = fit("nvarl12", train, 300.0)
    A, C, iterations = dense_l12_fit(train, 300.0, SolverOptions())
    grams = build_gram_stack(train.inputs, train.partition_map)
    tasks = [solve_task_l12(grams, grams.group_index, y, 300.0) for y in train.outputs.T]
    assert [len(task.objective_trace) for task in tasks] == iterations
    assert all(task.converged for task in tasks)
    assert (A > 0.0).any() and (A == 0.0).any()
    for got, ref in [(model.A, A), (model.C, C)]:
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("method", ["nvarl1", "nvar"])
def test_l1_fit_equals_the_full_stack_fit_bit_for_bit(method):
    # fit builds and factors one partition's Grams at a time; each partition
    # is built alone in the whole stack too, so nothing may move by a bit
    series = generate_synthetic(SyntheticSpec(length=200, seed=23))
    _, train, _ = split_experiment_data(series, train=160, holdout=40, lag=3)
    model = fit(method, train, 2.0)
    A, C, factors = full_stack_l1_fit(method, train, 2.0, DEFAULT_DICTIONARY, SolverOptions())
    assert np.array_equal(model.A, A) and np.array_equal(model.C, C)
    assert [spec.norm_factor for spec in model.specs] == factors


def test_l1_fit_never_holds_the_whole_gram_stack():
    # the whole stack and the stacked design held at once are more than
    # the partition-at-a-time fit ever holds: one partition's Grams with the
    # features so far, then the features and the design stacked from them
    series = generate_synthetic(SyntheticSpec(length=400, seed=20))
    _, train, _ = split_experiment_data(series, train=300, holdout=100, lag=5)
    grams = build_gram_stack(train.inputs, train.partition_map)
    bound = (grams.n_kernels * grams.n_train**2 * 8  # the dense (l, n, n) stack
             + train.n_pairs * sum(build_feature_stack(grams).ranks) * 8)
    del grams
    tracemalloc.start()
    try:
        fit("nvarl1", train, 10.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, (peak, bound)


def test_l1_zero_target():
    rng = np.random.default_rng(3)
    stack = _random_stack(rng, 6)
    feats = build_feature_stack(stack)
    task = solve_task_l1(feats, stack, np.zeros(6), 0.5, opts=TIGHT)
    np.testing.assert_array_equal(task.a, 0.0)
    np.testing.assert_array_equal(task.c, 0.0)
    assert all(np.array_equal(z, np.zeros_like(z)) for z in task.z_blocks)


def test_l1_full_shrinkage_gives_ridge_only():
    rng = np.random.default_rng(4)
    stack = _random_stack(rng, 6)
    feats = build_feature_stack(stack)
    y = rng.standard_normal(6)
    # kappa = 2 sqrt(lam) >= 2 max ||Phi' y||  <=>  lam >= max ||Phi' y||^2
    lam = 1.01 * max(np.linalg.norm(phi.T @ y) ** 2 for phi in feats.features)
    task = solve_task_l1(feats, stack, y, lam, opts=TIGHT)
    np.testing.assert_array_equal(task.a, 0.0)
    np.testing.assert_allclose(task.c, y / lam, rtol=1e-12)


def test_l1_closed_form_weights_and_representer():
    rng = np.random.default_rng(5)
    for _ in range(5):
        n = int(rng.integers(6, 11))
        stack = _random_stack(rng, n)
        feats = build_feature_stack(stack)
        y = rng.standard_normal(n)
        lam = float(rng.uniform(0.05, 0.6))
        task = solve_task_l1(feats, stack, y, lam, opts=TIGHT)
        for d, z in enumerate(task.z_blocks):
            assert abs(task.a[d] - np.sqrt(lam) * np.linalg.norm(z)) <= 1e-10
        feat_pred = sum(phi @ z for phi, z in zip(feats.features, task.z_blocks))
        kern_pred = sum(task.a[d] * stack.gram(d) @ task.c for d in range(3))
        assert np.linalg.norm(feat_pred - kern_pred) <= 1e-6 * np.linalg.norm(y)


def test_column_wise_l1_solution_matches_each_task():
    # the CV path reads every task's (A, C) at once from column-stacked
    # group-lasso weights; column s must be task s's own (a, c)
    rng = np.random.default_rng(6)
    stack = _random_stack(rng, 9)
    feats = build_feature_stack(stack)
    design = GroupedProblem(feats.features, np.zeros(9), 0.0)
    Y = rng.standard_normal((9, 4))
    lam = 0.3
    tasks = [solve_task_l1(feats, stack, y, lam, opts=TIGHT) for y in Y.T]
    assert any(task.a.any() for task in tasks)
    W = np.column_stack([np.concatenate(task.z_blocks) for task in tasks])
    A, C = solver.l1_solution(design, W, Y, lam)
    for s, task in enumerate(tasks):
        np.testing.assert_allclose(A[:, s], task.a, rtol=1e-12, atol=0)
        np.testing.assert_allclose(C[:, s], task.c, rtol=1e-12, atol=0)


def _l1_saved_model_gaps(model, path):
    """Per output: |sqrt(q_d) - 1| on active kernels, (sqrt(q_d) - 1)+ on
    inactive ones, q_d = lam c^T K^d c, from the saved model document and
    cross_gram on its training inputs alone."""
    save_model(model, path)
    model = load_model(path)
    part_map = lag_columns(model.training_inputs.shape[1] // model.lag, model.lag)
    q = np.empty(model.A.shape)
    for d, spec in enumerate(model.specs):
        X = model.training_inputs[:, partition_columns(spec, part_map)]
        q[d] = model.lam * np.einsum("is,is->s", model.C, cross_gram(spec, X, X) @ model.C)
    root = np.sqrt(np.maximum(q, 0.0))
    return np.where(model.A > 0.0, np.abs(root - 1.0), np.maximum(root - 1.0, 0.0)).max(axis=0)


@pytest.mark.parametrize("method, lam", [("nvarl1", 0.5), ("nvarl1", 3.0), ("nvar", 1.0)])
def test_l1_saved_model_gap_is_the_solver_gap(tmp_path, monkeypatch, method, lam):
    # c is the group-lasso residual over lam, so the stationarity gap read
    # from the saved model is the solver's own KKT gap over kappa
    flags = []

    def recording(*args, _solve=solver.solve_group_lasso, **kwargs):
        result = _solve(*args, **kwargs)
        flags.append(result.converged)
        return result

    monkeypatch.setattr(solver, "solve_group_lasso", recording)
    model = fit(method, _toy_train(np.random.default_rng(24)), lam)
    assert flags == [True] * 3
    gaps = _l1_saved_model_gaps(model, tmp_path / "model.json")
    assert model.A.any()
    assert gaps.max() <= kkt_tolerance(SolverOptions()) + 1e-9


def test_l1_coefficients_solve_the_linear_system_at_tight_options():
    train = _toy_train(np.random.default_rng(25))
    grams = build_gram_stack(train.inputs, train.partition_map)
    feats = build_feature_stack(grams)
    for lam in (0.3, 2.0):
        for y in train.outputs.T:
            task = solve_task_l1(feats, grams, y, lam, opts=TIGHT)
            assert task.converged and task.a.any()
            exact = solve_coefficients(grams, task.a, y, lam)
            assert np.linalg.norm(task.c - exact) <= 1e-6 * np.linalg.norm(exact)


def test_l1_objective_matches_restart_oracle():
    rng = np.random.default_rng(6)
    n, lam = 10, 0.5
    stack = _random_stack(rng, n)
    feats = build_feature_stack(stack)
    y = rng.standard_normal(n)
    task = solve_task_l1(feats, stack, y, lam, opts=TIGHT)
    ref = alternating_l1_oracle(dense_grams(stack), y, lam)
    assert task.objective == pytest.approx(ref, rel=1e-5)


def test_l12_zero_target():
    rng = np.random.default_rng(7)
    stack = _random_stack(rng, 6)
    task = solve_task_l12(stack, stack.group_index, np.zeros(6), 0.5)
    np.testing.assert_array_equal(task.a, 0.0)
    np.testing.assert_array_equal(task.c, 0.0)


def test_l12_singleton_groups_match_l1_objective():
    rng = np.random.default_rng(8)
    n = 9
    stack = _random_stack(rng, n, parts=3, per_part=1)  # s_j = 1 for all j
    feats = build_feature_stack(stack)
    y = rng.standard_normal(n)
    lam = 0.3
    l1 = solve_task_l1(feats, stack, y, lam, opts=TIGHT)
    l12 = solve_task_l12(stack, stack.group_index, y, lam, opts=TIGHT)
    # identical penalties and both problems convex: the same minimum
    assert l12.objective == pytest.approx(l1.objective, rel=1e-8)
    assert task_objective(stack, y, l12.a, l12.c, lam, "l1") == pytest.approx(
        l12.objective, rel=1e-10
    )


def _l12_instances(seed, count=30):
    """Random l1/l2 tasks: (stack, y, lam) with 2-4 groups of 1-3 kernels."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(8, 20))
        parts, per_part = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        yield (_random_stack(rng, n, parts, per_part), rng.standard_normal(n),
               float(10.0 ** rng.uniform(-1.5, 1.5)))


def _l12_gap(stack, a, c, lam):
    """Group stationarity gap of an l1/l2 task at (a, c), from the Grams alone:
    |q_d - a_d/||a_g||| on a group with a_g != 0, (||q_g|| - 1)+ on a zero one."""
    q = np.array([lam * c @ K @ c for K in dense_grams(stack)])
    gap = 0.0
    for g in {j for j, _ in stack.group_index}:
        rows = [d for d, (j, _) in enumerate(stack.group_index) if j == g]
        norm = np.linalg.norm(a[rows])
        if norm > 0.0:
            gap = max(gap, float(np.abs(q[rows] - a[rows] / norm).max()))
        else:
            gap = max(gap, float(np.linalg.norm(q[rows])) - 1.0)
    return gap


@pytest.mark.parametrize("route, opts, rel", [
    # the l1 route reports its group lasso's objective, which meets the task
    # objective at (a, c) to second order in the KKT residual: about 1e-8
    # relative at the default tolerance 1e-4, up to 1e-7 on these instances
    pytest.param("l1", SolverOptions(), 1e-6, id="l1-default"),
    pytest.param("l1", TIGHT, 1e-12, id="l1-tight"),
    # the l1/l2 route's lam y^T c equals it wherever c solves the system
    pytest.param("l12", SolverOptions(), 1e-12, id="l12-default"),
    pytest.param("l12", TIGHT, 1e-12, id="l12-tight"),
])
def test_reported_objective_is_the_task_objective(route, opts, rel):
    for stack, y, lam in _l12_instances(14):
        if route == "l1":
            task = solve_task_l1(build_feature_stack(stack), stack, y, lam, opts=opts)
        else:
            task = solve_task_l12(stack, stack.group_index, y, lam, opts=opts)
        assert task.objective == task.objective_trace[-1]
        assert task.objective == pytest.approx(
            task_objective(stack, y, task.a, task.c, lam, route), rel=rel
        )


def test_l1_rejects_a_design_that_does_not_match_the_gram_stack():
    rng = np.random.default_rng(15)
    stack = _random_stack(rng, 6)
    blocks = build_feature_stack(stack).features
    y = rng.standard_normal(6)
    with pytest.raises(DimensionMismatchError):
        solve_task_l1(FeatureStack(features=blocks[:2]), stack, y, 0.5)
    with pytest.raises(DimensionMismatchError):
        solve_task_l1(FeatureStack(features=blocks + blocks[:1]), stack, y, 0.5)


def test_l12_default_options_end_at_the_group_stationarity_gap():
    for stack, y, lam in _l12_instances(12):
        task = solve_task_l12(stack, stack.group_index, y, lam)
        assert task.converged
        assert _l12_gap(stack, task.a, task.c, lam) <= 1e-4


def test_l12_tight_options_end_at_the_group_stationarity_gap():
    # near 1e-8 a Newton step's predicted decrease falls below the
    # objective's rounding, where a backtracking search cannot judge it
    for stack, y, lam in _l12_instances(17):
        task = solve_task_l12(stack, stack.group_index, y, lam, opts=TIGHT)
        assert task.converged
        assert _l12_gap(stack, task.a, task.c, lam) <= 1.01 * kkt_tolerance(TIGHT)


def test_l12_warm_starts_reach_the_same_objective():
    # the reduced problem is convex: where the solve starts does not matter
    for stack, y, lam in _l12_instances(13):
        cold = solve_task_l12(stack, stack.group_index, y, lam)
        warm = solve_task_l12(stack, stack.group_index, y, lam,
                              warm=np.linspace(2.0, 0.0, stack.n_kernels))
        assert warm.objective == pytest.approx(cold.objective, rel=1e-8)


def test_l12_cold_start_is_the_best_point_on_the_uniform_ray(monkeypatch):
    # phi(s) = lam y^T (s Kbar + lam I)^-1 y + s P along a = s u, u = 1/l,
    # from the eigenpairs of Kbar over s = 0 and a dense log grid; the start
    # lies on the ray, so it can undercut the grid's best point but not phi's
    starts = []

    def recording(grams, a, lam, _factor=solver._factor_system):
        starts.append(np.array(a))
        return _factor(grams, a, lam)

    monkeypatch.setattr(solver, "_factor_system", recording)
    zero_starts = 0
    for stack, y, lam in _l12_instances(16):
        l = stack.n_kernels
        groups = [[d for d, (j, _) in enumerate(stack.group_index) if j == g]
                  for g in sorted({j for j, _ in stack.group_index})]
        P = sum(np.sqrt(len(rows)) / l for rows in groups)
        Kbar = dense_grams(stack).mean(axis=0)
        mu, Q = np.linalg.eigh(Kbar)
        s = np.concatenate([[0.0], np.logspace(-4, 5, 2000)])
        phi = lam * ((Q.T @ y) ** 2 / (np.outer(s, mu) + lam)).sum(axis=1) + s * P
        starts.clear()
        task = solve_task_l12(stack, stack.group_index, y, lam, opts=SolverOptions(max_iter=1))
        assert task.objective_trace[0] <= phi.min() * (1.0 + 1e-6)
        if y @ Kbar @ y / lam <= P:
            zero_starts += 1
            np.testing.assert_array_equal(starts[0], 0.0)
    assert zero_starts > 0


def _assert_unconverged_stop(stack, y, lam, task, opts):
    """An l1/l2 solve that ended before its budget without converging: a
    non-increasing trace, a >= 0, and c solving (sum_d a_d K^d + lam I) c = y."""
    assert not task.converged
    assert len(task.objective_trace) - 2 < opts.max_iter  # the Newton steps taken
    trace = np.array(task.objective_trace)
    assert np.all(trace[1:] <= trace[:-1] + 1e-12 * np.maximum(1.0, np.abs(trace[:-1])))
    assert task.a.min() >= 0.0
    M = np.tensordot(task.a, dense_grams(stack), axes=1) + lam * np.eye(len(y))
    np.testing.assert_allclose(M @ task.c, y, rtol=0.0, atol=1e-10 * np.linalg.norm(y))


def test_l12_stops_unconverged_once_its_steps_sink_below_rounding(monkeypatch):
    # no gap meets a zero tolerance: the solve ends where a step too small
    # for the objective to judge does not narrow the gap either
    monkeypatch.setattr(solver, "kkt_tolerance", lambda opts: 0.0)
    opts = SolverOptions(max_iter=200)
    stopped = 0
    for stack, y, lam in _l12_instances(18, count=8):
        task = solve_task_l12(stack, stack.group_index, y, lam, opts=opts)
        if task.converged:  # an exactly zero gap, as at a = 0
            continue
        stopped += 1
        _assert_unconverged_stop(stack, y, lam, task, opts)
        assert _l12_gap(stack, task.a, task.c, lam) <= 1e-12
    assert stopped >= 3


def test_l12_stops_unconverged_when_its_line_search_is_exhausted(monkeypatch):
    # without backtracking, a rejected full step from a far start leaves
    # no step to try
    monkeypatch.setattr(solver, "BACKTRACK_FACTOR", 0.0)
    opts = SolverOptions()
    stopped = 0
    for stack, y, lam in _l12_instances(19, count=10):
        task = solve_task_l12(stack, stack.group_index, y, lam,
                              warm=np.ones(stack.n_kernels), opts=opts)
        if task.converged:
            continue
        stopped += 1
        _assert_unconverged_stop(stack, y, lam, task, opts)
        assert _l12_gap(stack, task.a, task.c, lam) > kkt_tolerance(opts)
    assert stopped >= 2


def test_l12_rejects_a_non_contiguous_group_index():
    rng = np.random.default_rng(11)
    stack = _random_stack(rng, 6, parts=2, per_part=2)
    with pytest.raises(DimensionMismatchError, match="contiguous"):
        solve_task_l12(stack, [(0, 0), (1, 0), (0, 1), (1, 1)], rng.standard_normal(6), 1.0)


def test_l12_large_lambda_kills_single_group_in_one_step():
    rng = np.random.default_rng(9)
    stack = _random_stack(rng, 6, parts=1, per_part=3)  # one group of all kernels
    y = rng.standard_normal(6)
    task = solve_task_l12(stack, stack.group_index, y, 5000.0, opts=SolverOptions(max_iter=1))
    np.testing.assert_array_equal(task.a, 0.0)


def test_l12_outer_trace_monotone():
    rng = np.random.default_rng(10)
    for _ in range(6):
        n = int(rng.integers(6, 12))
        stack = _random_stack(rng, n, parts=2, per_part=3)
        y = rng.standard_normal(n)
        lam = float(rng.uniform(0.05, 5.0))
        task = solve_task_l12(stack, stack.group_index, y, lam)
        trace = np.array(task.objective_trace)
        slack = 1e-12 * np.maximum(1.0, np.abs(trace[:-1]))
        assert np.all(trace[1:] <= trace[:-1] + slack)
        assert task.a.min() >= 0.0


def test_l12_fit_converges_with_budget_to_spare_and_matches_a_tight_fit(monkeypatch):
    # the fit-l12-large configuration at train 300: from the cold start on the
    # uniform-weight ray every task must stop on its gap within 6 Newton
    # steps, near a tight solve that converges on every task
    _, train, _ = split_experiment_data(generate_synthetic(SyntheticSpec(length=400, seed=20)),
                                        300, 100, 5)
    tasks = []

    def recording(*args, _solve=solver.solve_task_l12, **kwargs):
        tasks.append(_solve(*args, **kwargs))
        return tasks[-1]

    monkeypatch.setattr(solver, "solve_task_l12", recording)
    opts = SolverOptions(max_iter=15)
    model = fit("nvarl12", train, 300.0, opts)
    assert len(tasks) == train.n_series
    for task in tasks:
        # one trace entry per Newton step, one at the start, one at the end
        assert task.converged and len(task.objective_trace) - 2 <= 6
    tasks.clear()
    tight = fit("nvarl12", train, 300.0, TIGHT)
    assert len(tasks) == train.n_series and all(task.converged for task in tasks)
    # the gap tolerance 1e-4 leaves sum(A) about 1e-5 from the optimum (seen:
    # 8.8e-6 here, and up to 1.1e-5 on one task)
    assert model.A.sum() == pytest.approx(tight.A.sum(), rel=2e-5)
    assert np.linalg.norm(model.C - tight.C) <= 1e-5 * np.linalg.norm(tight.C)


def test_tau_absorption_identity():
    rng = np.random.default_rng(11)
    stack = _random_stack(rng, 7)
    y = rng.standard_normal(7)
    c = rng.standard_normal(7)
    a = rng.uniform(0.0, 1.5, 3)
    lam, tau = 0.4, 2.7
    # objective with explicit penalty weight tau at lam equals the tau=1
    # objective at lam*tau evaluated at (tau*a, c/tau)
    base = task_objective(stack, y, a, c, lam, "l1")
    lhs = base - a.sum() + tau * a.sum()
    rhs = task_objective(stack, y, tau * a, c / tau, lam * tau, "l1")
    assert lhs == pytest.approx(rhs, rel=1e-10)


def _toy_train(rng, n_total=60, m=3, p=2):
    values = rng.standard_normal((n_total, m))
    series = MultivariateSeries(values=values, names=[f"s{j}" for j in range(m)])
    return lag_embed(series, p)


def test_fit_separability_bitwise():
    rng = np.random.default_rng(12)
    train = _toy_train(rng)
    model = fit("nvarl1", train, 2.0)
    grams = build_gram_stack(train.inputs, train.partition_map)
    feats = build_feature_stack(grams)
    for s in range(3):
        task = solve_task_l1(feats, grams, train.outputs[:, s], 2.0)
        assert np.array_equal(model.A[:, s], task.a)
        assert np.array_equal(model.C[:, s], task.c)


def test_fit_permutation_equivariance():
    rng = np.random.default_rng(13)
    train = _toy_train(rng)
    perm = [2, 0, 1]
    permuted = train.subset(np.arange(train.n_pairs))
    permuted.outputs = permuted.outputs[:, perm]
    base = fit("nvarl1", train, 1.5)
    swapped = fit("nvarl1", permuted, 1.5)
    assert np.array_equal(swapped.A, base.A[:, perm])
    assert np.array_equal(swapped.C, base.C[:, perm])


def test_fit_huge_lambda_zeroes_weights_both_methods():
    rng = np.random.default_rng(14)
    train = _toy_train(rng)
    for method in ("nvarl1", "nvarl12"):
        model = fit(method, train, 1e9)
        np.testing.assert_array_equal(model.A, 0.0)


def test_fit_weights_nonnegative_both_methods():
    rng = np.random.default_rng(15)
    train = _toy_train(rng)
    for method in ("nvarl1", "nvarl12"):
        model = fit(method, train, 0.8)
        assert model.A.min() >= 0.0


def test_predict_zero_weights_gives_zero():
    rng = np.random.default_rng(16)
    train = _toy_train(rng)
    model = fit("nvarl1", train, 1e9)
    preds = predict(model, train.inputs[:4])
    np.testing.assert_array_equal(preds, 0.0)


def test_predict_on_training_inputs_matches_fitted_values():
    rng = np.random.default_rng(17)
    train = _toy_train(rng)
    model = fit("nvarl1", train, 1.0)
    preds = predict(model, train.inputs)
    grams = build_gram_stack(train.inputs, train.partition_map)
    expected = np.zeros_like(preds)
    for s in range(3):
        for d in range(grams.n_kernels):
            expected[:, s] += model.A[d, s] * (grams.gram(d) @ model.C[:, s])
    np.testing.assert_allclose(preds, expected, atol=1e-10)


def test_predict_representer_equivalence_through_pipeline():
    rng = np.random.default_rng(18)
    train = _toy_train(rng, n_total=40, m=2, p=3)
    grams = build_gram_stack(train.inputs, train.partition_map)
    feats = build_feature_stack(grams)
    y = train.outputs[:, 0]
    task = solve_task_l1(feats, grams, y, 0.7, opts=TIGHT)
    feat_pred = sum(phi @ z for phi, z in zip(feats.features, task.z_blocks))
    model = fit("nvarl1", train, 0.7, TIGHT)
    preds = predict(model, train.inputs)
    assert np.linalg.norm(preds[:, 0] - feat_pred) <= 1e-6 * np.linalg.norm(y)


def test_adjacency_zero_and_single_entry():
    rng = np.random.default_rng(19)
    train = _toy_train(rng)
    model = fit("nvarl1", train, 1e9)
    adj = adjacency(model)
    np.testing.assert_array_equal(adj.values, np.zeros((3, 3)))

    A = model.A.copy()
    A[7, 1] = 0.42  # kernel 7 belongs to partition 1 (6 kernels per series)
    adj = adjacency(dataclasses.replace(model, A=A))
    expected = np.zeros((3, 3))
    expected[1, 1] = 1.0
    np.testing.assert_array_equal(adj.values, expected)


def test_adjacency_sums_within_partitions_and_rescales():
    rng = np.random.default_rng(20)
    train = _toy_train(rng)
    model = fit("nvarl1", train, 1e9)
    A = model.A.copy()
    A[0, 0] = 1.0   # partition 0 -> output 0
    A[1, 0] = 3.0   # same partition, same output
    A[12, 2] = 2.0  # partition 2 -> output 2
    A[13, 2] = 1e-12  # dust swallowed by the relative threshold
    adj = adjacency(dataclasses.replace(model, A=A))
    expected = np.zeros((3, 3))
    expected[0, 0] = 1.0
    expected[2, 2] = 0.5
    np.testing.assert_allclose(adj.values, expected, rtol=1e-12)


def test_adjacency_rejects_full_partition_model():
    rng = np.random.default_rng(21)
    train = _toy_train(rng, m=1, p=4)
    model = fit("nvar", train, 1.0)
    with pytest.raises(UnsupportedKindError):
        adjacency(model)


def test_predict_accepts_single_row():
    rng = np.random.default_rng(22)
    train = _toy_train(rng)
    model = fit("nvarl1", train, 1.0)
    one = predict(model, train.inputs[0])
    many = predict(model, train.inputs[:1])
    assert one.shape == (1, 3)
    np.testing.assert_array_equal(one, many)


def test_predict_over_several_blocks_matches_one_row_calls():
    rng = np.random.default_rng(23)
    train = _toy_train(rng)
    model = fit("nvarl1", train, 1.0)
    assert np.count_nonzero(model.A) > 3
    # a partial last block after two full ones
    rows = rng.standard_normal((2 * _PREDICT_BLOCK_ROWS + 5, train.inputs.shape[1]))
    batch = predict(model, rows)
    single = np.vstack([predict(model, row) for row in rows])
    np.testing.assert_allclose(batch, single, rtol=1e-12, atol=1e-12 * np.abs(single).max())


def _sparse_model(method):
    """A fitted kernel model on 3 series with some zero-weight kernels and,
    when partitioned, one input partition whose kernels are all zero."""
    rng = np.random.default_rng(24)
    model = fit(method, _toy_train(rng), 0.5)
    A = model.A.copy()
    A[[0, 3]] = 0.0
    if method != "nvar":
        A[6:12] = 0.0  # partition 1
    A[A.any(axis=1)] += 0.25  # the rest all active
    return dataclasses.replace(model, A=A)


@pytest.mark.parametrize("method", ["nvarl1", "nvarl12", "nvar"])
@pytest.mark.parametrize("n_rows", [1, 31, 32, 33, 100])
def test_predict_matches_the_per_kernel_reference(method, n_rows):
    # the partition-wise path sums the kernels in another order: equal to
    # rounding, across block boundaries and a partial last block
    model = _sparse_model(method)
    rows = np.random.default_rng(n_rows).standard_normal((n_rows, model.training_inputs.shape[1]))
    expected = predict_per_kernel(model, rows)
    assert np.abs(expected).max() > 0.0
    np.testing.assert_allclose(predict(model, rows), expected, rtol=1e-12,
                               atol=1e-12 * np.abs(expected).max())
    np.testing.assert_allclose(predict(model, rows[0]), expected[:1], rtol=1e-12,
                               atol=1e-12 * np.abs(expected[0]).max())


@pytest.mark.parametrize("method", ["nvarl1", "nvarl12", "nvar"])
@pytest.mark.parametrize("n_rows", [2, 17])
def test_short_calls_match_the_per_kernel_reference(method, n_rows):
    # a short call is one partial block of every layout
    model = _sparse_model(method)
    rows = np.random.default_rng(n_rows).standard_normal((n_rows, model.training_inputs.shape[1]))
    expected = predict_per_kernel(model, rows)
    np.testing.assert_allclose(predict(model, rows), expected, rtol=1e-12,
                               atol=1e-12 * np.abs(expected).max())


def _counted_cross_grams(monkeypatch):
    calls = []

    def counting(*args, _cross=solver.cross_gram):
        calls.append(args)
        return _cross(*args)

    monkeypatch.setattr(solver, "cross_gram", counting)
    return calls


def _two_layout_model(rng):
    """nvarl1 on 5 series: partitions 0, 1 and 3 keep all six kernels, 2 and
    4 lose two of theirs."""
    model = fit("nvarl1", _toy_train(rng, m=5), 0.5)
    A = rng.uniform(0.5, 1.5, model.A.shape)
    A[[12, 17, 24, 29]] = 0.0
    return dataclasses.replace(model, A=A)


@pytest.mark.parametrize("n_rows, calls", [(1, 2), (2, 2), (17, 4), (40, 7)])
def test_partitions_with_two_active_layouts_match_the_per_kernel_reference(monkeypatch, n_rows,
                                                                          calls):
    # each layout serves its partitions together: the full layout's three
    # in blocks of 32 // 3 = 10 rows, the other's two in blocks of 16
    rng = np.random.default_rng(26)
    model = _two_layout_model(rng)
    rows = rng.standard_normal((n_rows, model.training_inputs.shape[1]))
    expected = predict_per_kernel(model, rows)
    made = _counted_cross_grams(monkeypatch)
    np.testing.assert_allclose(predict(model, rows), expected, rtol=1e-12,
                               atol=1e-12 * np.abs(expected).max())
    assert len(made) == calls


@pytest.mark.parametrize("model", ["nvarl1", "nvarl12", "nvar", "two layouts"])
@pytest.mark.parametrize("n_rows", [1, 5, 31, 33, 100])
def test_every_cross_gram_block_holds_at_most_the_block_rows(monkeypatch, model, n_rows):
    # memory does not grow with the rows: a block of P slots of one layout
    # holds at most max(_PREDICT_BLOCK_ROWS, P) slot-rows, and every active
    # slot's rows are served once
    model = (_two_layout_model(np.random.default_rng(26)) if model == "two layouts"
             else _sparse_model(model))
    active = {spec.partition for spec, weights in zip(model.specs, model.A) if weights.any()}
    rows = np.random.default_rng(n_rows).standard_normal((n_rows, model.training_inputs.shape[1]))
    made = _counted_cross_grams(monkeypatch)
    predict(model, rows)
    shapes = [test_rows.shape[:2] for _, _, test_rows in made]
    assert all(P * r <= max(_PREDICT_BLOCK_ROWS, P) for P, r in shapes)
    assert sum(P * r for P, r in shapes) == n_rows * len(active)


@pytest.mark.parametrize("method", ["nvarl1", "nvar"])
def test_replacing_the_weights_serves_as_a_model_built_fresh(method):
    # the serving plan is built on construction: a changed copy must serve
    # from its own weights, bit for bit as a model built with them
    model = _sparse_model(method)
    A2 = model.A.copy()
    A2[slice(12, 18) if method == "nvarl1" else slice(4, 6)] = 0.0
    A2[1] *= 3.0
    changed = dataclasses.replace(model, A=A2)
    fields = {f.name: getattr(model, f.name) for f in dataclasses.fields(model) if f.init}
    fresh = solver.ModelFit(**{**fields, "A": A2})
    rows = np.random.default_rng(27).standard_normal((3, model.training_inputs.shape[1]))
    served = predict(changed, rows)
    for one in (rows, rows[0]):
        assert np.array_equal(predict(changed, one), predict(fresh, one))
        assert not np.allclose(predict(changed, one), predict(model, one))
    expected = predict_per_kernel(fresh, rows)
    np.testing.assert_allclose(served, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())
    A2[:] = 0.0  # the caller's array, of which both models hold their own copy
    assert np.array_equal(predict(changed, rows), served)
    assert np.array_equal(predict(fresh, rows), served)


def test_training_inputs_are_a_read_only_copy():
    rng = np.random.default_rng(28)
    train = _toy_train(rng)
    model = fit("nvarl1", train, 1.0)
    before = predict(model, train.inputs[:4])
    train.inputs[:] = 0.0
    assert np.array_equal(predict(model, train.inputs[:4] + model.training_inputs[:4]), before)
    with pytest.raises(ValueError):
        model.training_inputs[0, 0] = 1.0


def test_predict_serves_a_document_that_lists_a_partitions_kernels_apart():
    # kernel order in a model document is free: interleaving the partitions'
    # kernels changes no forecast
    model = _sparse_model("nvarl1")
    doc = model_to_dict(model)
    order = [d for i in range(6) for d in range(i, len(model.specs), 6)]
    doc["kernels"] = [doc["kernels"][d] for d in order]
    doc["weights_a"] = [doc["weights_a"][d] for d in order]
    interleaved = model_from_dict(doc)
    rows = np.random.default_rng(25).standard_normal((40, model.training_inputs.shape[1]))
    expected = predict_per_kernel(model, rows)
    np.testing.assert_allclose(predict(interleaved, rows), expected, rtol=1e-12,
                               atol=1e-12 * np.abs(expected).max())


def test_a_model_that_mixes_full_input_and_partitioned_kernels_is_rejected():
    # neither fit nor a v1 document makes one, and a model serves one row set
    model = _sparse_model("nvarl1")
    specs = [dataclasses.replace(spec, partition=None if d == 0 else spec.partition)
             for d, spec in enumerate(model.specs)]
    with pytest.raises(ConfigError, match="mix full-input and partitioned"):
        dataclasses.replace(model, specs=specs)
    doc = model_to_dict(model)
    doc["kernels"][0]["partition"] = None
    with pytest.raises(ConfigError, match="mix full-input and partitioned"):
        model_from_dict(doc)


def test_fit_takes_one_kernel_method_and_one_scalar_lambda():
    rng = np.random.default_rng(23)
    train = _toy_train(rng)
    with pytest.raises(ConfigError):
        fit("lvarl2", train, 1.0)
    with pytest.raises(TypeError):
        fit("nvarl1", train, [1.0, 2.0, 3.0])
    model = fit("nvarl1", train, 1.0)
    assert np.array_equal(model.lam, np.full(3, 1.0))
