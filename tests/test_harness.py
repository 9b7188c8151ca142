import dataclasses
import inspect
import json
import math
import warnings

import numpy as np
import pytest

from nlvar import baselines, errors, grouplasso, harness, kernels, solver
from nlvar.errors import (BadDataError, BadRangeError, ConfigError, DimensionMismatchError,
                          FoldTooSmallError, NlvarError)
from nlvar.grouplasso import SolverOptions
from nlvar.harness import (
    ExperimentConfig,
    GridSpec,
    SyntheticSpec,
    cv_select,
    default_psi,
    evaluate_holdout,
    experiment_config_from_dict,
    generate_synthetic,
    run_experiment,
    scale_count,
    split_experiment_data,
)
from nlvar.harness import _baseline_path, _kernel_path, select_lambda
from nlvar.kernels import DEFAULT_DICTIONARY, KernelSpec, build_feature_stack, build_gram_stack
from nlvar.series import MultivariateSeries, lag_embed, standardize_apply, standardize_fit
from nlvar.solver import fit, predict, solve_task_l1


def test_generator_deterministic_and_shaped():
    spec = SyntheticSpec(length=300, seed=99)
    a = generate_synthetic(spec)
    b = generate_synthetic(SyntheticSpec(length=300, seed=99))
    assert a.values.shape == (300, 5)
    assert a.names == ["y1", "y2", "y3", "y4", "y5"]
    assert np.array_equal(a.values, b.values)
    c = generate_synthetic(SyntheticSpec(length=300, seed=100))
    assert not np.array_equal(a.values, c.values)


def test_generator_rejects_a_psi_whose_filter_overflows_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="filter overflows the series"):
            generate_synthetic(SyntheticSpec(length=50, psi=np.full((2, 2), 1e308)))


def test_generator_moments_close_to_analytic():
    series = generate_synthetic(SyntheticSpec(length=200000, seed=5))
    psi = default_psi()
    target_var = 1.0 + np.sum(psi**2, axis=1)
    sample_var = series.values.var(axis=0)
    np.testing.assert_allclose(sample_var, target_var, rtol=0.05)
    assert np.max(np.abs(series.values.mean(axis=0))) < 0.03


def test_generator_block_independence():
    series = generate_synthetic(SyntheticSpec(length=200000, seed=6))
    v = series.values - series.values.mean(axis=0)
    # lag-1 cross covariance between the two independent blocks
    cov_14 = np.mean(v[1:, 0] * v[:-1, 3])
    cov_41 = np.mean(v[1:, 3] * v[:-1, 0])
    assert abs(cov_14) < 0.05
    assert abs(cov_41) < 0.05


def test_custom_psi_dimension():
    psi = np.array([[0.5, 0.2], [0.0, -0.3]])
    series = generate_synthetic(SyntheticSpec(length=50, seed=1, psi=psi))
    assert series.values.shape == (50, 2)


def test_grid_endpoints_formula():
    grid = GridSpec()
    scale = np.sqrt(1000.0) * 30
    lams = grid.values(scale)
    assert lams[0] == pytest.approx(0.94868, rel=1e-4)
    assert lams[-1] == pytest.approx(9.4868e6, rel=1e-4)
    assert len(lams) == 15
    assert scale_count("nvarl1", 5) == 30
    assert scale_count("nvarl12", 5) == 5
    assert scale_count("nvar", 5) == 6


def test_grid_single_value_skips_cv():
    rng = np.random.default_rng(0)
    series = MultivariateSeries(rng.standard_normal((40, 2)), ["a", "b"])
    train = lag_embed(series, 2)
    grid = GridSpec(count=1, low_exp=0.5)
    lam, curve = cv_select(train, "lvarl2", grid, folds=5)
    assert lam == pytest.approx(10.0**0.5 * np.sqrt(train.n_pairs) * scale_count("lvarl2", 2))
    assert np.isnan(curve).all()


def test_one_point_grid_is_the_low_end_of_the_one_formula():
    # one formula serves every count: a one-point grid is the first value of
    # any longer grid from the same low_exp, whatever its high_exp. numpy's
    # array power may round 10**e one ulp away from Python's scalar pow
    # (9.999999999999999e-06 at e = -5), so 10**e * s holds bit for bit only
    # where the two agree
    exact = (-3.0, -2.5, 0.0, 0.5, 1.0, 4.0)
    for e in exact + (-17.0, -5.0):
        for s in (1.0, 7.3, math.sqrt(297) * 30):
            expected = np.array([10.0**e * s])
            longer = GridSpec(count=2, low_exp=e, high_exp=e + 1.0).values(s)[:1]
            for h in (e - 1.0, e, e + 1.0):
                one = GridSpec(count=1, low_exp=e, high_exp=h).values(s)
                assert one.tobytes() == longer.tobytes()
                np.testing.assert_array_max_ulp(one, expected, maxulp=1)
                if e in exact:
                    assert one.tobytes() == expected.tobytes()


def test_cv_prefers_heavy_shrinkage_on_pure_noise():
    rng = np.random.default_rng(42)
    series = MultivariateSeries(rng.standard_normal((240, 2)), ["a", "b"])
    train = lag_embed(series, 3)
    grid = GridSpec(count=9)
    lam, curve = cv_select(train, "lvarl2", grid, folds=5)
    lams = grid.values(np.sqrt(train.n_pairs) * scale_count("lvarl2", 2))
    assert list(lams).index(lam) >= 4  # upper half of the 9-point grid
    assert len(curve) == 9


def test_cv_ties_break_towards_larger_lambda():
    rng = np.random.default_rng(1)
    series = MultivariateSeries(rng.standard_normal((60, 2)), ["a", "b"])
    train = lag_embed(series, 2)
    # mean engine: identical MSE at every grid point -> pick the largest
    grid = GridSpec(count=5)
    lam, curve = cv_select(train, "mean", grid, folds=3)
    lams = grid.values(np.sqrt(train.n_pairs) * scale_count("mean", 2))
    assert lam == pytest.approx(lams[-1])
    assert np.allclose(curve, curve[0])


def test_cv_fold_noise_counts_as_tie():
    # strong AR signal: the curve has a clear interior minimum, and the
    # selected value sits at or above it (never below), within fold noise
    rng = np.random.default_rng(21)
    e = rng.standard_normal((300, 1))
    x = np.zeros((300, 1))
    for t in range(1, 300):
        x[t] = 0.85 * x[t - 1] + e[t]
    series = MultivariateSeries(x, ["a"])
    train = lag_embed(series, 3)
    grid = GridSpec(count=9)
    lam, curve = cv_select(train, "lvarl2", grid, folds=5)
    lams = grid.values(np.sqrt(train.n_pairs) * scale_count("lvarl2", 1))
    chosen = int(np.argmin(np.abs(lams - lam)))
    assert chosen >= int(np.argmin(curve))
    assert curve[chosen] <= curve.min() * 1.25


def test_cv_rejects_too_few_rows():
    rng = np.random.default_rng(2)
    series = MultivariateSeries(rng.standard_normal((9, 1)), ["a"])
    train = lag_embed(series, 2)  # 7 pairs
    with pytest.raises(FoldTooSmallError):
        cv_select(train, "lvarl2", GridSpec(count=3), folds=5)
    with pytest.raises(FoldTooSmallError):
        cv_select(train, "lvarl2", GridSpec(count=3), folds=1)


def test_cv_warm_start_equivalence_on_l1_path():
    # the CV path's second grid point starts from the first's weights and
    # reaches the cold final fit's forecasts
    rng = np.random.default_rng(3)
    series = MultivariateSeries(rng.standard_normal((70, 2)), ["a", "b"])
    train = lag_embed(series, 3)
    X_val = rng.standard_normal((10, train.inputs.shape[1]))
    opts = SolverOptions(max_iter=50000, rel_tol=1e-11)
    _, warm = _kernel_path("nvarl1", train, X_val, [5.0, 1.0], DEFAULT_DICTIONARY, opts)
    cold = predict(fit("nvarl1", train, 1.0, opts), X_val)
    np.testing.assert_allclose(warm, cold, rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("method", ["nvarl1", "nvar", "nvarl12", "lvarl1"])
def test_cv_path_matches_the_final_fit(method):
    # at one penalty from a cold start the CV path's validation forecasts
    # are those of the final fit and its predict, up to rounding: the two
    # nvarl1 call sites of the stacked solver must not drift apart
    series = generate_synthetic(SyntheticSpec(length=100, seed=23))
    _, train, val = split_experiment_data(series, train=70, holdout=30, lag=3)
    options = SolverOptions(max_iter=300, rel_tol=1e-6)
    if method == "lvarl1":
        path = _baseline_path(method, train, val.inputs, [2.0], options)
        model = baselines.fit_baseline(method, train, 2.0, options)
        assert model.coef.any()
        expected = baselines.predict_baseline(model, val.inputs)
    else:
        path = _kernel_path(method, train, val.inputs, [2.0], DEFAULT_DICTIONARY, options)
        model = fit(method, train, 2.0, options)
        assert model.A.any()
        expected = predict(model, val.inputs)
    np.testing.assert_allclose(next(path), expected, rtol=1e-9, atol=1e-9)


def test_lvarl1_cv_builds_one_design_per_fold(monkeypatch):
    # lvarl1_path builds its fold's design once for the whole grid
    built = []
    read = grouplasso.GroupedProblem.__post_init__

    def counting(problem):
        built.append(1)
        read(problem)

    monkeypatch.setattr(grouplasso.GroupedProblem, "__post_init__", counting)
    series = generate_synthetic(SyntheticSpec(length=100, seed=23))
    _, train, _ = split_experiment_data(series, train=70, holdout=30, lag=3)
    cv_select(train, "lvarl1", GridSpec(count=4), folds=2)
    assert len(built) == 2


def test_l1_route_makes_no_coefficient_solve(monkeypatch):
    # nvarl1 and nvar read c off the group-lasso residual, in CV and in the
    # final fit; only nvarl12 solves the linear system, once per task
    calls = []

    def counting(*args, _solve=solver.solve_coefficients, **kwargs):
        calls.append(1)
        return _solve(*args, **kwargs)

    monkeypatch.setattr(solver, "solve_coefficients", counting)
    series = generate_synthetic(SyntheticSpec(length=100, seed=23))
    _, train, val = split_experiment_data(series, train=70, holdout=30, lag=3)
    for method in ("nvarl1", "nvar"):
        assert fit(method, train, 2.0).A.any()
        for _ in _kernel_path(method, train, val.inputs, [20.0, 2.0], DEFAULT_DICTIONARY,
                              SolverOptions()):
            pass
    assert calls == []
    fit("nvarl12", train, 2.0)
    assert len(calls) == train.n_series


@pytest.mark.parametrize("method", ["nvarl1", "nvar"])
def test_l1_route_builds_one_partition_of_grams_at_a_time(monkeypatch, method):
    # each partition's Grams are factored and dropped before the next are
    # built, so the l1 route never holds the whole stack, in CV or the fit
    built = []

    def recording(*args, _build=kernels.build_gram_stack, **kwargs):
        stack = _build(*args, **kwargs)
        built.append([spec.partition for spec in stack.specs])
        return stack

    for module in (solver, harness):
        monkeypatch.setattr(module, "build_gram_stack", recording)
    series = generate_synthetic(SyntheticSpec(length=100, seed=23))
    _, train, val = split_experiment_data(series, train=70, holdout=30, lag=3)
    fit(method, train, 2.0)
    for _ in _kernel_path(method, train, val.inputs, [20.0, 2.0], DEFAULT_DICTIONARY,
                          SolverOptions()):
        pass
    parts = [None] if method == "nvar" else range(train.n_series)
    assert built == 2 * [[part] * len(DEFAULT_DICTIONARY) for part in parts]


@pytest.mark.parametrize("method", ["nvarl1", "nvar", "nvarl12"])
def test_empty_dictionary_is_rejected_where_kernels_are_built(method):
    series = generate_synthetic(SyntheticSpec(length=100, seed=23))
    _, train, _ = split_experiment_data(series, train=70, holdout=30, lag=3)
    with pytest.raises(ConfigError, match="at least one kernel"):
        fit(method, train, 1.0, dictionary=())
    with pytest.raises(ConfigError, match="at least one kernel"):
        cv_select(train, method, dictionary=())
    # a one-point grid returns before any kernel is built
    with pytest.raises(ConfigError, match="at least one kernel"):
        cv_select(train, method, GridSpec(count=1), dictionary=())


def test_cv_fold_solves_converge_within_the_cv_budget(monkeypatch):
    # the first of 3 folds of the cv-l1 benchmark series (train 300, seed 20,
    # 8-point grid): a CV curve must rank optima, not budget-stopped iterates
    series = generate_synthetic(SyntheticSpec(length=1800, seed=20))
    _, train, _ = split_experiment_data(series, train=300, holdout=1500, lag=5)
    n = train.n_pairs
    val_rows = np.array_split(np.arange(n), 3)[0]
    sub = train.subset(np.setdiff1d(np.arange(n), val_rows))
    grid = GridSpec(count=8, low_exp=-3.5, high_exp=3.5)
    lams = grid.values(math.sqrt(n) * scale_count("nvarl1", train.n_series))[::-1]
    flags = []
    solve = harness._solve_stacked

    def recording(*args, **kwargs):
        result = solve(*args, **kwargs)
        flags.append(result[3])
        return result

    monkeypatch.setattr(harness, "_solve_stacked", recording)
    for _ in _kernel_path("nvarl1", sub, train.inputs[val_rows], [float(lam) for lam in lams],
                          DEFAULT_DICTIONARY, SolverOptions()):
        pass
    assert len(flags) == 40
    assert all(flags), f"{flags.count(False)} of 40 solves unconverged"


def test_small_train_cv_solves_converge_within_the_cv_budget(monkeypatch):
    # the cv-l1 experiment at train 100, where the smallest-penalty lvarl1
    # and nvarl1 CV solves are hardest: none may stop on the sweep budget
    flags = []
    for module in (harness, grouplasso):
        def recording(*args, _solve=module._solve_stacked, **kwargs):
            result = _solve(*args, **kwargs)
            flags.append(result[3])
            return result

        monkeypatch.setattr(module, "_solve_stacked", recording)
    config = ExperimentConfig(
        train=100, holdout=50, synthetic=SyntheticSpec(length=150, seed=20),
        methods=("mean", "lvarl2", "lvarl1", "nvarl1"),
        grid=GridSpec(count=8, low_exp=-3.5, high_exp=3.5), folds=3,
    )
    report = run_experiment(config)
    assert all(entry["status"] == "ok" for entry in report["methods"].values())
    # lvarl1 and nvarl1: 3 folds x 8 penalties x 5 outputs, and 5 final tasks
    assert len(flags) == 2 * (3 * 8 * 5 + 5)
    assert all(flags), f"{flags.count(False)} of {len(flags)} solves unconverged"


def test_cv_runs_at_one_budget_from_the_library_and_from_a_config(monkeypatch):
    # cv_select called as the README does and select_lambda on a config
    # without a solver key must hand the CV solves the same options
    synthetic = SyntheticSpec(length=100, seed=23)
    _, train, _ = split_experiment_data(generate_synthetic(synthetic), train=70, holdout=30,
                                        lag=3)
    grid = GridSpec(count=2, low_exp=0.0, high_exp=1.0)
    budgets = []
    solve = harness._solve_stacked

    def recording(*args):
        budgets[-1].append(args[5])  # _solve_stacked(B, starts, sizes, y, kappa, opts, ...)
        return solve(*args)

    monkeypatch.setattr(harness, "_solve_stacked", recording)
    budgets.append([])
    cv_select(train, "nvarl1", grid, 2)
    budgets.append([])
    config = ExperimentConfig(train=70, holdout=30, lag=3, methods=("nvarl1",),
                              synthetic=synthetic, grid=grid, folds=2)
    select_lambda(config, "nvarl1", train)
    library, from_config = budgets
    assert library and from_config
    assert all(opts == from_config[0] for opts in library + from_config)


def test_one_frozen_default_budget():
    with pytest.raises(dataclasses.FrozenInstanceError):
        SolverOptions().max_iter = 1
    defaults = {
        grouplasso.solve_group_lasso: "opts",
        solver.solve_task_l1: "opts",
        solver.solve_task_l12: "opts",
        solver.fit: "options",
        baselines.fit_baseline: "options",
        cv_select: "options",
        ExperimentConfig: "options",
    }
    for entry, name in defaults.items():
        assert inspect.signature(entry).parameters[name].default == SolverOptions(), entry
    assert inspect.signature(_kernel_path).parameters["options"].default is inspect.Parameter.empty
    doc = {"train": 50, "data": {"synthetic": {"seed": 1}}}
    assert experiment_config_from_dict(doc).options == SolverOptions()


def test_each_fit_majorizes_its_design_once(monkeypatch):
    # the m output tasks of one fit share the stacked design and its
    # majorizer, built when the design is
    calls = []
    majorize = grouplasso.block_majorizer

    def counting(*args):
        calls.append(1)
        return majorize(*args)

    monkeypatch.setattr(grouplasso, "block_majorizer", counting)
    series = generate_synthetic(SyntheticSpec(length=100, seed=23))
    _, train, _ = split_experiment_data(series, train=70, holdout=30, lag=3)
    fits = {"nvarl1": lambda: fit("nvarl1", train, 2.0), "nvar": lambda: fit("nvar", train, 2.0),
            "lvarl1": lambda: baselines.fit_baseline("lvarl1", train, 2.0)}
    for method, fit_once in fits.items():
        calls.clear()
        fit_once()
        assert len(calls) == 1, method


def test_evaluate_perfect_predictions():
    rng = np.random.default_rng(4)
    series = MultivariateSeries(rng.standard_normal((30, 2)), ["a", "b"])
    holdout = lag_embed(series, 2)
    mse, mse_std = evaluate_holdout(lambda X: holdout.outputs.copy(), holdout)
    assert mse == 0.0
    assert mse_std == 0.0


def test_evaluate_zero_predictor_measures_variance():
    rng = np.random.default_rng(5)
    series = MultivariateSeries(rng.standard_normal((400, 3)), ["a", "b", "c"])
    holdout = lag_embed(series, 2)
    mse, _ = evaluate_holdout(lambda X: np.zeros((X.shape[0], 3)), holdout)
    direct = np.mean(np.sum(holdout.outputs**2, axis=1) / 3.0)
    assert mse == pytest.approx(direct, rel=1e-12)
    assert mse == pytest.approx(1.0, abs=0.15)


def test_evaluate_rejects_bad_shapes():
    rng = np.random.default_rng(6)
    series = MultivariateSeries(rng.standard_normal((30, 2)), ["a", "b"])
    holdout = lag_embed(series, 2)
    with pytest.raises(DimensionMismatchError):
        evaluate_holdout(lambda X: np.zeros((X.shape[0], 3)), holdout)


def test_split_sizes_and_alignment():
    series = generate_synthetic(SyntheticSpec(length=160, seed=7))
    stats, train_set, holdout_set = split_experiment_data(series, 100, 60, 5)
    assert train_set.n_pairs == 95
    assert holdout_set.n_pairs == 60
    # hold-out outputs are the raw rows after the training window, standardized
    expected = (series.values[100:160] - stats.mean) / stats.std
    np.testing.assert_allclose(holdout_set.outputs, expected, atol=1e-12)


def test_split_never_touches_holdout_rows():
    series = generate_synthetic(SyntheticSpec(length=160, seed=8))
    stats1, train1, _ = split_experiment_data(series, 100, 60, 5)
    tampered = MultivariateSeries(series.values.copy(), list(series.names))
    tampered.values[100:] = 1e6 * np.arange(60 * 5).reshape(60, 5)
    stats2, train2, _ = split_experiment_data(tampered, 100, 60, 5)
    assert np.array_equal(stats1.mean, stats2.mean)
    assert np.array_equal(stats1.std, stats2.std)
    assert np.array_equal(train1.inputs, train2.inputs)
    assert np.array_equal(train1.outputs, train2.outputs)


def test_config_rejects_unknown_method_before_any_computation():
    with pytest.raises(ConfigError, match="unknown methods"):
        ExperimentConfig(
            train=100,
            methods=("nvarl1", "prophet"),
            synthetic=SyntheticSpec(length=200, seed=1),
        )


def test_config_requires_exactly_one_data_source():
    with pytest.raises(ConfigError):
        ExperimentConfig(train=100, methods=("mean",))


def test_config_from_dict_round_trip():
    doc = {
        "data": {"synthetic": {"length": 160, "seed": 3}},
        "train": 100,
        "holdout": 40,
        "lag": 3,
        "methods": ["mean", "lvarl2"],
        "grid": {"count": 4, "low_exp": -2, "high_exp": 2},
        "folds": 3,
        "kernels": [["linear", None], ["gaussian", 1.0]],
        "solver": {"max_iter": 500, "rel_tol": 1e-6},
    }
    cfg = experiment_config_from_dict(doc)
    assert cfg.train == 100 and cfg.holdout == 40 and cfg.lag == 3
    assert cfg.methods == ("mean", "lvarl2")
    assert cfg.grid.count == 4
    assert cfg.dictionary == (("linear", None), ("gaussian", 1.0))
    assert cfg.options.max_iter == 500


def _small_config(tmp_path=None, methods=("mean", "lar", "lvarl2", "lvarl1")):
    return ExperimentConfig(
        train=120,
        holdout=40,
        lag=3,
        methods=methods,
        synthetic=SyntheticSpec(length=160, seed=11),
        grid=GridSpec(count=4, low_exp=-2.0, high_exp=2.0),
        folds=3,
        out_dir=None if tmp_path is None else str(tmp_path),
    )


def test_run_experiment_smoke_and_artifacts(tmp_path):
    report = run_experiment(_small_config(tmp_path))
    for method in ("mean", "lar", "lvarl2", "lvarl1"):
        entry = report["methods"][method]
        assert entry["status"] == "ok"
        assert entry["mse"] > 0.0
    assert "adjacency" in report["methods"]["lvarl1"]
    saved = json.loads((tmp_path / "report.json").read_text())
    assert saved["methods"]["mean"]["mse"] == report["methods"]["mean"]["mse"]
    table = (tmp_path / "mse_table.csv").read_text().strip().splitlines()
    assert table[0] == "method,mse,mse_std,lambda,status"
    assert len(table) == 5
    adj = (tmp_path / "adjacency_lvarl1.csv").read_text().strip().splitlines()
    assert adj[0] == "y1,y2,y3,y4,y5"
    assert len(adj) == 6


def test_single_point_grid_report_is_strict_json(tmp_path):
    # a one-point grid runs no CV, so the report carries no CV curve (a NaN
    # there would make report.json invalid JSON)
    config = _small_config(tmp_path, methods=("mean", "lvarl2", "lvarl1"))
    run_experiment(dataclasses.replace(config, grid=GridSpec(count=1, low_exp=0.0)))

    def reject(constant):
        raise ValueError(f"report.json holds {constant}")

    saved = json.loads((tmp_path / "report.json").read_text(), parse_constant=reject)
    for entry in saved["methods"].values():
        assert entry["status"] == "ok"
        assert entry["cv_curve"] is None


def test_run_experiment_deterministic():
    r1 = run_experiment(_small_config(methods=("mean", "lvarl2")))
    r2 = run_experiment(_small_config(methods=("mean", "lvarl2")))
    for method in ("mean", "lvarl2"):
        assert r1["methods"][method]["mse"] == r2["methods"][method]["mse"]
        assert r1["methods"][method]["lam"] == r2["methods"][method]["lam"]


def test_cv_select_kernel_methods_small_scale():
    rng = np.random.default_rng(14)
    series = MultivariateSeries(rng.standard_normal((90, 2)), ["a", "b"])
    train = lag_embed(series, 3)
    grid = GridSpec(count=3, low_exp=-1.0, high_exp=2.0)
    for method in ("nvarl1", "nvar", "nvarl12"):
        lam, curve = cv_select(train, method, grid, folds=3,
                               options=SolverOptions(max_iter=300, rel_tol=1e-6))
        assert lam > 0.0
        assert len(curve) == 3
        assert np.all(np.isfinite(curve))


def test_run_experiment_kernel_methods_small_scale():
    config = ExperimentConfig(
        train=80,
        holdout=20,
        lag=3,
        methods=("nvar", "nvarl1", "nvarl12"),
        synthetic=SyntheticSpec(length=100, seed=17),
        grid=GridSpec(count=3, low_exp=-1.0, high_exp=2.0),
        folds=2,
        options=SolverOptions(max_iter=300, rel_tol=1e-6),
    )
    report = run_experiment(config)
    for method in config.methods:
        assert report["methods"][method]["status"] == "ok"
    assert "adjacency" in report["methods"]["nvarl1"]
    assert "adjacency" in report["methods"]["nvarl12"]
    assert "adjacency" not in report["methods"]["nvar"]


def test_grid_spec_validation():
    with pytest.raises(ConfigError):
        GridSpec(count=0)
    with pytest.raises(ConfigError):
        GridSpec(count=3, low_exp=2.0, high_exp=-1.0)


_GOOD_DOC = {"data": {"synthetic": {"length": 160, "seed": 3}}, "train": 100, "holdout": 40,
             "lag": 3, "methods": ["mean", "nvarl1"]}


_BAD_VALUES = [(change, None) for change in [
    {"train": 100.9},
    {"lag": 3.7},
    {"folds": 2.9},
    {"holdout": 40.5},
    {"holdout": "40"},
    {"data": {"synthetic": {"length": 160.5}}},
    {"data": {"synthetic": {"seed": 3.5}}},
    {"grid": {"count": 2.5}},
    {"grid": {"count": 3, "scale": 2.0}},  # the scale follows from the data
    {"grid": {"count": 3, "low_exp": float("nan")}},
    {"solver": {"rel_tol": float("nan")}},
    {"solver": {"max_iter": 2.5}},
    {"lambda": float("nan")},
    {"lambda": float("inf")},
    {"lambda": -1.0},
    {"lambda": 0.0},  # a kernel method is listed
    {"feature_tol": -1.0},
    {"feature_tol": 0.0},
    {"feature_tol": 1.0},
    {"methods": "mean"},  # a string, not a list of names
]] + [
    # a key nothing reads is an error that names it, not a silent default
    ({"lamda": 1.0}, "'lamda'"),
    ({"fold": 3}, "'fold'"),
    ({"kernel": [["linear", None]]}, "'kernel'"),
    ({"data": {"synthetic": {"length": 160, "sed": 3}}}, "'sed'"),
    ({"data": {"csv": "x.csv", "header": True}}, "'header'"),
    ({"feature_tol": 1e-4}, "'feature_tol'"),  # retired: the cut-off is RANK_TOL
    ({"kernels": []}, "kernels"),
    # cv_select's rule: at least 2 folds, and 2 rows per fold of the 97 pairs
    ({"folds": 1}, "folds"),
    ({"folds": 49}, "97 training pairs cannot make 49 usable folds"),
    # untyped paths and flags: a list reached open(), 5 opened a file
    # descriptor and "no" saved the models
    ({"out_dir": 5}, "out_dir must be a path string"),
    ({"data": {"csv": ["a"]}}, "data csv must be a path string"),
    ({"data": {"csv": 5}}, "data csv must be a path string"),
    ({"save_models": "no"}, "save_models must be true or false"),
    ({"save_models": 1}, "save_models must be true or false"),
    # float() reads a JSON true as 1.0
    ({"data": {"synthetic": {"length": 160, "psi": [[1, True], [0, 1]]}}}, "psi must hold numbers"),
    # a solver that is not an object was read as the default budget, or as pairs
    ({"solver": []}, "solver must be a JSON object"),
    ({"solver": 0}, "solver must be a JSON object"),
    ({"solver": False}, "solver must be a JSON object"),
    ({"solver": [["max_iter", 5]]}, "solver must be a JSON object"),
    # int(inf) raised an OverflowError past the reader
    ({"kernels": [["polynomial", float("inf")]]}, "kernel parameter"),
    ({"kernels": [["gaussian", 1e-200]]}, "gaussian width"),  # 1e-200 ** 2 is 0
    ({"kernels": [["linear", 3]]}, "linear kernel takes no parameter"),  # was dropped
    ({"lag": 0}, "lag must be at least 1"),
    ({"data": {"synthetic": {"seed": -1}}}, "seed must be at least 0"),  # numpy refuses it
    # an empty list wrote an empty report, and a repeated method was fitted twice
    ({"methods": []}, "methods must name one or more methods"),
    ({"methods": ["mean", "nvarl1", "mean"]}, "each once"),
]


@pytest.mark.parametrize("change, names", _BAD_VALUES,
                         ids=[f"change{i}" for i in range(len(_BAD_VALUES))])
def test_config_rejects_bad_values(change, names):
    with pytest.raises(ConfigError, match=names):
        experiment_config_from_dict({**_GOOD_DOC, **change})


def test_library_construction_reads_values_as_the_config_does():
    synthetic = SyntheticSpec(length=160, seed=3)
    for change in ({"train": 100.5}, {"lag": 0}, {"lag": 2.5}, {"folds": True},
                   {"lam": float("nan")}, {"dictionary": ()}):
        with pytest.raises(NlvarError):
            ExperimentConfig(**{"train": 100, "holdout": 40, "synthetic": synthetic, **change})
    with pytest.raises(ConfigError, match="linear kernel takes no parameter"):
        ExperimentConfig(train=100, holdout=40, synthetic=synthetic, dictionary=(("linear", 1.0),))
    for options in ({"max_iter": 2.5}, {"max_iter": True}, {"rel_tol": float("inf")}):
        with pytest.raises(ConfigError):
            SolverOptions(**options)
    with pytest.raises(ConfigError, match="kernel parameter"):
        KernelSpec("polynomial", float("inf"))
    config = ExperimentConfig(train=100.0, holdout=40, synthetic=synthetic, lam=1,
                              dictionary=[["polynomial", 2.0], ["gaussian", 1]])
    assert (config.train, config.lam) == (100, 1.0) and isinstance(config.train, int)
    assert config.dictionary == (("polynomial", 2), ("gaussian", 1.0))
    assert SolverOptions(max_iter=5.0) == SolverOptions(max_iter=5)


def test_library_construction_raises_config_error_on_a_value_out_of_range():
    # a library caller catching NlvarError sees every one of these
    rng = np.random.default_rng(4)
    train = lag_embed(MultivariateSeries(rng.standard_normal((30, 2)), ["a", "b"]), 2)
    grams = build_gram_stack(train.inputs, train.partition_map)
    y = train.outputs[:, 0]
    problem = grouplasso.GroupedProblem([train.inputs], y, 0.0)
    series = MultivariateSeries(rng.standard_normal((5, 2)), ["a", "b"])
    for call in (lambda: SolverOptions(max_iter=0),
                 lambda: SolverOptions(rel_tol=0.0),
                 lambda: KernelSpec("linear", 1.0),
                 lambda: KernelSpec("polynomial", 1),
                 lambda: KernelSpec("gaussian", 0.0),
                 lambda: KernelSpec("cubic"),
                 lambda: KernelSpec("linear", norm_factor=0.0),
                 lambda: grouplasso.GroupedProblem([train.inputs], y, -1.0),
                 lambda: problem.with_target(y, -1.0),
                 lambda: baselines.fit_baseline("lvarl2", train, -1.0),
                 lambda: solver.solve_coefficients(grams, np.ones(12), y, 0.0),
                 lambda: solve_task_l1(build_feature_stack(grams), grams, y, 0.0),
                 lambda: solver.solve_task_l12(grams, grams.group_index, y, 0.0),
                 lambda: standardize_apply(series, standardize_fit(series, 5), "up")):
        with pytest.raises(ConfigError):
            call()


@pytest.mark.parametrize("method", ["nvarl1", "nvarl12", "nvar", "lvarl1"])
@pytest.mark.parametrize("lam", [1e-300, 1e-200])
def test_a_tiny_fixed_lambda_ends_typed_or_finite_without_a_warning(method, lam):
    # numpy's overflow warnings escaped the solvers and the hold-out score,
    # and nvarl1 and nvar read ok with a hold-out MSE of 2.7e172
    config = dataclasses.replace(_small_config(methods=(method,)), lam=lam)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        entry = run_experiment(config)["methods"][method]
    if entry["status"] == "ok":
        assert math.isfinite(entry["mse"]) and math.isfinite(entry["mse_std"])
    else:
        assert issubclass(getattr(errors, entry["error"].split(":")[0]), NlvarError), entry


@pytest.mark.parametrize("method", ["nvarl1", "nvar"])
def test_cv_scores_that_overflow_raise_bad_data_error(method):
    # the validation forecasts reach ~1e86 on this grid: numpy's overflow
    # warning escaped the fold scoring, and the curve and noise were not finite
    series = generate_synthetic(SyntheticSpec(length=160, seed=11))
    _, train, _ = split_experiment_data(series, train=120, holdout=40, lag=3)
    grid = GridSpec(count=2, low_exp=-200, high_exp=-199)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadDataError, match="validation errors overflow"):
            cv_select(train, method, grid, folds=3)


def test_lvarl1_fits_at_a_tiny_fixed_lambda():
    # the group step's cold Newton start overflowed t = b / (kappa/2), and
    # lvarl1 failed at sweep 1 where the problem is near least squares
    def mse(lam):
        config = dataclasses.replace(_small_config(methods=("lvarl1",)), lag=5, lam=lam)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            entry = run_experiment(config)["methods"]["lvarl1"]
        assert entry["status"] == "ok", entry
        return entry["mse"]

    ref = mse(1e-100)
    for lam in (1e-150, 1e-200):
        assert abs(mse(lam) - ref) <= 0.01 * ref


def test_configs_are_frozen_and_replace_checks_again():
    # an assigned lag skipped every check and ended in a TypeError inside
    # run_experiment
    config = _small_config(methods=("mean",))
    for obj, name, value in ((config, "lag", 2.5), (config.synthetic, "seed", -1),
                             (config.grid, "count", 0)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, value)
    with pytest.raises(ConfigError, match="lag must be a whole number"):
        dataclasses.replace(config, lag=2.5)
    with pytest.raises(ConfigError, match="synthetic seed must be at least 0"):
        dataclasses.replace(config.synthetic, seed=-1)
    assert dataclasses.replace(config, lag=2.0).lag == 2
    assert ExperimentConfig(train=120, synthetic=config.synthetic).grid == GridSpec()


def test_config_accepts_integral_floats_and_zero_lambda_for_baselines():
    cfg = experiment_config_from_dict({**_GOOD_DOC, "train": 100.0, "methods": ["mean", "lvarl2"],
                                       "lambda": 0.0})
    assert cfg.train == 100 and isinstance(cfg.train, int)
    assert cfg.lam == 0.0


def test_config_checks_the_fold_count_only_where_a_run_cross_validates():
    assert experiment_config_from_dict({**_GOOD_DOC, "folds": 48}).folds == 48
    for change in ({"methods": ["mean"]}, {"lambda": 1.0}, {"grid": {"count": 1}}):
        assert experiment_config_from_dict({**_GOOD_DOC, "folds": 100, **change}).folds == 100


def test_run_experiment_records_failures_and_continues(tmp_path):
    config = _small_config(tmp_path, methods=("mean", "lvarl2"))
    with pytest.raises(BadRangeError):  # needs 170 rows, series has 160
        run_experiment(dataclasses.replace(config, train=130, holdout=40))
    # a per-method failure: a kernel whose Gram overflows stops both kernel
    # methods, while the mean predictor needs no kernels
    config = dataclasses.replace(_small_config(tmp_path, methods=("mean", "nvarl1", "nvar")),
                                 dictionary=(("polynomial", 1000000000), ("linear", None)))
    report = run_experiment(config)
    assert report["methods"]["mean"]["status"] == "ok"
    for method in ("nvarl1", "nvar"):
        entry = report["methods"][method]
        assert entry["status"] == "failed"
        assert entry["error"].startswith("DegenerateKernelError: ")
    assert "nvarl1,,,,failed" in (tmp_path / "mse_table.csv").read_text().splitlines()


def test_run_experiment_lets_programming_errors_propagate(monkeypatch):
    # only typed nlvar and linear-algebra failures become "failed" rows; a
    # bug surfaces as itself
    def broken(*args, **kwargs):
        raise TypeError("a bug in a fit")

    monkeypatch.setattr(baselines, "fit_baseline", broken)
    config = dataclasses.replace(_small_config(methods=("mean", "lvarl2")), lam=1.0)
    with pytest.raises(TypeError, match="a bug in a fit"):
        run_experiment(config)
