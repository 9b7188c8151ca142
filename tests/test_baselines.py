import numpy as np
import pytest

from nlvar.baselines import (
    BaselineFit,
    baseline_adjacency,
    fit_baseline,
    lvarl1_path,
    predict_baseline,
)
from nlvar.errors import ConfigError, DimensionMismatchError, UnsupportedKindError
from nlvar.grouplasso import SolverOptions
from nlvar.series import MultivariateSeries, lag_embed, standardize_fit
from nlvar.solver import fit, predict


def _train(rng, n_total=80, m=3, p=4):
    series = MultivariateSeries(
        values=rng.standard_normal((n_total, m)), names=[f"s{j}" for j in range(m)]
    )
    return lag_embed(series, p)


def test_mean_predicts_zero():
    rng = np.random.default_rng(0)
    train = _train(rng)
    model = fit_baseline("mean", train)
    preds = predict_baseline(model, train.inputs)
    np.testing.assert_array_equal(preds, 0.0)


def test_lvarl2_at_zero_lambda_is_ols():
    rng = np.random.default_rng(1)
    train = _train(rng)
    model = fit_baseline("lvarl2", train, 0.0)
    resid = train.outputs - train.inputs @ model.coef
    assert np.max(np.abs(train.inputs.T @ resid)) < 1e-8


def test_lar_uses_own_lags_only():
    rng = np.random.default_rng(2)
    train = _train(rng)
    model = fit_baseline("lar", train, 0.1)
    for j, cols in enumerate(train.partition_map):
        others = [c for c in range(train.inputs.shape[1]) if c not in cols]
        np.testing.assert_array_equal(model.coef[others, j], 0.0)


def test_lar_random_walk_coefficients_predict_last_value():
    rng = np.random.default_rng(3)
    train = _train(rng, m=2, p=3)
    model = fit_baseline("lar", train, 0.0)
    coef = np.zeros_like(model.coef)
    for j, cols in enumerate(train.partition_map):
        coef[cols[0], j] = 1.0  # weight 1 on the most recent own value
    model = BaselineFit(method="lar", lag=3, coef=coef)
    preds = predict_baseline(model, train.inputs)
    last = np.column_stack([train.inputs[:, cols[0]] for cols in train.partition_map])
    np.testing.assert_array_equal(preds, last)


def test_lvarl2_predictions_match_direct_multiply():
    rng = np.random.default_rng(4)
    train = _train(rng)
    model = fit_baseline("lvarl2", train, 0.7)
    X_new = rng.standard_normal((6, train.inputs.shape[1]))
    np.testing.assert_array_equal(predict_baseline(model, X_new), X_new @ model.coef)


def test_ridge_shrinkage_monotone_in_lambda():
    rng = np.random.default_rng(5)
    train = _train(rng)
    norms = []
    for lam in [0.0, 0.5, 5.0, 50.0, 500.0]:
        model = fit_baseline("lvarl2", train, lam)
        norms.append(np.linalg.norm(model.coef))
    assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))


def test_lar_equals_lvarl2_for_univariate_series():
    rng = np.random.default_rng(6)
    train = _train(rng, m=1, p=5)
    lar = fit_baseline("lar", train, 0.3)
    ridge = fit_baseline("lvarl2", train, 0.3)
    np.testing.assert_allclose(lar.coef, ridge.coef, atol=1e-10)


def test_lvarl1_groups_all_zero_or_all_active():
    rng = np.random.default_rng(7)
    train = _train(rng)
    model = fit_baseline("lvarl1", train, 30.0, options=SolverOptions(max_iter=20000, rel_tol=1e-10))
    saw_zero_group = False
    for s in range(train.n_series):
        for cols in train.partition_map:
            block = model.coef[cols, s]
            if np.all(block == 0.0):
                saw_zero_group = True
            else:
                assert np.all(block != 0.0)
    assert saw_zero_group  # penalty chosen high enough to switch groups off


def test_nvar_full_univariate_matches_nvarl1_bitwise():
    # the unpartitioned kernel model (kind "nvar"; "nvar_full" in v1 files)
    # sees the one partition nvarl1 sees on a univariate series
    rng = np.random.default_rng(8)
    train = _train(rng, n_total=50, m=1, p=5)
    full = fit("nvar", train, 1.2)
    main = fit("nvarl1", train, 1.2)
    assert np.array_equal(full.A, main.A)
    assert np.array_equal(full.C, main.C)
    X_new = rng.standard_normal((4, 5))
    np.testing.assert_array_equal(predict(full, X_new), predict(main, X_new))


def test_lvarl1_warm_start_reaches_the_cold_solution():
    rng = np.random.default_rng(11)
    train = _train(rng)
    opts = SolverOptions(max_iter=20000, rel_tol=1e-10)
    cold = fit_baseline("lvarl1", train, 5.0, options=opts)
    first, warm = lvarl1_path(train, [20.0, 5.0], opts)
    # the path's first fit is the cold fit; its second starts from the first
    assert np.array_equal(first.coef, fit_baseline("lvarl1", train, 20.0, options=opts).coef)
    np.testing.assert_allclose(warm.coef, cold.coef, atol=1e-6)


def test_unknown_kind_rejected():
    rng = np.random.default_rng(9)
    train = _train(rng)
    with pytest.raises(UnsupportedKindError):
        fit_baseline("arima", train, 1.0)


def test_predict_checks_dimensions():
    rng = np.random.default_rng(10)
    train = _train(rng)
    model = fit_baseline("lvarl2", train, 1.0)
    with pytest.raises(DimensionMismatchError):
        predict_baseline(model, np.ones((2, 5)))


@pytest.mark.parametrize("method", ["lar", "lvarl2", "lvarl1"])
def test_a_coefficient_model_requires_its_coef(method):
    with pytest.raises(ConfigError, match="coef must be a finite 2-d array"):
        BaselineFit(method=method, lag=2, coef=None)
    assert BaselineFit(method="mean", lag=2).coef is None


def test_mean_predict_checks_the_width_of_its_norm_stats():
    # 7 columns on a 3-series lag-5 model forecast a (2, 1) array
    rng = np.random.default_rng(11)
    series = MultivariateSeries(rng.standard_normal((30, 3)), ["a", "b", "c"])
    model = fit_baseline("mean", lag_embed(series, 5), norm_stats=standardize_fit(series, 30))
    with pytest.raises(DimensionMismatchError):
        predict_baseline(model, np.ones((2, 7)))
    assert predict_baseline(model, np.ones((2, 15))).shape == (2, 3)


def test_adjacency_zero_coefficients():
    model = BaselineFit(method="lvarl1", lag=2, coef=np.zeros((6, 3)))
    adj = baseline_adjacency(model)
    np.testing.assert_array_equal(adj.values, np.zeros((3, 3)))


def test_adjacency_single_active_group():
    coef = np.zeros((6, 3))
    coef[2:4, 1] = [0.3, -0.4]  # series 1's lags -> output 1
    model = BaselineFit(method="lvarl1", lag=2, coef=coef)
    adj = baseline_adjacency(model)
    expected = np.zeros((3, 3))
    expected[1, 1] = 1.0
    np.testing.assert_allclose(adj.values, expected, rtol=1e-15)


def test_adjacency_requires_lvarl1():
    model = BaselineFit(method="lvarl2", lag=2, coef=np.zeros((6, 3)))
    with pytest.raises(UnsupportedKindError):
        baseline_adjacency(model)
