import json

import numpy as np
import pytest

from nlvar.cli import main
from nlvar.modelio import load_model, model_adjacency
from nlvar.series import MultivariateSeries, read_csv, write_csv


@pytest.fixture()
def data_csv(tmp_path):
    path = tmp_path / "data.csv"
    assert main(["generate", "--length", "200", "--seed", "7", "--out", str(path)]) == 0
    return path


def test_generate_writes_reproducible_csv(tmp_path, data_csv):
    series = read_csv(data_csv)
    assert series.values.shape == (200, 5)
    other = tmp_path / "again.csv"
    main(["generate", "--length", "200", "--seed", "7", "--out", str(other)])
    np.testing.assert_array_equal(read_csv(other).values, series.values)


def test_fit_predict_evaluate_adjacency_pipeline(tmp_path, data_csv):
    model_path = tmp_path / "model.json"
    rc = main([
        "fit", "--data", str(data_csv), "--method", "lvarl1", "--train", "150",
        "--lag", "3", "--lambda", "5.0", "--out", str(model_path),
    ])
    assert rc == 0 and model_path.exists()

    forecasts = tmp_path / "forecasts.csv"
    assert main(["predict", "--model", str(model_path), "--data", str(data_csv),
                 "--out", str(forecasts)]) == 0
    preds = read_csv(forecasts)
    assert preds.values.shape == (197, 5)  # one forecast per embedded row

    report_path = tmp_path / "report.json"
    assert main(["evaluate", "--model", str(model_path), "--data", str(data_csv),
                 "--holdout", "50", "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["n_holdout"] == 50
    assert report["mse"] > 0.0

    adj_path = tmp_path / "adj.csv"
    assert main(["adjacency", "--model", str(model_path), "--out", str(adj_path)]) == 0
    lines = adj_path.read_text().strip().splitlines()
    assert len(lines) == 6
    values = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert values.shape == (5, 5)
    assert values.max() <= 1.0


def test_fit_with_cv_uses_grid_from_config(tmp_path, data_csv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "grid": {"count": 3, "low_exp": -1, "high_exp": 2},
        "folds": 3,
    }))
    model_path = tmp_path / "model.json"
    rc = main([
        "fit", "--data", str(data_csv), "--method", "lvarl2", "--train", "150",
        "--lag", "3", "--config", str(cfg), "--cv", "--out", str(model_path),
    ])
    assert rc == 0
    doc = json.loads(model_path.read_text())
    assert doc["kind"] == "lvarl2"
    assert doc["lambda"] > 0.0


def test_predict_round_trips_units(tmp_path, data_csv):
    # a mean model predicts the training mean in original units
    model_path = tmp_path / "mean.json"
    main(["fit", "--data", str(data_csv), "--method", "mean", "--train", "150",
          "--lag", "3", "--lambda", "0", "--out", str(model_path)])
    forecasts = tmp_path / "f.csv"
    main(["predict", "--model", str(model_path), "--data", str(data_csv),
          "--out", str(forecasts)])
    preds = read_csv(forecasts)
    train_mean = read_csv(data_csv).values[:150].mean(axis=0)
    np.testing.assert_allclose(preds.values, np.tile(train_mean, (197, 1)), atol=1e-10)


def test_adjacency_rejects_dense_models(tmp_path, data_csv):
    model_path = tmp_path / "ridge.json"
    main(["fit", "--data", str(data_csv), "--method", "lvarl2", "--train", "150",
          "--lag", "3", "--lambda", "1.0", "--out", str(model_path)])
    rc = main(["adjacency", "--model", str(model_path), "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_generate_with_custom_psi(tmp_path):
    psi_path = tmp_path / "psi.csv"
    psi_path.write_text("a,b\n0.5,0.0\n0.2,-0.4\n")
    out = tmp_path / "custom.csv"
    assert main(["generate", "--length", "50", "--seed", "3", "--psi", str(psi_path),
                 "--out", str(out)]) == 0
    series = read_csv(out)
    assert series.values.shape == (50, 2)


def test_benchmark_command(tmp_path):
    cfg = tmp_path / "experiment.json"
    cfg.write_text(json.dumps({
        "data": {"synthetic": {"length": 160, "seed": 13}},
        "train": 120,
        "holdout": 40,
        "lag": 3,
        "methods": ["mean", "lvarl2", "lvarl1"],
        "grid": {"count": 3, "low_exp": -1, "high_exp": 2},
        "folds": 3,
    }))
    out = tmp_path / "results"
    assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report["methods"]) == {"mean", "lvarl2", "lvarl1"}
    assert (out / "mse_table.csv").exists()
    assert (out / "adjacency_lvarl1.csv").exists()
    assert main(["benchmark", "--config", str(tmp_path / "nope.json")]) == 2
    cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "lambda": -1}))
    assert main(["benchmark", "--config", str(cfg), "--out", str(tmp_path / "neg")]) == 2
    assert not (tmp_path / "neg").exists()


@pytest.mark.parametrize("change, key", [
    ({"lag": True}, "lag"),
    ({"data": {"synthetic": {"length": 160, "seed": True}}}, "synthetic seed"),
    ({"grid": {"count": True}}, "grid count"),
    ({"solver": {"max_iter": True}}, "solver max_iter"),
])
def test_benchmark_rejects_a_boolean_for_an_integer_with_exit_code_2(tmp_path, capsys, change,
                                                                       key):
    # JSON true is not the whole number 1
    cfg = tmp_path / "experiment.json"
    cfg.write_text(json.dumps({"data": {"synthetic": {"length": 160, "seed": 13}}, "train": 120,
                               "holdout": 40, "methods": ["mean"], **change}))
    capsys.readouterr()
    assert main(["benchmark", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"{key} must be a whole number, got True" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


#: a table entry naming a file that is never written
MISSING = "missing"


@pytest.mark.parametrize("csv_text, config", [
    ("a,b\n1.0,2.0\n3.0,oops\n", None),
    (None, {"solver": {"max_iter": 0}}),
    (None, {"solver": {"maxiter": 5}}),
    (None, {"grid": {"count": 3, "steps": 2}}),
    (None, {"grid": {"count": 2.5}}),
    (None, {"kernels": [["cubic", 3]]}),
    (MISSING, None),
    (None, MISSING),
    (None, {"folds": 2.9}),
    (None, {"holdout": 10.5}),
    (None, {"feature_tol": -1}),
    (None, {"solver": {"max_iter": 2.5}}),
    (None, {"grid": {"count": 3, "scale": 2.0}}),
    (None, [1]),  # a config that is not a JSON object
    (None, {"kernels": []}),
    (None, {"lamda": 1.0}),  # a key nothing reads
])
def test_fit_rejects_bad_input_with_exit_code_2(tmp_path, data_csv, capsys, csv_text, config):
    data, cfg = data_csv, tmp_path / "cfg.json"
    if csv_text is not None:
        data = tmp_path / "bad.csv"
        if csv_text != MISSING:
            data.write_text(csv_text)
    if config != MISSING:
        cfg.write_text(json.dumps(config or {}))
    capsys.readouterr()
    assert main(["fit", "--data", str(data), "--method", "lvarl2", "--train", "150",
                 "--lag", "3", "--lambda", "1.0", "--config", str(cfg),
                 "--out", str(tmp_path / "model.json")]) == 2
    assert not (tmp_path / "model.json").exists()
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("key, value", [("lambda", 5.0), ("holdout", 10), ("methods", ["nvarl1"]),
                                        ("out_dir", "runs"), ("save_models", True)])
def test_fit_config_rejects_keys_the_command_line_owns(tmp_path, data_csv, capsys, key, value):
    # only kernels, grid, folds and solver come from a fit config; the run's
    # data, window, method and penalty come from the command line
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    capsys.readouterr()
    assert main(["fit", "--data", str(data_csv), "--method", "lvarl2", "--train", "150",
                 "--lag", "3", "--config", str(cfg), "--out", str(tmp_path / "model.json")]) == 2
    assert not (tmp_path / "model.json").exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(key) in err


def test_adjacency_has_no_threshold_option(tmp_path, data_csv):
    model_path = tmp_path / "model.json"
    assert main(["fit", "--data", str(data_csv), "--method", "lvarl1", "--train", "150",
                 "--lag", "3", "--lambda", "5.0", "--out", str(model_path)]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["adjacency", "--model", str(model_path), "--out", str(tmp_path / "adj.csv"),
              "--threshold", "0.1"])
    assert exc.value.code == 2
    assert not (tmp_path / "adj.csv").exists()


def test_fit_with_an_overflowing_kernel_exits_2_and_writes_no_model(tmp_path, data_csv, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kernels": [["polynomial", 1000000000], ["linear", None]]}))
    capsys.readouterr()
    assert main(["fit", "--data", str(data_csv), "--method", "nvarl1", "--train", "150",
                 "--lambda", "1", "--config", str(cfg), "--out", str(tmp_path / "model.json")]) == 2
    assert not (tmp_path / "model.json").exists()
    assert "Gram trace inf" in capsys.readouterr().err


def test_fit_on_values_that_overflow_the_standardization_exits_2(tmp_path, data_csv, capsys):
    # the parent std came out inf, the fit ran on all-zero data and wrote a
    # model whose "std": [Infinity, ...] is not JSON
    huge = tmp_path / "huge.csv"
    series = read_csv(data_csv)
    write_csv(MultivariateSeries(series.values * 1e200, series.names), huge)
    capsys.readouterr()
    assert main(["fit", "--data", str(huge), "--method", "lvarl2", "--train", "150",
                 "--lambda", "1", "--out", str(tmp_path / "model.json")]) == 2
    assert "overflow the standardization" in _one_line_error(capsys)
    assert not (tmp_path / "model.json").exists()


def test_predict_on_a_row_that_overflows_the_model_exits_2(tmp_path, data_csv, capsys):
    # the forecast was NaN, and the CLI blamed the data for it
    model_path = tmp_path / "model.json"
    assert main(["fit", "--data", str(data_csv), "--method", "nvarl1", "--train", "150",
                 "--lag", "3", "--lambda", "2.0", "--out", str(model_path)]) == 0
    extreme = tmp_path / "extreme.csv"
    lines = data_csv.read_text().splitlines()
    lines[5] = ",".join(["1e305"] * len(lines[5].split(",")))
    extreme.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["predict", "--model", str(model_path), "--data", str(extreme),
                 "--out", str(tmp_path / "f.csv")]) == 2
    assert "forecast is not finite" in _one_line_error(capsys)
    assert not (tmp_path / "f.csv").exists()


@pytest.mark.filterwarnings("error")
def test_predict_whose_forecast_overflows_in_original_units_exits_2(tmp_path, data_csv, capsys):
    # undoing the standardization overflowed a finite forecast with a numpy
    # warning, and the CLI blamed the data ("series contains NaN or infinite
    # values")
    model_path = tmp_path / "model.json"
    assert main(["fit", "--data", str(data_csv), "--method", "lvarl2", "--train", "150",
                 "--lambda", "1", "--out", str(model_path)]) == 0
    extreme = tmp_path / "extreme.csv"
    lines = data_csv.read_text().splitlines()
    lines[160] = ",".join(["1.7e308"] * len(lines[160].split(",")))
    extreme.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["predict", "--model", str(model_path), "--data", str(extreme),
                 "--out", str(tmp_path / "f.csv")]) == 2
    assert "forecast overflows in original units" in _one_line_error(capsys)
    assert not (tmp_path / "f.csv").exists()


@pytest.mark.filterwarnings("error")
def test_generate_with_a_psi_that_overflows_the_series_exits_2(tmp_path, capsys):
    psi_path = tmp_path / "psi.csv"
    psi_path.write_text("a,b\n1e308,1e308\n1e308,1e308\n")
    capsys.readouterr()
    assert main(["generate", "--length", "50", "--psi", str(psi_path),
                 "--out", str(tmp_path / "g.csv")]) == 2
    assert "filter overflows the series" in _one_line_error(capsys)
    assert not (tmp_path / "g.csv").exists()


@pytest.mark.parametrize("method, lam", [("nvarl1", "0"), ("lvarl2", "-1"), ("nvarl1", "nan")])
def test_fit_rejects_bad_lambda_with_exit_code_2(tmp_path, data_csv, capsys, method, lam):
    capsys.readouterr()
    assert main(["fit", "--data", str(data_csv), "--method", method, "--train", "150",
                 "--lag", "3", f"--lambda={lam}", "--out", str(tmp_path / "model.json")]) == 2
    assert not (tmp_path / "model.json").exists()
    assert capsys.readouterr().err.startswith("error: lambda must be")


def test_predict_rejects_corrupted_model_with_exit_code_2(tmp_path, data_csv):
    model_path = tmp_path / "model.json"
    main(["fit", "--data", str(data_csv), "--method", "nvarl1", "--train", "60",
          "--lag", "3", "--lambda", "2.0", "--out", str(model_path)])
    doc = json.loads(model_path.read_text())
    doc["coefficients"] = doc["coefficients"][:-3]
    model_path.write_text(json.dumps(doc))
    rc = main(["predict", "--model", str(model_path), "--data", str(data_csv),
               "--out", str(tmp_path / "f.csv")])
    assert rc == 2
    assert main(["predict", "--model", str(tmp_path / "nope.json"), "--data", str(data_csv),
                 "--out", str(tmp_path / "f.csv")]) == 2
    assert not (tmp_path / "f.csv").exists()


def test_predict_rejects_boolean_model_entries_with_exit_code_2(tmp_path, data_csv, capsys):
    # float() reads a JSON true as 1.0, so such a model would load and forecast
    model_path = tmp_path / "model.json"
    main(["fit", "--data", str(data_csv), "--method", "nvarl1", "--train", "60",
          "--lag", "3", "--lambda", "2.0", "--out", str(model_path)])
    doc = json.loads(model_path.read_text())
    doc["coefficients"] = [[True] * len(row) for row in doc["coefficients"]]
    doc["norm_stats"]["std"] = [True] * len(doc["norm_stats"]["std"])
    model_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["predict", "--model", str(model_path), "--data", str(data_csv),
                 "--out", str(tmp_path / "f.csv")]) == 2
    assert "not booleans" in _one_line_error(capsys)
    assert not (tmp_path / "f.csv").exists()


def _negate_weights(doc):
    doc["weights_a"] = [[-w for w in row] for row in doc["weights_a"]]


def _negative_lambda(doc):
    doc["lambda"] = [-1.0] * len(doc["lambda"]) if isinstance(doc["lambda"], list) else -1.0


@pytest.mark.parametrize("method, corrupt, message", [("nvarl1", _negate_weights, "negative"),
                                                      ("nvarl1", _negative_lambda, "not > 0"),
                                                      ("lvarl1", _negative_lambda, "not >= 0")])
def test_predict_and_adjacency_reject_a_model_of_the_wrong_sign_with_exit_code_2(
        tmp_path, data_csv, capsys, method, corrupt, message):
    # both loaded; the negated nvarl1 model forecast and gave an all-zero graph
    model_path = tmp_path / "model.json"
    assert main(["fit", "--data", str(data_csv), "--method", method, "--train", "60",
                 "--lag", "3", "--lambda", "2.0", "--out", str(model_path)]) == 0
    doc = json.loads(model_path.read_text())
    corrupt(doc)
    model_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["predict", "--model", str(model_path), "--data", str(data_csv),
                 "--out", str(tmp_path / "f.csv")]) == 2
    assert message in _one_line_error(capsys)
    assert main(["adjacency", "--model", str(model_path), "--out", str(tmp_path / "a.csv")]) == 2
    assert message in _one_line_error(capsys)
    assert not (tmp_path / "f.csv").exists() and not (tmp_path / "a.csv").exists()


def _without_last_series_kernels(doc):
    last = max(kernel["partition"] for kernel in doc["kernels"])
    keep = [d for d, kernel in enumerate(doc["kernels"]) if kernel["partition"] != last]
    doc["kernels"] = [doc["kernels"][d] for d in keep]
    doc["weights_a"] = [doc["weights_a"][d] for d in keep]


@pytest.mark.parametrize("method, edit", [("nvarl1", _without_last_series_kernels),
                                          ("lvarl1", lambda doc: None)])
def test_adjacency_covers_every_series_of_the_model(tmp_path, data_csv, method, edit):
    # a kernel model with no kernels for its last series gave an (m - 1) x m graph
    model_path = tmp_path / "model.json"
    assert main(["fit", "--data", str(data_csv), "--method", method, "--train", "60",
                 "--lag", "3", "--lambda", "2.0", "--out", str(model_path)]) == 0
    doc = json.loads(model_path.read_text())
    edit(doc)
    model_path.write_text(json.dumps(doc))
    m = len(doc["names"])
    assert model_adjacency(load_model(model_path)).values.shape == (m, m)
    out = tmp_path / "adj.csv"
    assert main(["adjacency", "--model", str(model_path), "--out", str(out)]) == 0
    assert read_csv(out).values.shape == (m, m)


@pytest.mark.parametrize("names", ["abcde", [{}, [], None, 1, True]])
def test_predict_rejects_model_names_that_are_not_one_string_per_series(tmp_path, data_csv,
                                                                       capsys, names):
    # both loaded, and predict wrote the CSV header a,b,c,d,e or {},[],,1,True
    model_path = tmp_path / "model.json"
    assert main(["fit", "--data", str(data_csv), "--method", "lvarl2", "--train", "150",
                 "--lag", "3", "--lambda", "1.0", "--out", str(model_path)]) == 0
    doc = json.loads(model_path.read_text())
    doc["names"] = names
    model_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["predict", "--model", str(model_path), "--data", str(data_csv),
                 "--out", str(tmp_path / "f.csv")]) == 2
    assert "model names must be" in _one_line_error(capsys)
    assert not (tmp_path / "f.csv").exists()


def test_fit_cv_matches_the_benchmark_fit(tmp_path, data_csv):
    # same settings, same training window: `fit --cv` must pick the penalty
    # and write the model a benchmark run does
    settings = {"grid": {"count": 3, "low_exp": -1, "high_exp": 2}, "folds": 3}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(settings))
    model_path = tmp_path / "model.json"
    assert main(["fit", "--data", str(data_csv), "--method", "nvarl1", "--train", "100",
                 "--lag", "3", "--config", str(cfg), "--cv", "--out", str(model_path)]) == 0
    bench = tmp_path / "bench.json"
    bench.write_text(json.dumps({**settings, "data": {"csv": str(data_csv)}, "train": 100,
                                 "holdout": 50, "lag": 3, "methods": ["nvarl1"],
                                 "save_models": True}))
    assert main(["benchmark", "--config", str(bench), "--out", str(tmp_path / "run")]) == 0
    assert model_path.read_text() == (tmp_path / "run" / "model_nvarl1.json").read_text()


def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


_SMALL_RUN = {"data": {"synthetic": {"length": 160, "seed": 13}}, "train": 120, "holdout": 40,
              "lag": 3, "folds": 3}


@pytest.mark.parametrize("method, grid", [
    ("nvarl12", {"count": 3, "low_exp": -400, "high_exp": 0}),  # 10^-400 underflows to 0
    ("lvarl2", {"count": 3, "low_exp": 0, "high_exp": 400}),  # 10^400 overflows to inf
    ("lvarl2", {"count": 1, "low_exp": -400}),
])
def test_benchmark_rejects_a_grid_value_that_is_zero_or_infinite(tmp_path, capsys, method, grid):
    cfg = tmp_path / "experiment.json"
    cfg.write_text(json.dumps({**_SMALL_RUN, "methods": ["mean", method], "grid": grid}))
    capsys.readouterr()
    assert main(["benchmark", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "must be finite and positive" in _one_line_error(capsys)
    assert not (tmp_path / "out" / "report.json").exists()


def test_fit_cv_rejects_a_grid_value_that_is_zero(tmp_path, data_csv, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": {"count": 3, "low_exp": -400, "high_exp": 0}}))
    capsys.readouterr()
    assert main(["fit", "--data", str(data_csv), "--method", "nvarl12", "--train", "100",
                 "--config", str(cfg), "--cv", "--out", str(tmp_path / "model.json")]) == 2
    assert "must be finite and positive" in _one_line_error(capsys)
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize("change, key", [
    ({"lambda": True}, "lambda"),
    ({"lambda": "1e-3"}, "lambda"),
    ({"grid": {"low_exp": True}}, "grid low_exp"),
    ({"grid": {"high_exp": True}}, "grid high_exp"),
    ({"solver": {"rel_tol": True}}, "solver rel_tol"),
    ({"kernels": [["gaussian", True]]}, "kernel parameter"),
])
def test_benchmark_rejects_a_non_number_for_a_real_key(tmp_path, capsys, change, key):
    # JSON true is not 1.0, and the string "1e-3" is not a number
    cfg = tmp_path / "experiment.json"
    cfg.write_text(json.dumps({**_SMALL_RUN, "methods": ["mean"], **change}))
    capsys.readouterr()
    assert main(["benchmark", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert key in _one_line_error(capsys)
    assert not (tmp_path / "out").exists()


def test_predict_and_adjacency_reject_an_lvarl1_model_without_coef(tmp_path, data_csv, capsys):
    # the model loaded, and both commands ended in an AttributeError traceback
    model_path = tmp_path / "model.json"
    assert main(["fit", "--data", str(data_csv), "--method", "lvarl1", "--train", "150",
                 "--lag", "3", "--lambda", "1.0", "--out", str(model_path)]) == 0
    model_path.write_text(json.dumps({**json.loads(model_path.read_text()), "coef": None}))
    capsys.readouterr()
    assert main(["predict", "--model", str(model_path), "--data", str(data_csv),
                 "--out", str(tmp_path / "f.csv")]) == 2
    assert "coef must be" in _one_line_error(capsys)
    assert main(["adjacency", "--model", str(model_path), "--out", str(tmp_path / "a.csv")]) == 2
    assert "coef must be" in _one_line_error(capsys)
    assert not (tmp_path / "f.csv").exists() and not (tmp_path / "a.csv").exists()


def test_predict_rejects_a_model_that_mixes_full_input_and_partitioned_kernels(tmp_path, data_csv,
                                                                              capsys):
    model_path = tmp_path / "model.json"
    assert main(["fit", "--data", str(data_csv), "--method", "nvarl1", "--train", "60",
                 "--lag", "3", "--lambda", "2.0", "--out", str(model_path)]) == 0
    doc = json.loads(model_path.read_text())
    doc["kernels"][0]["partition"] = None
    model_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["predict", "--model", str(model_path), "--data", str(data_csv),
                 "--out", str(tmp_path / "f.csv")]) == 2
    assert "mix full-input and partitioned" in _one_line_error(capsys)
    assert not (tmp_path / "f.csv").exists()


def _first_gaussian(doc):
    return next(k for k in doc["kernels"] if k["kind"] == "gaussian")


@pytest.mark.parametrize("corrupt", [
    lambda doc: doc["kernels"][0].__setitem__("norm_factor", True),
    lambda doc: doc["kernels"][0].__setitem__("norm_factor", 0),
    lambda doc: doc["kernels"][0].__setitem__("norm_factor", -1),
    lambda doc: _first_gaussian(doc).__setitem__("param", True),
    lambda doc: doc.__setitem__("lambda", [True] * len(doc["lambda"])),
], ids=["norm_factor true", "norm_factor 0", "norm_factor -1", "gaussian param true",
        "lambda entries true"])
def test_predict_rejects_a_model_with_a_bad_real_field(tmp_path, data_csv, capsys, corrupt):
    model_path = tmp_path / "model.json"
    assert main(["fit", "--data", str(data_csv), "--method", "nvarl1", "--train", "60",
                 "--lag", "3", "--lambda", "2.0", "--out", str(model_path)]) == 0
    doc = json.loads(model_path.read_text())
    corrupt(doc)
    model_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["predict", "--model", str(model_path), "--data", str(data_csv),
                 "--out", str(tmp_path / "f.csv")]) == 2
    _one_line_error(capsys)
    assert not (tmp_path / "f.csv").exists()


@pytest.mark.parametrize("text, message", [("", "empty file"), ("a,b\n", "no data rows")])
def test_fit_rejects_an_empty_or_header_only_csv(tmp_path, capsys, text, message):
    data = tmp_path / "data.csv"
    data.write_text(text)
    capsys.readouterr()
    assert main(["fit", "--data", str(data), "--method", "mean", "--train", "50",
                 "--lambda", "0", "--out", str(tmp_path / "model.json")]) == 2
    assert message in _one_line_error(capsys)
    assert not (tmp_path / "model.json").exists()


def test_benchmark_rejects_a_config_that_is_not_json(tmp_path, capsys):
    cfg = tmp_path / "experiment.json"
    cfg.write_text('{"train": 120,')
    capsys.readouterr()
    assert main(["benchmark", "--config", str(cfg)]) == 2
    assert "not JSON" in _one_line_error(capsys)


def test_predict_rejects_a_model_that_is_not_json(tmp_path, data_csv, capsys):
    model_path = tmp_path / "model.json"
    model_path.write_text("nlvar-model v1")
    capsys.readouterr()
    assert main(["predict", "--model", str(model_path), "--data", str(data_csv),
                 "--out", str(tmp_path / "f.csv")]) == 2
    assert "not JSON" in _one_line_error(capsys)
    assert not (tmp_path / "f.csv").exists()


@pytest.mark.parametrize("text, message", [
    (b"a,b\n1.0,2.0\n\xff,3.0\n", "not a readable CSV file"),  # not UTF-8
    (b"a,b\n1.0," + b"2" * 140_000 + b"\n", "field larger than field limit"),
], ids=["not UTF-8", "a field over the csv limit"])
def test_fit_rejects_a_csv_that_does_not_decode_or_split(tmp_path, capsys, text, message):
    # each ended in a traceback: UnicodeDecodeError and csv.Error
    data = tmp_path / "data.csv"
    data.write_bytes(text)
    capsys.readouterr()
    assert main(["fit", "--data", str(data), "--method", "mean", "--train", "50",
                 "--lambda", "0", "--out", str(tmp_path / "model.json")]) == 2
    assert message in _one_line_error(capsys)
    assert not (tmp_path / "model.json").exists()


_UNPARSABLE_JSON = {
    "not UTF-8": b'{"train": 120\xff}',
    "a 5000-digit integer": b'{"train": ' + b"1" * 5000 + b"}",
    "100000-deep nesting": b"[" * 100_000 + b"]" * 100_000,
}


@pytest.mark.parametrize("command", ["benchmark", "predict"])
@pytest.mark.parametrize("text", _UNPARSABLE_JSON.values(), ids=_UNPARSABLE_JSON)
def test_a_config_or_model_json_can_fail_to_parse_only_with_exit_code_2(tmp_path, data_csv,
                                                                       capsys, command, text):
    # each ended in a traceback: UnicodeDecodeError, the integer digit
    # limit's ValueError and RecursionError
    doc = tmp_path / "doc.json"
    doc.write_bytes(text)
    capsys.readouterr()
    argv = (["benchmark", "--config", str(doc)] if command == "benchmark" else
            ["predict", "--model", str(doc), "--data", str(data_csv),
             "--out", str(tmp_path / "f.csv")])
    assert main(argv) == 2
    assert "not JSON" in _one_line_error(capsys)
    assert not (tmp_path / "f.csv").exists()


def test_predict_rejects_a_model_without_norm_stats(tmp_path, data_csv, capsys):
    model_path = tmp_path / "model.json"
    assert main(["fit", "--data", str(data_csv), "--method", "lvarl2", "--train", "150",
                 "--lag", "3", "--lambda", "1.0", "--out", str(model_path)]) == 0
    model_path.write_text(json.dumps({**json.loads(model_path.read_text()), "norm_stats": None}))
    capsys.readouterr()
    assert main(["predict", "--model", str(model_path), "--data", str(data_csv),
                 "--out", str(tmp_path / "f.csv")]) == 2
    assert "no normalization stats" in _one_line_error(capsys)
    assert not (tmp_path / "f.csv").exists()


def test_evaluate_rejects_a_holdout_beyond_the_embedded_pairs(tmp_path, data_csv, capsys):
    model_path = tmp_path / "model.json"
    assert main(["fit", "--data", str(data_csv), "--method", "lvarl2", "--train", "150",
                 "--lag", "3", "--lambda", "1.0", "--out", str(model_path)]) == 0
    capsys.readouterr()
    # 200 rows embed into 197 pairs at lag 3
    assert main(["evaluate", "--model", str(model_path), "--data", str(data_csv),
                 "--holdout", "198", "--out", str(tmp_path / "eval.json")]) == 2
    assert "only 197 pairs available" in _one_line_error(capsys)
    assert not (tmp_path / "eval.json").exists()


def test_benchmark_prints_a_failed_row_and_exits_0(tmp_path, capsys):
    # the overflowing kernel fails nvarl1's CV, the mean predictor needs no
    # kernels and the run goes on
    cfg = tmp_path / "experiment.json"
    cfg.write_text(json.dumps({**_SMALL_RUN, "methods": ["mean", "nvarl1"],
                               "kernels": [["polynomial", 1000000000], ["linear", None]]}))
    capsys.readouterr()
    assert main(["benchmark", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("mean ")
    assert out[1].startswith("nvarl1   FAILED: DegenerateKernelError: ")


def test_benchmark_rejects_a_csv_path_that_is_not_a_string_with_exit_code_2(tmp_path, capsys):
    # a list reached open() and ended in a TypeError traceback
    cfg = tmp_path / "experiment.json"
    cfg.write_text(json.dumps({**_SMALL_RUN, "data": {"csv": ["a"]}, "methods": ["mean"]}))
    capsys.readouterr()
    assert main(["benchmark", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "data csv must be a path string" in _one_line_error(capsys)
    assert not (tmp_path / "out").exists()


def test_benchmark_rejects_more_folds_than_the_pairs_allow_with_exit_code_2(tmp_path, capsys):
    cfg = tmp_path / "experiment.json"
    cfg.write_text(json.dumps({**_SMALL_RUN, "methods": ["mean", "lvarl2"], "folds": 100}))
    capsys.readouterr()
    assert main(["benchmark", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "117 training pairs cannot make 100 usable folds" in _one_line_error(capsys)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("change, message", [
    ({"solver": []}, "solver must be a JSON object"),
    ({"solver": 0}, "solver must be a JSON object"),
    ({"solver": False}, "solver must be a JSON object"),
    ({"solver": [["max_iter", 5]]}, "solver must be a JSON object"),
    ({"kernels": [["polynomial", float("inf")]]}, "kernel parameter"),  # written as 1e400
    ({"data": {"synthetic": {"seed": -1}}}, "seed must be at least 0"),
])
def test_benchmark_rejects_a_malformed_solver_degree_or_seed_with_exit_code_2(tmp_path, capsys,
                                                                             change, message):
    # each ended in the default budget, an OverflowError or a numpy traceback
    cfg = tmp_path / "experiment.json"
    cfg.write_text(json.dumps({**_SMALL_RUN, "methods": ["mean"], **change})
                   .replace("Infinity", "1e400"))
    capsys.readouterr()
    assert main(["benchmark", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert message in _one_line_error(capsys)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args, message", [
    (["--seed", "-1", "--length", "50"], "seed must be at least 0"),
    # beyond numpy's largest dimension: refused before anything is allocated
    (["--length", "100000000000000000000"], "cannot draw a synthetic series"),
])
def test_generate_rejects_a_seed_or_length_numpy_refuses_with_exit_code_2(tmp_path, capsys,
                                                                          args, message):
    capsys.readouterr()
    assert main(["generate", *args, "--out", str(tmp_path / "g.csv")]) == 2
    assert message in _one_line_error(capsys)
    assert not (tmp_path / "g.csv").exists()
