import json

import numpy as np
import pytest

from nlvar.cli import main
from nlvar.series import read_csv


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


def test_fit_cv_matches_the_benchmark_fit(tmp_path, data_csv):
    # same settings, same training window: `fit --cv` must pick the penalty
    # and write the model a benchmark run does
    settings = {"grid": {"count": 3, "low_exp": -1, "high_exp": 2}, "folds": 3,
                "feature_tol": 1e-4}
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
