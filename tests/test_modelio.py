import dataclasses
import json
import warnings

import numpy as np
import pytest

import nlvar
from nlvar.baselines import BaselineFit, fit_baseline, predict_baseline
from nlvar.errors import BadDataError, ConfigError, ConstantSeriesError
from nlvar.modelio import (
    load_model,
    model_adjacency,
    model_from_dict,
    model_to_dict,
    predict_model,
    save_model,
)
from nlvar.series import (MultivariateSeries, NormStats, lag_embed, standardize_apply,
                          standardize_fit)
from nlvar.solver import ModelFit, fit, predict


def _fixture(rng, n_total=60, m=2, p=3):
    series = MultivariateSeries(rng.standard_normal((n_total, m)),
                                [f"s{j}" for j in range(m)])
    stats = standardize_fit(series, n_total)
    std = standardize_apply(series, stats, "forward")
    return stats, lag_embed(std, p)


def test_kernel_model_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    stats, train = _fixture(rng)
    model = fit("nvarl1", train, 1.2, norm_stats=stats,
                names=["s0", "s1"])
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.method == "nvarl1"
    assert loaded.names == ("s0", "s1")
    assert np.array_equal(loaded.A, model.A)
    assert np.array_equal(loaded.C, model.C)
    assert np.array_equal(loaded.training_inputs, model.training_inputs)
    assert [s.norm_factor for s in loaded.specs] == [s.norm_factor for s in model.specs]
    X_new = rng.standard_normal((5, train.inputs.shape[1]))
    np.testing.assert_array_equal(predict(loaded, X_new), predict(model, X_new))


@pytest.mark.parametrize("kind", ["mean", "lar", "lvarl2", "lvarl1"])
def test_baseline_round_trip(tmp_path, kind):
    rng = np.random.default_rng(1)
    stats, train = _fixture(rng)
    model = fit_baseline(kind, train, 0.8, norm_stats=stats, names=["s0", "s1"])
    path = tmp_path / f"{kind}.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.method == kind
    X_new = rng.standard_normal((4, train.inputs.shape[1]))
    np.testing.assert_array_equal(
        predict_baseline(loaded, X_new), predict_baseline(model, X_new)
    )


def test_legacy_nvar_full_document_loads_as_its_kernel_model(tmp_path):
    # v1 files wrapped the unpartitioned model in a baseline envelope
    rng = np.random.default_rng(1)
    stats, train = _fixture(rng)
    model = fit("nvar", train, 0.8, norm_stats=stats, names=["s0", "s1"])
    legacy = {"format": "nlvar-model", "version": 1, "kind": "nvar_full", "lag": 3,
              "names": ["s0", "s1"], "norm_stats": model_to_dict(model)["norm_stats"],
              "lambda": 0.8, "model": model_to_dict(model)}
    path = tmp_path / "legacy.json"
    path.write_text(json.dumps(legacy))
    loaded = load_model(path)
    assert loaded.method == "nvar"
    X_new = rng.standard_normal((4, train.inputs.shape[1]))
    np.testing.assert_array_equal(predict_model(loaded, X_new), predict(model, X_new))
    assert model_to_dict(loaded)["kind"] == "nvar"


def test_legacy_nvar_full_document_nests_exactly_one_nvar_document():
    # a nested mean document loaded as the mean baseline, and nvar_full
    # documents nested 600 deep ended in a RecursionError
    stats, train = _fixture(np.random.default_rng(1))

    def legacy(inner):
        return {"format": "nlvar-model", "version": 1, "kind": "nvar_full", "lag": 3,
                "names": None, "norm_stats": None, "lambda": 0.8, "model": inner}

    mean = model_to_dict(fit_baseline("mean", train, 0.0, norm_stats=stats))
    nvar = deep = model_to_dict(fit("nvar", train, 0.8, norm_stats=stats))
    assert model_from_dict(legacy(nvar)).method == "nvar"
    for _ in range(600):
        deep = legacy(deep)
    for doc in (legacy(mean), legacy(legacy(nvar)), deep):
        with pytest.raises(ConfigError, match="nvar_full must nest one nvar document"):
            model_from_dict(doc)
    with pytest.raises(ConfigError):
        model_from_dict(legacy(None))


def test_full_precision_floats(tmp_path):
    rng = np.random.default_rng(2)
    stats, train = _fixture(rng)
    model = fit("nvarl12", train, 0.9, norm_stats=stats)
    doc = json.loads(json.dumps(model_to_dict(model)))
    again = model_from_dict(doc)
    assert np.array_equal(again.C, model.C)
    assert np.array_equal(again.A, model.A)


def test_predict_model_dispatches():
    rng = np.random.default_rng(3)
    stats, train = _fixture(rng)
    kernel = fit("nvarl1", train, 1.0, norm_stats=stats)
    base = fit_baseline("lvarl2", train, 1.0, norm_stats=stats)
    X = rng.standard_normal((3, train.inputs.shape[1]))
    np.testing.assert_array_equal(predict_model(kernel, X), predict(kernel, X))
    np.testing.assert_array_equal(predict_model(base, X), predict_baseline(base, X))


def test_model_adjacency_dispatches():
    rng = np.random.default_rng(4)
    stats, train = _fixture(rng)
    kernel = fit("nvarl1", train, 1.0, norm_stats=stats)
    adj = model_adjacency(kernel)
    assert adj.values.shape == (2, 2)
    base = fit_baseline("lvarl1", train, 2.0, norm_stats=stats)
    adj2 = model_adjacency(base)
    assert adj2.values.shape == (2, 2)


def test_rejects_foreign_documents():
    with pytest.raises(ConfigError):
        model_from_dict({"format": "something-else"})
    with pytest.raises(ConfigError):
        model_from_dict({"format": "nlvar-model", "version": 999})


def _cut(key, rows):
    def corrupt(doc):
        doc[key] = doc[key][:rows]
    return corrupt


def _set(key, value):
    def corrupt(doc):
        doc[key] = value
    return corrupt


def _set_kernel(field, value):
    def corrupt(doc):
        doc["kernels"][0][field] = value
    return corrupt


def _drop_column(key):
    def corrupt(doc):
        doc[key] = [row[:-1] for row in doc[key]]
    return corrupt


def _nan_stats(doc):
    doc["norm_stats"]["std"][0] = float("nan")


def _fractional_lag(doc):
    # truncated, the lag would still match the document's shapes
    doc["lag"] += 0.7


KERNEL_CORRUPTIONS = {
    "coefficients cut short": _cut("coefficients", -3),
    "weights_a missing a kernel row": _cut("weights_a", -1),
    "extra kernel spec": lambda doc: doc["kernels"].append(dict(doc["kernels"][0])),
    "coefficients missing an output": _drop_column("coefficients"),
    "training_inputs missing a column": _drop_column("training_inputs"),
    "lambda too short": _cut("lambda", 1),
    "names too long": _set("names", ["s0", "s1", "s2"]),
    "names as one string": _set("names", "ab"),
    "a name that is not a string": _set("names", ["s0", 1]),
    "norm_stats too short": _set("norm_stats", {"mean": [0.0], "std": [1.0]}),
    "missing norm_factor": _set_kernel("norm_factor", None),
    "infinite norm_factor": _set_kernel("norm_factor", float("inf")),
    "partition out of range": _set_kernel("partition", 7),
    "fractional partition": _set_kernel("partition", 1.5),
    "boolean partition": _set_kernel("partition", True),
    "fractional lag": _fractional_lag,
    "unknown kernel kind": _set_kernel("kind", "cubic"),
    "NaN coefficient": lambda doc: doc["coefficients"][0].__setitem__(0, float("nan")),
    "NaN norm_stats": _nan_stats,
    # float() would read a JSON true as 1.0
    "boolean coefficient": lambda doc: doc["coefficients"][2].__setitem__(0, True),
    "boolean norm_stats std": lambda doc: doc["norm_stats"].__setitem__(
        "std", [True] * len(doc["norm_stats"]["std"])),
    "ragged weights_a": lambda doc: doc["weights_a"][0].append(1.0),
    "missing key": lambda doc: doc.pop("training_inputs"),
    "zero lag": _set("lag", 0),
    "infinite lag": _set("lag", float("inf")),
    "NaN gaussian width": lambda doc: next(
        k for k in doc["kernels"] if k["kind"] == "gaussian").__setitem__("param", float("nan")),
    "gaussian width whose square underflows": lambda doc: next(
        k for k in doc["kernels"] if k["kind"] == "gaussian").__setitem__("param", 1e-200),
    "linear kernel with a parameter": _set_kernel("param", 1.0),
    "negated weights": lambda doc: doc.__setitem__(
        "weights_a", [[-w for w in row] for row in doc["weights_a"]]),
    "zero lambda": _set("lambda", [0.0, 1.0]),
    "negative lambda": _set("lambda", [-1.0, -1.0]),
}

BASELINE_CORRUPTIONS = {
    "coef cut short": _cut("coef", -1),
    "coef missing an output": _drop_column("coef"),
    "names too short": _set("names", ["s0"]),
    "names as one string": _set("names", "ab"),
    "a name that is not a string": _set("names", [None, "s1"]),
    "NaN coef": lambda doc: doc["coef"][0].__setitem__(0, float("nan")),
    "boolean coef": lambda doc: doc["coef"][1].__setitem__(1, False),
    "non-numeric lambda": _set("lambda", "big"),
    "fractional lag": _fractional_lag,
    "negative lambda": _set("lambda", -1.0),
}


def _kernel_doc():
    stats, train = _fixture(np.random.default_rng(5))
    model = fit("nvarl1", train, 1.0, norm_stats=stats, names=["s0", "s1"])
    return json.loads(json.dumps(model_to_dict(model)))


@pytest.mark.parametrize("corruption", sorted(KERNEL_CORRUPTIONS))
def test_corrupted_kernel_documents_rejected(corruption):
    doc = _kernel_doc()
    model_from_dict(doc)
    KERNEL_CORRUPTIONS[corruption](doc)
    with pytest.raises(ConfigError):
        model_from_dict(doc)
    legacy = {"format": "nlvar-model", "version": 1, "kind": "nvar_full", "lag": 3,
              "names": None, "norm_stats": None, "lambda": 1.0, "model": doc}
    with pytest.raises(ConfigError):
        model_from_dict(legacy)


@pytest.mark.parametrize("corruption", sorted(BASELINE_CORRUPTIONS))
def test_corrupted_baseline_documents_rejected(corruption):
    stats, train = _fixture(np.random.default_rng(6))
    doc = json.loads(json.dumps(model_to_dict(
        fit_baseline("lvarl1", train, 1.0, norm_stats=stats, names=["s0", "s1"]))))
    model_from_dict(doc)
    BASELINE_CORRUPTIONS[corruption](doc)
    with pytest.raises(ConfigError):
        model_from_dict(doc)


def _fields(model) -> dict:
    return {f.name: getattr(model, f.name) for f in dataclasses.fields(model) if f.init}


def test_models_built_in_code_check_their_shapes_on_construction():
    # only the document reader checked a model's shapes: a hand-built ModelFit
    # with C one row short ended in numpy's matmul error inside predict
    stats, train = _fixture(np.random.default_rng(9))
    model = _fields(fit("nvarl1", train, 1.0, norm_stats=stats, names=["s0", "s1"]))
    no_factor = dataclasses.replace(model["specs"][0], norm_factor=None)
    outside = dataclasses.replace(model["specs"][0], partition=2)
    for change, message in (({"C": model["C"][:-1]}, "coefficients C are"),
                            ({"A": model["A"][:-1]}, "weights A have"),
                            ({"specs": [no_factor, *model["specs"][1:]]}, "no norm_factor"),
                            ({"specs": [outside, *model["specs"][1:]]}, "partition outside"),
                            ({"names": "ab"}, "model names"),
                            ({"lam": model["lam"][:1]}, "lambda has 1 entries"),
                            ({"A": -model["A"]}, "negative"),
                            ({"lam": np.array([1.0, 0.0])}, "not > 0")):
        with pytest.raises(ConfigError, match=message):
            ModelFit(**{**model, **change})
    assert ModelFit(**model).names == ("s0", "s1")
    baseline = _fields(fit_baseline("lvarl2", train, 1.0, norm_stats=stats))
    for change, message in (({"coef": baseline["coef"][:-1]}, "coef is"),
                            ({"lam": True}, "lambda must be a finite number"),
                            ({"lag": 0}, "lag must be at least 1"),
                            ({"lam": -1.0}, "not >= 0")):
        with pytest.raises(ConfigError, match=message):
            BaselineFit(**{**baseline, **change})
    with pytest.raises(ConfigError, match="norm_stats cover 2 series"):
        BaselineFit(method="lvarl2", lag=1, coef=np.zeros((3, 3)), norm_stats=stats)
    BaselineFit(method="mean", lag=3, names=["any", "number", "of", "names"])


def _fitted_and_loaded(tmp_path):
    """An nvarl1 and an lvarl1 model, each fitted and loaded back."""
    stats, train = _fixture(np.random.default_rng(10))
    models = [fit("nvarl1", train, 1.0, norm_stats=stats, names=["s0", "s1"]),
              fit_baseline("lvarl1", train, 1.0, norm_stats=stats, names=["s0", "s1"])]
    for model in list(models):
        save_model(model, tmp_path / "model.json")
        models.append(load_model(tmp_path / "model.json"))
    return models


def test_fitted_and_loaded_models_reject_in_place_writes(tmp_path):
    # a weight written in place served, then saved a document that its own
    # loader rejected; every array of a model is read-only
    for model in _fitted_and_loaded(tmp_path):
        arrays = [model.norm_stats.mean, model.norm_stats.std]
        if isinstance(model, ModelFit):
            arrays += [model.A, model.C, model.lam, model.training_inputs]
        else:
            arrays.append(model.coef)
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = -1.0
            with pytest.raises(ValueError, match="read-only"):
                arr *= 2.0


def test_model_types_reject_field_assignment(tmp_path):
    kernel, baseline, *_ = _fitted_and_loaded(tmp_path)
    for value in (kernel, baseline, kernel.specs[1], kernel.norm_stats):
        for f in dataclasses.fields(value):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, f.name, getattr(value, f.name))


def test_a_change_is_a_copy_checked_again(tmp_path):
    # the two ways past the gate at construction, a negative weight written
    # in place and a norm factor assigned to a spec, are closed: a changed
    # copy is the only change, and it is checked again
    kernel, baseline, *_ = _fitted_and_loaded(tmp_path)
    with pytest.raises(ValueError, match="read-only"):
        kernel.A[0, 0] = -1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        kernel.specs[1].norm_factor = -3.0
    A = kernel.A.copy()
    A[0, 0] = -1.0
    with pytest.raises(ConfigError, match="negative entry"):
        dataclasses.replace(kernel, A=A)
    for factor in (-3.0, 0.0):
        with pytest.raises(ConfigError, match="norm_factor"):
            dataclasses.replace(kernel.specs[1], norm_factor=factor)
    with pytest.raises(ConfigError, match="lambda"):
        dataclasses.replace(baseline, lam=-1.0)
    with pytest.raises(ConstantSeriesError):
        dataclasses.replace(kernel.norm_stats, std=np.zeros(2))


def test_the_callers_arrays_stay_writable():
    stats, train = _fixture(np.random.default_rng(11))
    fitted = _fields(fit("nvarl1", train, 1.0, norm_stats=stats))
    given = {name: np.array(fitted[name]) for name in ("A", "C", "lam", "training_inputs")}
    model = ModelFit(**{**fitted, **given})
    coef = np.array(fit_baseline("lvarl2", train, 1.0).coef)
    baseline = BaselineFit(method="lvarl2", lag=train.lag, coef=coef)
    mean, std = np.array(stats.mean), np.array(stats.std)
    held = NormStats(mean=mean, std=std)
    for arr, copy in [*((given[name], getattr(model, name)) for name in given),
                      (coef, baseline.coef), (mean, held.mean), (std, held.std)]:
        assert arr.flags.writeable and not copy.flags.writeable
        arr *= 2.0
        assert not np.shares_memory(arr, copy) and np.array_equal(arr, 2.0 * copy)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_predict_rejects_non_finite_inputs(bad):
    rng = np.random.default_rng(7)
    stats, train = _fixture(rng)
    X = rng.standard_normal((2, train.inputs.shape[1]))
    X[1, 2] = bad
    for model in (fit("nvarl1", train, 1.0, norm_stats=stats),
                  fit_baseline("lvarl2", train, 1.0, norm_stats=stats)):
        with pytest.raises(BadDataError):
            predict_model(model, X)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_each_family_predict_rejects_non_finite_inputs(bad):
    # the library predict functions check their rows themselves, not only
    # through predict_model
    rng = np.random.default_rng(8)
    _, train = _fixture(rng)
    X = rng.standard_normal((2, train.inputs.shape[1]))
    X[1, 2] = bad
    with pytest.raises(BadDataError):
        nlvar.predict(fit("nvarl1", train, 1.0), X)
    for method in ("mean", "lvarl2", "lvarl1"):
        with pytest.raises(BadDataError):
            predict_baseline(fit_baseline(method, train, 1.0), X)


def test_each_family_predict_rejects_a_forecast_that_overflows():
    # finite rows that overflow the model gave NaN forecasts and numpy
    # warnings; the forecast check is one isfinite over the output
    rng = np.random.default_rng(8)
    _, train = _fixture(rng)
    X = rng.standard_normal((3, train.inputs.shape[1]))
    X[1, 2] = 1e120
    kernel = fit("nvarl1", train, 1.0)
    ridge = fit_baseline("lvarl2", train, 1.0)
    # a model document may hold any finite coefficients
    ridge = dataclasses.replace(ridge, coef=ridge.coef * 1e4)
    Y = X.copy()
    Y[1] = np.copysign(1e306, ridge.coef[:, 0])  # sums past the largest float
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for model, rows in ((kernel, X), (ridge, Y)):
            with pytest.raises(BadDataError, match="forecast is not finite"):
                predict_model(model, rows)
            assert np.all(np.isfinite(predict_model(model, rows[[0, 2]])))
