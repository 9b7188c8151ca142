"""Both JSON readers, the config reader and the model reader, meet a hostile
value at every position of a valid document: each reading returns, or raises
an NlvarError, with numpy's warnings turned into errors. Never another
exception, and never a warning. A model document that loads yields a
frozen model, and serves three rows of its width under the same rule. The
library's solve entries meet hostile penalties, weights, targets and fold
counts with the typed error of each."""

import copy
import dataclasses
import functools
import warnings

import numpy as np
import pytest

from nlvar.baselines import fit_baseline
from nlvar.errors import BadDataError, ConfigError, DimensionMismatchError, NlvarError
from nlvar.harness import GridSpec, cv_select, experiment_config_from_dict
from nlvar.kernels import build_feature_stack, build_gram_stack
from nlvar.modelio import model_from_dict, model_to_dict, predict_model
from nlvar.series import MultivariateSeries, lag_embed, standardize_apply, standardize_fit
from nlvar.solver import fit, l1_penalty, solve_coefficients, solve_task_l1, solve_task_l12

HOSTILE = [None, True, False, -1, 0, 0.5, float("inf"), float("-inf"), float("nan"), "x", [], {}]

_RUN = {"train": 100, "holdout": 40, "lag": 3, "methods": ["mean", "nvarl1"],
        "kernels": [["linear", None], ["polynomial", 2], ["gaussian", 1.0]],
        "grid": {"count": 4, "low_exp": -2, "high_exp": 2}, "folds": 3, "lambda": 1.0,
        "solver": {"max_iter": 500, "rel_tol": 1e-6}, "out_dir": "runs", "save_models": False}

CONFIGS = [
    {**_RUN, "data": {"synthetic": {"length": 160, "seed": 3, "psi": [[0.5, 0.2], [0.0, 0.4]]}}},
    {**_RUN, "data": {"csv": "series.csv"}},
]


def _model_docs() -> list[dict]:
    rng = np.random.default_rng(0)
    series = MultivariateSeries(rng.standard_normal((14, 2)), ["s0", "s1"])
    stats = standardize_fit(series, 14)
    train = lag_embed(standardize_apply(series, stats, "forward"), 2)
    models = [fit(method, train, 1.0, norm_stats=stats, names=series.names)
              for method in ("nvarl1", "nvar")]
    models += [fit_baseline(method, train, 1.0, norm_stats=stats, names=series.names)
               for method in ("lvarl1", "mean")]
    return [model_to_dict(model) for model in models]


def _assert_frozen(model):
    """A loaded model, its norm stats and its kernel specs take no field
    assignment, and none of their arrays can be written."""
    for value in filter(None, (model, model.norm_stats, *getattr(model, "specs", ()))):
        for f in dataclasses.fields(value):
            held = getattr(value, f.name)
            assert not (isinstance(held, np.ndarray) and held.flags.writeable), f.name
            try:
                setattr(value, f.name, held)
            except dataclasses.FrozenInstanceError:
                continue
            raise AssertionError(f"{type(value).__name__}.{f.name} takes an assignment")


def _load_and_serve(doc):
    rows = np.random.default_rng(1).standard_normal((3, 4))  # 2 series, lag 2
    model = model_from_dict(doc)
    _assert_frozen(model)
    return predict_model(model, rows)


def _positions(node, path=()):
    """The path of every value below the root of a JSON document, objects
    and arrays included."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from _positions(child, path + (key,))


def _replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _sweep(read, doc) -> list[str]:
    read(doc)
    failures = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for path in _positions(doc):
            for value in HOSTILE:
                try:
                    read(_replaced(doc, path, value))
                except NlvarError:
                    pass
                except Exception as exc:  # noqa: BLE001 - what the sweep looks for
                    failures.append(f"{list(path)} = {value!r}: {type(exc).__name__}: {exc}")
    return failures


def test_both_readers_meet_every_hostile_value_with_an_nlvar_error():
    failures = [failure for doc in CONFIGS for failure in _sweep(experiment_config_from_dict, doc)]
    failures += [failure for doc in _model_docs() for failure in _sweep(_load_and_serve, doc)]
    assert not failures, "\n".join(failures)


@functools.cache
def _library_inputs():
    """A 2-series lag-2 training set and its Gram stack."""
    rng = np.random.default_rng(5)
    series = MultivariateSeries(rng.standard_normal((40, 2)), ["s0", "s1"])
    train = lag_embed(standardize_apply(series, standardize_fit(series, 40), "forward"), 2)
    return train, build_gram_stack(train.inputs, train.partition_map)


def _coefficients(lam=1.0, a=1.0):
    return lambda train, grams: solve_coefficients(grams, np.full(grams.n_kernels, a),
                                                   train.outputs[:, 0], lam)


def _l12(lam):
    return lambda train, grams: solve_task_l12(grams, grams.group_index, train.outputs[:, 0], lam)


def _l1(y):
    return lambda train, grams: solve_task_l1(build_feature_stack(grams), grams, y(train), 1.0)


NAN, INF = float("nan"), float("inf")

#: (call on the training set and its stack, error, message): every call is
#: one that returned a non-finite or silently converted result, or ended in
#: another error, before its input was read where it enters the library
HOSTILE_CALLS = {
    **{f"solve_coefficients lam={lam!r}": (_coefficients(lam=lam), ConfigError, "lam")
       for lam in (NAN, INF, True, "x")},
    **{f"solve_coefficients a={a!r}": (_coefficients(a=a), BadDataError, "weights")
       for a in (NAN, INF)},
    **{f"solve_task_l12 lam={lam!r}": (_l12(lam), ConfigError, "lam")
       for lam in (NAN, INF, True, "x")},
    **{f"l1_penalty lam={lam!r}": (lambda t, g, lam=lam: l1_penalty(lam), ConfigError, "lam")
       for lam in (INF, True, "x")},
    **{f"fit {method} lam={lam!r}": (lambda t, g, method=method, lam=lam: fit(method, t, lam),
                                     ConfigError, "lam")
       for method, lam in (("nvarl12", NAN), ("nvarl12", INF), ("nvarl1", INF),
                           ("nvarl1", "x"), ("nvarl12", "x"), ("nvarl1", True),
                           ("nvarl12", True))},
    **{f"fit_baseline {method} lam={lam!r}": (
        lambda t, g, method=method, lam=lam: fit_baseline(method, t, lam), ConfigError, "lam")
       for method, lam in (("lar", NAN), ("lvarl2", INF), ("lvarl1", INF), ("mean", NAN),
                           ("mean", True), ("mean", "x"))},
    "solve_task_l1 short y": (_l1(lambda t: t.outputs[1:, 0]), DimensionMismatchError, "target"),
    "solve_task_l1 nan y": (_l1(lambda t: np.where(np.arange(t.n_pairs) == 3, NAN, 0.0)),
                            BadDataError, "target"),
    **{f"cv_select folds={folds!r}": (
        lambda t, g, folds=folds: cv_select(t, "mean", GridSpec(count=3), folds=folds),
        ConfigError, "folds")
       for folds in (2.5, True)},
}


@pytest.mark.parametrize("call, error, message", HOSTILE_CALLS.values(), ids=HOSTILE_CALLS)
def test_library_solves_meet_hostile_inputs_with_a_typed_error(call, error, message):
    with pytest.raises(error, match=message):
        call(*_library_inputs())
