"""Both JSON readers, the config reader and the model reader, meet a hostile
value at every position of a valid document: each reading returns, or raises
an NlvarError, with numpy's warnings turned into errors. Never another
exception, and never a warning. A model document that loads yields a
frozen model, and serves three rows of its width under the same rule. The
library's solve entries meet hostile penalties, weights, targets, design
blocks, warm starts, lags, row counts and fold counts with the typed error
of each, and every number or vector argument of them, λ paths run to their
end included, meets every hostile value with an NlvarError. Every numeric
array the library reads, from series values to predict rows, forecasts and
Grams, meets five hostile kinds of array with an NlvarError."""

import copy
import dataclasses
import functools
import warnings

import numpy as np
import pytest

from nlvar.baselines import BaselineFit, fit_baseline, lvarl1_path
from nlvar.errors import (BadDataError, BadRangeError, ConfigError, DimensionMismatchError,
                          NlvarError, data_array, data_vector)
from nlvar.grouplasso import GroupedProblem, optimality_gap, solve_group_lasso
from nlvar.harness import (GridSpec, cv_select, evaluate_holdout, experiment_config_from_dict,
                           split_experiment_data)
from nlvar.kernels import (GramStack, TrainingRows, build_feature_stack, build_gram_stack,
                           cross_gram, empirical_features)
from nlvar.modelio import model_from_dict, model_to_dict, predict_model
from nlvar.series import (MultivariateSeries, NormStats, SupervisedSet, lag_embed,
                          standardize_apply, standardize_fit)
from nlvar.solver import (fit, l12_path, l1_penalty, solve_coefficients, solve_task_l1,
                          solve_task_l12)

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
def _series():
    """A 2-series 40-step series, raw and standardized."""
    series = MultivariateSeries(np.random.default_rng(5).standard_normal((40, 2)), ["s0", "s1"])
    return series, standardize_apply(series, standardize_fit(series, 40), "forward")


@functools.cache
def _library_inputs():
    """A 2-series lag-2 training set and its Gram stack."""
    train = lag_embed(_series()[1], 2)
    return train, build_gram_stack(train.inputs, train.partition_map)


def _problem(train):
    """The lvarl1 design of a training set, with its first output as target."""
    return GroupedProblem([train.inputs[:, cols] for cols in train.partition_map],
                          train.outputs[:, 0], 1.0)


def _coefficients(lam=1.0, a=1.0):
    return lambda train, grams: solve_coefficients(grams, np.full(grams.n_kernels, a),
                                                   train.outputs[:, 0], lam)


def _l12(lam, warm=None):
    return lambda train, grams: solve_task_l12(grams, grams.group_index, train.outputs[:, 0], lam,
                                               warm=warm)


def _l1(y):
    return lambda train, grams: solve_task_l1(build_feature_stack(grams), grams, y(train), 1.0)


def _nan_blocks(problem):
    return [np.full(size, float("nan")) for size in problem.sizes]


def _split(**changed):
    args = {"train": 30, "holdout": 5, "lag": 2, **changed}
    return lambda train, grams: split_experiment_data(_series()[0], **args)


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
    **{f"GroupedProblem penalty={penalty!r}": (
        lambda t, g, penalty=penalty: dataclasses.replace(_problem(t), penalty=penalty),
        ConfigError, "penalty")
       for penalty in ("1", None, True, NAN, INF)},
    "GroupedProblem string target": (
        lambda t, g: dataclasses.replace(_problem(t), target="x"), BadDataError, "target"),
    "with_target string target": (
        lambda t, g: _problem(t).with_target("x", 1.0), BadDataError, "target"),
    "GroupedProblem no blocks": (
        lambda t, g: GroupedProblem([], t.outputs[:, 0], 1.0), DimensionMismatchError, "blocks"),
    "GroupedProblem blocks=None": (
        lambda t, g: GroupedProblem(None, t.outputs[:, 0], 1.0), DimensionMismatchError, "blocks"),
    **{f"GroupedProblem block holding {value!r}": (
        lambda t, g, value=value: GroupedProblem([t.inputs, np.full((t.n_pairs, 2), value)],
                                                 t.outputs[:, 0], 1.0),
        BadDataError, "finite numbers")
       for value in ("x", NAN)},
    "solve_group_lasso nan warm start": (
        lambda t, g: solve_group_lasso(_problem(t), _nan_blocks(_problem(t))),
        BadDataError, "warm start"),
    "optimality_gap nan weights": (
        lambda t, g: optimality_gap(_problem(t), _nan_blocks(_problem(t))),
        BadDataError, "weights"),
    **{f"solve_task_l12 warm={value!r}": (
        lambda t, g, value=value: _l12(1.0, np.full(g.n_kernels, value))(t, g),
        BadDataError, "warm start")
       for value in (NAN, INF)},
    **{f"lag_embed p={p!r}": (lambda t, g, p=p: lag_embed(_series()[1], p), ConfigError, "lag")
       for p in (2.5, "3", True)},
    **{f"standardize_fit train_len={n!r}": (
        lambda t, g, n=n: standardize_fit(_series()[0], n), ConfigError, "train_len")
       for n in (2.5, "3", True)},
    **{f"split_experiment_data {name}={value!r}": (_split(**{name: value}), ConfigError, name)
       for name in ("train", "holdout", "lag") for value in (2.5, "3")},
    "TrainingRows 2-d list": (lambda t, g: TrainingRows(t.inputs.tolist()),
                              DimensionMismatchError, "3-d"),
    "TrainingRows ragged": (lambda t, g: TrainingRows([[[1.0, 2.0]], [[1.0]]]),
                            DimensionMismatchError, "ragged"),
    "TrainingRows strings": (lambda t, g: TrainingRows(np.full((1, 3, 2), "x")), BadDataError,
                             "training rows"),
    "TrainingRows nan": (lambda t, g: TrainingRows(np.full((1, 3, 2), NAN)), BadDataError,
                         "training rows"),
    "split_experiment_data holdout=-1": (_split(holdout=-1), BadRangeError, "holdout=-1"),
    "split_experiment_data lag=train": (_split(train=12, holdout=20, lag=12), BadRangeError,
                                        "train=12 > lag=12"),
}


@pytest.mark.parametrize("call, error, message", HOSTILE_CALLS.values(), ids=HOSTILE_CALLS)
def test_library_solves_meet_hostile_inputs_with_a_typed_error(call, error, message):
    with pytest.raises(error, match=message):
        call(*_library_inputs())


def _solve_entries():
    """(entry, its valid keyword arguments, the number or vector arguments
    among them) of every library solve entry the sweep feeds."""
    train, grams = _library_inputs()
    series = _series()[0]
    y = train.outputs[:, 0]
    problem = _problem(train)
    blocks = [np.zeros(size) for size in problem.sizes]

    # each λ path runs to its end, and a swept penalty is its second point
    def lvarl1_path_to_its_end(lam):
        return list(lvarl1_path(train, [1.0, lam]))

    def l12_path_to_its_end(lam, Y):
        return list(l12_path(grams, Y, [1.0, lam]))

    def l12_path_to_its_end_with_a_target_column(column):
        # the valid column is a float vector; a swept value fills the first
        # column of an object array of targets
        Y = train.outputs.astype(column.dtype if isinstance(column, np.ndarray) else object)
        Y[:, 0] = column if isinstance(column, np.ndarray) else [column] * len(Y)
        return l12_path_to_its_end(1.0, Y)

    return [
        (GroupedProblem, {"design_blocks": problem.design_blocks, "target": y, "penalty": 1.0},
         ("design_blocks", "target", "penalty")),
        (problem.with_target, {"target": y, "penalty": 1.0}, ("target", "penalty")),
        (solve_group_lasso, {"problem": problem, "warm_start": blocks}, ("warm_start",)),
        (optimality_gap, {"problem": problem, "weights": blocks}, ("weights",)),
        (solve_coefficients, {"grams": grams, "a": np.ones(grams.n_kernels), "y": y, "lam": 1.0},
         ("a", "y", "lam")),
        (solve_task_l1, {"features": build_feature_stack(grams), "grams": grams, "y": y,
                         "lam": 1.0}, ("y", "lam")),
        (solve_task_l12, {"grams": grams, "group_index": grams.group_index, "y": y, "lam": 1.0,
                          "warm": None}, ("y", "lam", "warm")),
        (fit_baseline, {"method": "lvarl1", "train": train, "lam": 1.0}, ("lam",)),
        (lvarl1_path_to_its_end, {"lam": 1.0}, ("lam",)),
        (l12_path_to_its_end, {"lam": 1.0, "Y": train.outputs}, ("lam", "Y")),
        (l12_path_to_its_end_with_a_target_column, {"column": y}, ("column",)),
        (lag_embed, {"series": series, "p": 2}, ("p",)),
        (standardize_fit, {"series": series, "train_len": 30}, ("train_len",)),
        (split_experiment_data, {"series": series, "train": 30, "holdout": 5, "lag": 2},
         ("train", "holdout", "lag")),
    ]


def test_library_solves_meet_every_hostile_value_with_an_nlvar_error():
    failures = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for entry, kwargs, hostile_args in _solve_entries():
            entry(**kwargs)
            for name in hostile_args:
                for value in HOSTILE:
                    try:
                        entry(**{**kwargs, name: value})
                    except NlvarError:
                        pass
                    except Exception as exc:  # noqa: BLE001 - what the sweep looks for
                        failures.append(f"{entry.__qualname__}({name}={value!r}): "
                                        f"{type(exc).__name__}: {exc}")
    assert not failures, "\n".join(failures)


def test_data_array_is_the_one_rule():
    floats = np.ones((2, 3))
    assert data_array(floats, 2, "x") is floats  # read as it is, no copy
    assert data_array([[1, 2]], None, "x").dtype == np.float64
    for value, ndim, error in (([1.0, [2.0, 3.0]], 1, DimensionMismatchError),  # ragged
                               ([[1.0], [2.0, 3.0]], None, DimensionMismatchError),
                               (floats, 1, DimensionMismatchError),  # another rank
                               ([1.0, True], 1, BadDataError),
                               ([[1.0], [True]], 2, BadDataError),
                               (np.array([True, False]), 1, BadDataError),
                               ([1.0, "2"], 1, BadDataError),
                               ([1.0, None], 1, BadDataError),
                               ([10**30], 1, BadDataError),  # past int64: an object
                               ([1.0, -INF], 1, BadDataError)):
        with pytest.raises(error):
            data_array(value, ndim, "x")
    # a ragged vector is a shape error, as a ragged Gram stack always was
    with pytest.raises(DimensionMismatchError, match="ragged"):
        data_vector([1.0, [2.0, 3.0]], 3, "x")


def _hostile_arrays(valid) -> dict:
    """Five hostile kinds of array, shaped like the valid array `valid`."""
    valid = np.asarray(valid)
    mixed = valid.tolist()
    node = mixed
    while isinstance(node[0], list):
        node = node[0]
    node[0] = True  # float() reads it as 1.0
    ragged = valid.tolist()
    ragged[-1] = [ragged[-1]] * 2 if valid.ndim == 1 else ragged[-1][:-1]
    return {"strings": np.full(valid.shape, "x").tolist(),
            "None objects": np.full(valid.shape, None, dtype=object),
            "True among floats": mixed,
            "ragged": ragged,
            "all NaN": np.full(valid.shape, NAN)}


@functools.cache
def _models():
    """A kernel and a baseline model fitted on the training set."""
    train = _library_inputs()[0]
    return fit("nvarl1", train, 1.0), fit_baseline("lvarl2", train, 1.0)


#: (read, valid array) of every library entry that reads a numeric array,
#: given the training set and its stack: read(valid) returns
ARRAY_READS = {
    "predict_model kernel rows": lambda t, g: (
        lambda X: predict_model(_models()[0], X), t.inputs[:3]),
    "predict_model baseline rows": lambda t, g: (
        lambda X: predict_model(_models()[1], X), t.inputs[:3]),
    "MultivariateSeries values": lambda t, g: (
        lambda v: MultivariateSeries(v, ["s0", "s1"]), _series()[0].values),
    "SupervisedSet inputs": lambda t, g: (
        lambda v: SupervisedSet(v, t.outputs, t.lag), t.inputs),
    "NormStats mean": lambda t, g: (lambda v: NormStats(v, [1.0, 1.0]), [0.5, -0.5]),
    "BaselineFit coef": lambda t, g: (
        lambda v: BaselineFit("lvarl2", t.lag, coef=v), _models()[1].coef),
    "build_gram_stack inputs": lambda t, g: (
        lambda v: build_gram_stack(v, t.partition_map), t.inputs),
    "cross_gram test rows": lambda t, g: (
        lambda v: cross_gram(g.specs[0], t.inputs[:, :2], v), t.inputs[:3, :2]),
    "GramStack.of Grams": lambda t, g: (
        lambda v: GramStack.of(v, g.specs[:2]), np.stack([g.gram(0), g.gram(1)])),
    "empirical_features matrix": lambda t, g: (empirical_features, g.gram(0)),
    "solve_coefficients weights": lambda t, g: (
        lambda v: solve_coefficients(g, v, t.outputs[:, 0], 1.0), np.ones(g.n_kernels)),
    "evaluate_holdout predictions": lambda t, g: (
        lambda v: evaluate_holdout(lambda X: v, t), t.outputs),
}


@pytest.mark.parametrize("entry", ARRAY_READS.values(), ids=ARRAY_READS)
def test_every_array_reader_meets_hostile_arrays_with_an_nlvar_error(entry):
    read, valid = entry(*_library_inputs())
    read(valid)
    failures = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind, value in _hostile_arrays(valid).items():
            try:
                read(value)
            except NlvarError:
                continue
            except Exception as exc:  # noqa: BLE001 - what the sweep looks for
                failures.append(f"{kind}: {type(exc).__name__}: {exc}")
            else:
                failures.append(f"{kind}: accepted")
    assert not failures, "\n".join(failures)
