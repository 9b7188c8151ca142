"""Both JSON readers, the config reader and the model reader, meet a hostile
value at every position of a valid document: each reading returns, or raises
an NlvarError, with numpy's warnings turned into errors. Never another
exception, and never a warning. A model document that loads also serves
three rows of its width under the same rule."""

import copy
import warnings

import numpy as np

from nlvar.baselines import fit_baseline
from nlvar.errors import NlvarError
from nlvar.harness import experiment_config_from_dict
from nlvar.modelio import model_from_dict, model_to_dict, predict_model
from nlvar.series import MultivariateSeries, lag_embed, standardize_apply, standardize_fit
from nlvar.solver import fit

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


def _load_and_serve(doc):
    rows = np.random.default_rng(1).standard_normal((3, 4))  # 2 series, lag 2
    return predict_model(model_from_dict(doc), rows)


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
