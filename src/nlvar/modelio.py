"""Versioned JSON serialization of fitted models.

One envelope for both model families, discriminated by "kind": the kernel
methods store the weight matrix, coefficients, kernel specs (with their
training normalization factors) and the training inputs needed to evaluate
the expansion; linear baselines store a dense coefficient matrix. Floats are
written with full round-trip precision.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from . import baselines, solver
from .errors import (MALFORMED_VALUE_ERRORS, ConfigError, UnsupportedKindError, finite_array,
                     real_number, whole_number)
from .kernels import KernelSpec, group_index_of
from .series import NormStats

FORMAT_NAME = "nlvar-model"
FORMAT_VERSION = 1


def _matrix(x) -> list:
    return [[float(v) for v in row] for row in np.asarray(x)]


def model_to_dict(model) -> dict:
    if isinstance(model, solver.ModelFit):
        body = {
            "lambda": [float(v) for v in model.lam],
            "kernels": [dataclasses.asdict(spec) for spec in model.specs],
            "weights_a": _matrix(model.A),
            "coefficients": _matrix(model.C),
            "training_inputs": _matrix(model.training_inputs),
        }
    elif isinstance(model, baselines.BaselineFit):
        body = {
            "lambda": None if model.lam is None else float(model.lam),
            "coef": None if model.coef is None else _matrix(model.coef),
        }
    else:
        raise UnsupportedKindError(f"cannot serialize {type(model).__name__}")
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "kind": model.method,
        "lag": model.lag,
        "names": model.names,
        "norm_stats": None if model.norm_stats is None else {
            "mean": model.norm_stats.mean.tolist(), "std": model.norm_stats.std.tolist()},
        **body,
    }


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise ConfigError(f"malformed model document: {what}")


def model_from_dict(doc: dict):
    """Rebuild a fitted model, checking every shape the forecasts rely on.

    v1 documents of the retired kind "nvar_full" load as the one "nvar"
    document they nest. KernelSpec and NormStats read their own fields.
    """
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise ConfigError("not an nlvar model document")
    if doc.get("version") != FORMAT_VERSION:
        raise ConfigError(f"unsupported model version {doc.get('version')}")
    try:
        return _model_from_dict(doc)
    except MALFORMED_VALUE_ERRORS as exc:
        raise ConfigError(f"malformed model document: {type(exc).__name__}: {exc}") from None


def _model_from_dict(doc: dict):
    kind = doc["kind"]
    if kind == "nvar_full":
        _check(doc["model"].get("kind") == "nvar", "nvar_full must nest one nvar document")
        return model_from_dict(doc["model"])
    lag = whole_number(doc["lag"], "model lag")
    _check(lag >= 1, "lag must be positive")
    names = doc["names"]
    stats = None if doc["norm_stats"] is None else NormStats(**doc["norm_stats"])
    if kind in solver.KERNEL_METHODS:
        _check(all(k["norm_factor"] is not None for k in doc["kernels"]),
               "a kernel has no norm_factor")
        specs = [KernelSpec(kind=k["kind"], param=k["param"], partition=k["partition"],
                            norm_factor=k["norm_factor"]) for k in doc["kernels"]]
        A = finite_array(doc["weights_a"], 2, "weights_a")
        C = finite_array(doc["coefficients"], 2, "coefficients")
        X = finite_array(doc["training_inputs"], 2, "training_inputs")
        lam = finite_array(doc["lambda"], 1, "lambda")
        m = A.shape[1]
        _check(A.shape[0] == len(specs), f"weights_a has {A.shape[0]} rows for {len(specs)} kernels")
        _check(C.shape == (X.shape[0], m), f"coefficients are {C.shape}, expected {(X.shape[0], m)}")
        _check(X.shape[1] == m * lag, f"training_inputs have {X.shape[1]} columns, expected {m * lag}")
        _check(lam.shape == (m,), f"lambda has {lam.size} entries for {m} outputs")
        for spec in specs:
            _check(spec.partition is None or 0 <= spec.partition < m,
                   f"{spec.label()} names a partition outside 0..{m - 1}")
        model = solver.ModelFit(method=kind, A=A, C=C, specs=specs, group_index=group_index_of(specs),
                                training_inputs=X, norm_stats=stats, lag=lag, lam=lam, names=names)
    elif kind in baselines.BASELINE_METHODS:
        coef = None if doc.get("coef") is None else finite_array(doc["coef"], 2, "coef")
        lam = None if doc["lambda"] is None else real_number(doc["lambda"], "lambda")
        m = None
        if coef is not None:
            m = coef.shape[1]
            _check(coef.shape[0] == m * lag, f"coef is {coef.shape}, expected {(m * lag, m)}")
        elif stats is not None:
            m = stats.mean.shape[0]
        model = baselines.BaselineFit(method=kind, lag=lag, coef=coef, norm_stats=stats,
                                      lam=lam, names=names)
    else:
        raise ConfigError(f"unknown model kind {kind!r}")
    if m is not None:
        _check(names is None or len(names) == m, f"names do not cover {m} series")
        _check(stats is None or stats.mean.shape[0] == m, f"norm_stats do not cover {m} series")
    return model


def save_model(model, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh)


def read_json(path) -> dict:
    """The JSON object in a file (a config or a model document); a file that
    is not JSON, or whose top-level value is not an object, raises
    ConfigError."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: not a JSON object but {type(doc).__name__}")
    return doc


def load_model(path):
    return model_from_dict(read_json(path))


def predict_model(model, new_inputs) -> np.ndarray:
    """Standardized-space forecasts from either model family; each family's
    predict rejects non-finite inputs."""
    if isinstance(model, solver.ModelFit):
        return solver.predict(model, new_inputs)
    return baselines.predict_baseline(model, new_inputs)


def model_adjacency(model) -> solver.AdjacencyMatrix:
    """Granger adjacency from either model family (sparse kinds only)."""
    if isinstance(model, solver.ModelFit):
        return solver.adjacency(model)
    return baselines.baseline_adjacency(model)
