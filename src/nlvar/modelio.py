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
from .errors import MALFORMED_VALUE_ERRORS, ConfigError, UnsupportedKindError
from .kernels import KernelSpec
from .series import NormStats

FORMAT_NAME = "nlvar-model"
FORMAT_VERSION = 1


def model_to_dict(model) -> dict:
    if isinstance(model, solver.ModelFit):
        body = {
            "lambda": model.lam.tolist(),
            "kernels": [dataclasses.asdict(spec) for spec in model.specs],
            "weights_a": model.A.tolist(),
            "coefficients": model.C.tolist(),
            "training_inputs": model.training_inputs.tolist(),
        }
    elif isinstance(model, baselines.BaselineFit):
        body = {
            "lambda": model.lam,
            "coef": None if model.coef is None else model.coef.tolist(),
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


def model_from_dict(doc: dict):
    """Rebuild a fitted model by mapping the document's keys onto ModelFit or
    BaselineFit, which (with KernelSpec and NormStats) check their values.

    v1 documents of the retired kind "nvar_full" load as the one "nvar"
    document they nest.
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
        if doc["model"].get("kind") != "nvar":
            raise ConfigError("malformed model document: nvar_full must nest one nvar document")
        return model_from_dict(doc["model"])
    stats = None if doc["norm_stats"] is None else NormStats(**doc["norm_stats"])
    fields = dict(method=kind, lag=doc["lag"], norm_stats=stats, lam=doc["lambda"],
                  names=doc["names"])
    if kind in solver.KERNEL_METHODS:
        specs = [KernelSpec(kind=k["kind"], param=k["param"], partition=k["partition"],
                            norm_factor=k["norm_factor"]) for k in doc["kernels"]]
        return solver.ModelFit(A=doc["weights_a"], C=doc["coefficients"], specs=specs,
                               training_inputs=doc["training_inputs"], **fields)
    if kind in baselines.BASELINE_METHODS:
        return baselines.BaselineFit(coef=doc.get("coef"), **fields)
    raise ConfigError(f"unknown model kind {kind!r}")


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
        except (ValueError, RecursionError) as exc:  # not UTF-8, an int too long, too deep
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
