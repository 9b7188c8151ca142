"""Command-line interface: generate, fit, predict, evaluate, adjacency, benchmark."""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import harness, modelio
from .errors import ConfigError, NlvarError
from .harness import (
    ALL_METHODS,
    CANONICAL_SEED,
    DEFAULT_HOLDOUT,
    DEFAULT_LAG,
    SyntheticSpec,
    evaluate_holdout,
    generate_synthetic,
)
from .series import MultivariateSeries, lag_embed, read_csv, standardize_apply, write_csv


def _cmd_generate(args):
    psi = None
    if args.psi is not None:
        psi = read_csv(args.psi).values
    series = generate_synthetic(SyntheticSpec(length=args.length, seed=args.seed, psi=psi))
    write_csv(series, args.out)
    print(f"wrote {series.n_steps} x {series.n_series} series to {args.out}")


def _cmd_fit(args):
    # the config file supplies the settings the command line does not
    settings = {} if args.config is None else harness.read_keys(
        modelio.read_json(args.config), ("kernels", "grid", "folds", "solver"), "fit --config")
    doc = {**settings, "data": {"csv": args.data}, "train": args.train,
           "lag": args.lag, "methods": [args.method], "lambda": args.lam}
    config = harness.experiment_config_from_dict(doc)
    series = read_csv(args.data)
    stats, train_set, _ = harness.split_experiment_data(series, config.train, 0, config.lag)
    lam, _ = harness.select_lambda(config, args.method, train_set)
    model = harness.fit_method(config, args.method, train_set, lam, stats, series.names)
    modelio.save_model(model, args.out)
    print(f"fitted {args.method} (lambda={lam:g}) on {train_set.n_pairs} pairs -> {args.out}")


def _load_embedded(args):
    """The --model file and the --data CSV, standardized and lag-embedded
    with the model's own statistics and lag."""
    model = modelio.load_model(args.model)
    series = read_csv(args.data)
    if model.norm_stats is None:
        raise ConfigError("model carries no normalization stats; cannot read raw data")
    sup = lag_embed(standardize_apply(series, model.norm_stats, "forward"), model.lag)
    return model, series, sup


def _cmd_predict(args):
    model, series, sup = _load_embedded(args)
    preds_std = MultivariateSeries(values=modelio.predict_model(model, sup.inputs),
                                   names=list(model.names or series.names))
    write_csv(standardize_apply(preds_std, model.norm_stats, "inverse"), args.out)
    print(f"wrote {preds_std.n_steps} forecasts to {args.out} "
          f"(row k forecasts data row k+{model.lag})")


def _cmd_evaluate(args):
    model, _, sup = _load_embedded(args)
    if sup.n_pairs < args.holdout:
        raise ConfigError(f"only {sup.n_pairs} pairs available, requested {args.holdout}")
    holdout = sup.subset(np.arange(sup.n_pairs - args.holdout, sup.n_pairs))
    mse, mse_std = evaluate_holdout(lambda X: modelio.predict_model(model, X), holdout)
    doc = {"method": model.method, "mse": mse, "mse_std": mse_std, "n_holdout": holdout.n_pairs}
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2)
    print(f"{model.method}: holdout mse {mse:.6f} (std {mse_std:.6f}) -> {args.out}")


def _cmd_adjacency(args):
    model = modelio.load_model(args.model)
    adj = modelio.model_adjacency(model)
    names = adj.names or [f"y{j + 1}" for j in range(adj.values.shape[0])]
    write_csv(MultivariateSeries(values=adj.values, names=list(names)), args.out)
    print(f"wrote {adj.values.shape[0]}x{adj.values.shape[1]} adjacency to {args.out}")


def _cmd_benchmark(args):
    config = harness.experiment_config_from_dict(modelio.read_json(args.config))
    if args.out is not None:
        config.out_dir = args.out
    report = harness.run_experiment(config)
    for method, entry in report["methods"].items():
        if entry["status"] == "ok":
            print(f"{method:8s} mse {entry['mse']:.4f} (std {entry['mse_std']:.4f}) "
                  f"lambda {entry['lam']:.4g} [{entry['seconds']:.1f}s]")
        else:
            print(f"{method:8s} FAILED: {entry['error']}")
    if config.out_dir:
        print(f"artifacts in {config.out_dir}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlvar",
        description="Kernel-based one-step forecasting and Granger-structure learning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic benchmark series to CSV")
    g.add_argument("--length", type=int, required=True)
    g.add_argument("--seed", type=int, default=CANONICAL_SEED)
    g.add_argument("--out", required=True)
    g.add_argument("--psi", default=None, help="CSV file with a custom filter matrix")
    g.set_defaults(func=_cmd_generate)

    f = sub.add_parser("fit", help="fit one method on the first --train rows of a CSV")
    f.add_argument("--data", required=True)
    f.add_argument("--method", required=True, choices=ALL_METHODS)
    f.add_argument("--train", type=int, required=True)
    f.add_argument("--lag", type=int, default=DEFAULT_LAG)
    f.add_argument("--config", default=None,
                   help="experiment-config JSON: kernels/grid/folds/solver; an unknown key exits 2")
    f.add_argument("--out", required=True)
    group = f.add_mutually_exclusive_group()
    group.add_argument("--lambda", dest="lam", type=float, default=None)
    group.add_argument("--cv", action="store_true", help="select lambda by CV (default)")
    f.set_defaults(func=_cmd_fit)

    p = sub.add_parser("predict", help="one-step forecasts in original units")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_predict)

    e = sub.add_parser("evaluate", help="hold-out MSE on the last --holdout pairs")
    e.add_argument("--model", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--holdout", type=int, default=DEFAULT_HOLDOUT)
    e.add_argument("--out", required=True)
    e.set_defaults(func=_cmd_evaluate)

    a = sub.add_parser("adjacency", help="export the Granger adjacency matrix as CSV")
    a.add_argument("--model", required=True)
    a.add_argument("--out", required=True)
    a.set_defaults(func=_cmd_adjacency)

    b = sub.add_parser("benchmark", help="full experiment run from a JSON config")
    b.add_argument("--config", required=True)
    b.add_argument("--out", default=None, help="artifact directory (overrides config)")
    b.set_defaults(func=_cmd_benchmark)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (NlvarError, OSError) as exc:  # OSError: a missing or unreadable file
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
