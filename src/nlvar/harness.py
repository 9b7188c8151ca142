"""Synthetic benchmark generator, cross-validated hyperparameter search with
warm starts along the regularization path, hold-out evaluation, and the
end-to-end experiment runner behind the CLI.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import baselines, modelio, solver
from .errors import (
    MALFORMED_VALUE_ERRORS,
    BadDataError,
    BadRangeError,
    ConfigError,
    DimensionMismatchError,
    FoldTooSmallError,
    NlvarError,
    finite_array,
    real_number,
    whole_number,
)
# the benchmark tracer times the CV solves through this module's binding of
# the stacked group-lasso solver, so the CV path calls it directly
from .grouplasso import SolverOptions, _solve_stacked
# nothing here calls build_feature_stack (solver.l1_design builds the l1
# route's features), but the benchmark tracer wraps this binding too
from .kernels import (  # noqa: F401
    DEFAULT_DICTIONARY,
    build_cross_stack,
    build_feature_stack,
    build_gram_stack,
    make_specs,
)
from .series import (MultivariateSeries, SupervisedSet, lag_embed, read_csv, standardize_apply,
                     standardize_fit, write_csv)

ALL_METHODS = ("mean", "lar", "lvarl2", "lvarl1", "nvar", "nvarl1", "nvarl12")

#: Methods whose fitted structure yields a Granger adjacency matrix.
SPARSE_METHODS = ("lvarl1", "nvarl1", "nvarl12")

#: Seed used for the repo's reference benchmark runs.
CANONICAL_SEED = 20

DEFAULT_LAG = 5
DEFAULT_HOLDOUT = 500


def default_psi() -> np.ndarray:
    """Filter matrix of the 5-dimensional benchmark process: two internally
    coupled blocks (series 1-3 and 4-5) with no dependence across blocks."""
    return np.array(
        [
            [0.7, 1.3, 0.0, 0.0, 0.0],
            [0.0, 0.6, -1.5, 0.0, 0.0],
            [0.0, -1.2, 1.46, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.6, 1.4],
            [0.0, 0.0, 0.0, 1.3, -0.5],
        ]
    )


@dataclass(frozen=True)
class SyntheticSpec:
    """Benchmark process y_t = e_t + Psi e_{t-1} with recentred unit-variance
    exponential noise."""

    length: int
    seed: int = CANONICAL_SEED
    psi: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "length", whole_number(self.length, "synthetic length"))
        object.__setattr__(self, "seed", whole_number(self.seed, "synthetic seed"))
        object.__setattr__(self, "psi", finite_array(default_psi() if self.psi is None
                                                     else self.psi, 2, "psi"))
        if self.psi.shape[0] != self.psi.shape[1]:
            raise DimensionMismatchError("psi must be a square matrix")
        if self.length < 2:
            raise BadRangeError("synthetic length must be at least 2")
        if self.seed < 0:
            raise ConfigError(f"synthetic seed must be at least 0, got {self.seed}")


def generate_synthetic(spec: SyntheticSpec) -> MultivariateSeries:
    """Draw the benchmark series, bit-reproducible for a given seed.

    Noise coordinates are Exponential(1) - 1 (zero mean, unit variance),
    sampled by inverse CDF -log(1-U) - 1 from a PCG64 uniform stream; one
    extra leading draw supplies e_0. A length numpy cannot draw, and a psi
    whose filter overflows the series, raise ConfigError.
    """
    m = spec.psi.shape[0]
    rng = np.random.default_rng(spec.seed)
    try:
        u = rng.random((spec.length + 1, m))
    except ValueError as exc:  # numpy's "Maximum allowed dimension exceeded"
        raise ConfigError(f"cannot draw a synthetic series of {spec.length} steps: {exc}") from None
    e = -np.log1p(-u) - 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        values = e[1:] + e[:-1] @ spec.psi.T
    if not np.all(np.isfinite(values)):
        raise ConfigError("psi is too large: its filter overflows the series")
    names = [f"y{j + 1}" for j in range(m)]
    return MultivariateSeries(values=values, names=names)


@dataclass(frozen=True)
class GridSpec:
    """Logarithmic regularization grid 10^k * scale, k linearly spaced; the
    scale is sqrt(n_train_pairs) * (number of kernels or groups of the
    method)."""

    count: int = 15
    low_exp: float = -3.0
    high_exp: float = 4.0

    def __post_init__(self):
        object.__setattr__(self, "count", whole_number(self.count, "grid count"))
        if self.count < 1:
            raise ConfigError(f"grid count must be >= 1, got {self.count}")
        object.__setattr__(self, "low_exp", real_number(self.low_exp, "grid low_exp"))
        object.__setattr__(self, "high_exp", real_number(self.high_exp, "grid high_exp"))
        if self.count > 1 and self.low_exp >= self.high_exp:
            raise ConfigError("grid low_exp must be below high_exp")

    def values(self, scale: float) -> np.ndarray:
        return 10.0 ** np.linspace(self.low_exp, self.high_exp, self.count) * scale


def scale_count(method: str, m: int, dictionary=DEFAULT_DICTIONARY) -> int:
    """Kernel or group count entering the grid scale for one method."""
    nk = len(dictionary)
    return {
        "nvarl1": m * nk,
        "nvar": nk,
        "nvarl12": m,
        "lvarl1": m,
        "lvarl2": m,
        "lar": 1,
        "mean": 1,
    }[method]


# ---------------------------------------------------------------------------
# validation forecasts along the penalty grid, one generator per model family


def _baseline_path(method: str, sub: SupervisedSet, X_val, lams, options):
    model = None
    for lam in lams:
        model = baselines.fit_baseline(method, sub, lam, options=options, warm=model)
        yield baselines.predict_baseline(model, X_val)


def _kernel_path(method: str, sub: SupervisedSet, X_val, lams, dictionary,
                 options: SolverOptions):
    """nvarl1 / nvar (l1 route on empirical features) and nvarl12.

    Unlike solver.fit this builds the kernels (the l1 route's design, as
    solver.l1_design builds it, or nvarl12's Gram stack) and the cross-Gram
    blocks once for the whole grid, and forecasts each grid point by one
    solver.expand over the cross stack.
    """
    if method == "nvarl12":
        grams = build_gram_stack(sub.inputs, sub.partition_map, dictionary)
        specs = grams.specs
    else:
        specs, design = solver.l1_design(method, sub, dictionary)
    cross = build_cross_stack(specs, sub.inputs, np.asarray(X_val, dtype=float),
                              sub.partition_map)
    Y = sub.outputs
    m = Y.shape[1]
    warm = [None] * m
    for lam in lams:
        if method == "nvarl12":
            tasks = [solver.solve_task_l12(grams, grams.group_index, Y[:, s], lam,
                                           warm=warm[s], opts=options) for s in range(m)]
            warm = [task.a for task in tasks]
            A, C = np.column_stack(warm), np.column_stack([task.c for task in tasks])
        else:
            kappa = solver.l1_penalty(lam)
            warm = [_solve_stacked(design.B, design.starts, design.sizes, Y[:, s], kappa,
                                   options, design.majorizer, warm[s])[0] for s in range(m)]
            A, C = solver.l1_solution(design, np.column_stack(warm), Y, lam)
        yield solver.expand(cross, A, C)


def cv_select(train: SupervisedSet, method: str, grid: GridSpec = GridSpec(),
              folds: int = 5, dictionary=DEFAULT_DICTIONARY,
              options: SolverOptions = SolverOptions()) -> tuple[float, np.ndarray]:
    """Pick the regularization value by blocked cross-validation.

    Folds are contiguous time blocks. The grid is traversed from the largest
    value down, warm-starting every fit from the previous value's solution.
    The winner is the largest grid value whose mean validation MSE is within
    one standard error (over folds, at the minimizing value) of the minimum:
    differences below fold noise count as ties and break toward the larger
    penalty. The fits run with `options`, the budget of a final fit.
    Validation errors, or their noise, too large to be finite raise
    BadDataError. Returns (lam_star, mean validation MSE per ascending value).
    """
    if method not in ALL_METHODS:
        raise ConfigError(f"unknown method {method!r}")
    if folds < 2:
        raise FoldTooSmallError("need at least 2 folds")
    if method in solver.KERNEL_METHODS:  # an empty dictionary fails even on a one-point grid
        make_specs([None], dictionary)
    n = train.n_pairs
    with np.errstate(over="ignore", under="ignore"):
        lams = grid.values(math.sqrt(n) * scale_count(method, train.n_series, dictionary))
    if not np.all(np.isfinite(lams) & (lams > 0.0)):
        raise ConfigError(f"{method} grid runs from {lams[0]:g} to {lams[-1]:g}; "
                          "every value must be finite and positive")
    if grid.count == 1:
        return float(lams[0]), np.full(1, np.nan)
    if n < 2 * folds:
        raise FoldTooSmallError(f"{n} rows cannot make {folds} usable folds")

    blocks = np.array_split(np.arange(n), folds)
    errs = np.zeros((grid.count, folds))
    descending = [float(lam) for lam in lams[::-1]]
    for f, val_rows in enumerate(blocks):
        sub = train.subset(np.setdiff1d(np.arange(n), val_rows))
        X_val, Y_val = train.inputs[val_rows], train.outputs[val_rows]
        if method in solver.KERNEL_METHODS:
            path = _kernel_path(method, sub, X_val, descending, dictionary, options)
        else:
            path = _baseline_path(method, sub, X_val, descending, options)
        for k, preds in zip(range(grid.count - 1, -1, -1), path):
            with np.errstate(over="ignore", invalid="ignore"):
                errs[k, f] = float(np.mean((Y_val - preds) ** 2))
    with np.errstate(over="ignore", invalid="ignore"):
        curve = errs.mean(axis=1)
        k_min = len(curve) - 1 - int(np.argmin(curve[::-1]))
        noise = float(errs[k_min].std(ddof=1)) / math.sqrt(folds)
    if not (np.all(np.isfinite(curve)) and math.isfinite(noise)):
        raise BadDataError(f"{method} validation errors overflow: "
                           "the forecasts are too large to score")
    within = np.flatnonzero(curve <= curve[k_min] + noise)
    best = int(within.max())
    return float(lams[best]), curve


def evaluate_holdout(predict_fn, holdout: SupervisedSet) -> tuple[float, float]:
    """(mse, mse_std): hold-out MSE of a standardized-space predictor.

    Per-step error is ||y_t - yhat_t||^2 / m; mse_std is the standard error
    of the mean over hold-out steps. Forecasts too large for either to be
    finite raise BadDataError.
    """
    if holdout.n_pairs < 1:
        raise BadRangeError("holdout set is empty")
    preds = np.asarray(predict_fn(holdout.inputs), dtype=float)
    if preds.shape != holdout.outputs.shape:
        raise DimensionMismatchError(
            f"predictions {preds.shape} vs outputs {holdout.outputs.shape}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        per_step = np.mean((holdout.outputs - preds) ** 2, axis=1)
        n = per_step.shape[0]
        mse_std = float(per_step.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        mse = float(per_step.mean())
    if not (math.isfinite(mse) and math.isfinite(mse_std)):
        raise BadDataError("hold-out errors overflow: the forecasts are too large to score")
    return mse, mse_std


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed for a benchmark-style run, each field read and
    checked on construction (the kernel pairs as KernelSpec reads them);
    frozen, so a changed copy (dataclasses.replace) is checked again."""

    train: int
    methods: tuple = ALL_METHODS
    synthetic: SyntheticSpec | None = None
    csv_path: str | None = None
    holdout: int = DEFAULT_HOLDOUT
    lag: int = DEFAULT_LAG
    dictionary: tuple = DEFAULT_DICTIONARY
    grid: GridSpec = GridSpec()
    folds: int = 5
    lam: float | None = None
    options: SolverOptions = SolverOptions()
    out_dir: str | None = None
    save_models: bool = False

    def __post_init__(self):
        for name in ("train", "holdout", "lag", "folds"):
            object.__setattr__(self, name, whole_number(getattr(self, name), name))
        for what, path in (("data csv", self.csv_path), ("out_dir", self.out_dir)):
            if path is not None and not isinstance(path, str):
                raise ConfigError(f"{what} must be a path string, got {path!r}")
        if not isinstance(self.save_models, bool):
            raise ConfigError(f"save_models must be true or false, got {self.save_models!r}")
        if not isinstance(self.methods, (list, tuple)):
            raise ConfigError(f"methods must be a list of method names, got {self.methods!r}")
        object.__setattr__(self, "methods", tuple(self.methods))
        unknown = [m for m in self.methods if m not in ALL_METHODS]
        if unknown:
            raise ConfigError(f"unknown methods {unknown}; valid: {list(ALL_METHODS)}")
        object.__setattr__(self, "dictionary", tuple(
            (spec.kind, spec.param) for spec in make_specs([None], self.dictionary)))
        if (self.synthetic is None) == (self.csv_path is None):
            raise ConfigError("exactly one data source (synthetic or csv) is required")
        if self.lag < 1:
            raise ConfigError(f"lag must be at least 1, got {self.lag}")
        if self.train < self.lag + 2:
            raise ConfigError(f"train={self.train} too small for lag={self.lag}")
        if self.holdout < 1:
            raise ConfigError("holdout must be >= 1")
        # cv_select's rule, checked here only where a run cross-validates
        if self.folds < 2:
            raise ConfigError(f"folds must be at least 2, got {self.folds}")
        pairs = self.train - self.lag
        if (self.lam is None and self.grid.count > 1 and set(self.methods) - {"mean"}
                and pairs < 2 * self.folds):
            raise ConfigError(f"{pairs} training pairs cannot make {self.folds} usable folds")
        if self.lam is not None:
            object.__setattr__(self, "lam", real_number(self.lam, "lambda"))
            if self.lam < 0.0:
                raise ConfigError(f"lambda must be >= 0, got {self.lam}")
            if self.lam == 0.0 and set(self.methods) & set(solver.KERNEL_METHODS):
                raise ConfigError("lambda must be > 0 for the kernel methods")


def read_keys(doc, keys, where: str) -> dict:
    """`doc`, once it is a JSON object with no key outside `keys`."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object, got {doc!r}")
    unread = sorted(set(doc) - set(keys))
    if unread:
        raise ConfigError(f"unknown {where} keys {unread}; valid: {sorted(keys)}")
    return doc


#: Config keys that set an ExperimentConfig field, with the field each sets.
_CONFIG_FIELDS = {"train": "train", "holdout": "holdout", "lag": "lag", "methods": "methods",
                  "kernels": "dictionary", "folds": "folds", "lambda": "lam",
                  "out_dir": "out_dir", "save_models": "save_models"}


def _from_object(cls, doc, where: str, **given):
    """A `cls` built from a JSON object of its fields, on top of `given`."""
    return cls(**{**given, **read_keys(doc, [f.name for f in fields(cls)], where)})


def experiment_config_from_dict(doc: dict) -> ExperimentConfig:
    """Build a run config from the JSON document accepted by the CLI.

    Each key maps onto a field (data.synthetic, grid and solver onto a
    SyntheticSpec, GridSpec and SolverOptions), and the types read their
    values. A malformed value, and a key nothing reads, raise ConfigError.
    """
    doc = read_keys(doc, (*_CONFIG_FIELDS, "data", "grid", "solver"), "config")
    try:
        kwargs = {name: doc[key] for key, name in _CONFIG_FIELDS.items() if key in doc}
        data = read_keys(doc.get("data", {}), ("synthetic", "csv"), "data")
        if "csv" in data:
            kwargs["csv_path"] = data["csv"]
        if "synthetic" in data:
            # the run's window (holdout at the field's own default when absent),
            # unless data.synthetic gives its length
            length = (whole_number(doc["train"], "train")
                      + whole_number(doc.get("holdout", ExperimentConfig.holdout), "holdout"))
            kwargs["synthetic"] = _from_object(SyntheticSpec, data["synthetic"], "data.synthetic",
                                               length=length)
        for key, name, cls in (("grid", "grid", GridSpec), ("solver", "options", SolverOptions)):
            if key in doc:
                kwargs[name] = _from_object(cls, doc[key], key)
        return ExperimentConfig(**kwargs)
    except MALFORMED_VALUE_ERRORS as exc:
        raise ConfigError(f"bad config: {type(exc).__name__}: {exc}") from None


def split_experiment_data(series: MultivariateSeries, train: int, holdout: int,
                          lag: int):
    """Standardize on the training window and embed; returns
    (norm_stats, train_set, holdout_set).

    The training set embeds only the first `train` raw rows; the hold-out
    pairs are the `holdout` pairs whose outputs immediately follow them (the
    first few look back across the boundary, as a live forecaster would).
    """
    needed = train + holdout
    if series.n_steps < needed:
        raise BadRangeError(
            f"series has {series.n_steps} steps, need train+holdout={needed}"
        )
    stats = standardize_fit(series, train)
    window = MultivariateSeries(values=series.values[:needed].copy(), names=list(series.names))
    std = standardize_apply(window, stats, "forward")
    sup = lag_embed(std, lag)
    train_set = sup.subset(np.arange(0, train - lag))
    holdout_set = sup.subset(np.arange(train - lag, train - lag + holdout))
    return stats, train_set, holdout_set


def select_lambda(config: ExperimentConfig, method: str, train_set) -> tuple[float, list | None]:
    """The penalty a run fits `method` at, and its CV curve (None without CV).

    A fixed config.lam wins; the mean predictor has nothing to select; a
    one-point grid is its own choice; otherwise cv_select runs with
    config.options, the budget of the final fit.
    """
    if config.lam is not None:
        return float(config.lam), None
    if method == "mean":
        return 0.0, None
    lam, curve = cv_select(train_set, method, config.grid, config.folds,
                           dictionary=config.dictionary, options=config.options)
    if config.grid.count == 1:
        return lam, None
    return lam, [float(v) for v in curve]


def fit_method(config: ExperimentConfig, method: str, train_set, lam, stats=None, names=None):
    """Fit one method at a fixed lambda with the run's dictionary and solver
    options: solver.fit for the kernel methods, baselines.fit_baseline for
    the rest."""
    if method in solver.KERNEL_METHODS:
        return solver.fit(method, train_set, lam, config.options, stats, names,
                          dictionary=config.dictionary)
    return baselines.fit_baseline(method, train_set, lam, config.options, stats, names)


def run_experiment(config: ExperimentConfig) -> dict:
    """Run the full protocol: standardize, embed, CV per method, final fit,
    hold-out evaluation, adjacency export. Per-method failures are recorded
    and do not abort the run; a ConfigError (a grid with a zero or infinite
    value) does. Returns the report dict (also written to
    out_dir with CSV artifacts when configured)."""
    if config.synthetic is not None:
        series = generate_synthetic(config.synthetic)
    else:
        series = read_csv(config.csv_path)
    stats, train_set, holdout_set = split_experiment_data(
        series, config.train, config.holdout, config.lag
    )

    report: dict = {
        "train": config.train,
        "holdout": config.holdout,
        "lag": config.lag,
        "folds": config.folds,
        "names": list(series.names),
        "methods": {},
    }
    adjacencies: dict = {}
    models: dict = {}
    for method in config.methods:
        entry: dict = {"status": "ok"}
        started = time.perf_counter()
        try:
            lam, entry["cv_curve"] = select_lambda(config, method, train_set)
            model = fit_method(config, method, train_set, lam, stats, series.names)
            mse, mse_std = evaluate_holdout(lambda X: modelio.predict_model(model, X), holdout_set)
            entry.update(lam=lam, mse=mse, mse_std=mse_std, n_holdout=holdout_set.n_pairs,
                         seconds=time.perf_counter() - started)
            if method in SPARSE_METHODS:
                adj = adjacencies[method] = modelio.model_adjacency(model)
                entry["adjacency"] = [[float(v) for v in row] for row in adj.values]
            models[method] = model
        except ConfigError:
            raise
        except (NlvarError, np.linalg.LinAlgError) as exc:  # record; go on with the others
            entry = {"status": "failed", "error": f"{type(exc).__name__}: {exc}",
                     "seconds": time.perf_counter() - started}
        report["methods"][method] = entry

    if config.out_dir is not None:
        _write_artifacts(report, adjacencies, models, config)
    return report


def _write_artifacts(report, adjacencies, models, config: ExperimentConfig):
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "report.json", "w") as fh:
        json.dump(report, fh, indent=2)
    lines = ["method,mse,mse_std,lambda,status"]
    for method, entry in report["methods"].items():
        if entry["status"] == "ok":
            lines.append(
                f"{method},{entry['mse']!r},{entry['mse_std']!r},{entry['lam']!r},ok"
            )
        else:
            lines.append(f"{method},,,,failed")
    (out / "mse_table.csv").write_text("\n".join(lines) + "\n")
    for method, adj in adjacencies.items():
        write_csv(MultivariateSeries(values=adj.values, names=report["names"]),
                  out / f"adjacency_{method}.csv")
    if config.save_models:
        for method, model in models.items():
            modelio.save_model(model, out / f"model_{method}.json")
