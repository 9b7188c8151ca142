"""The benchmark's workloads: inputs made from the seed, the timed phase, and
the checks of its outputs. See README.md for why each workload exists.

A fit workload runs `run_experiment` on one or more synthetic series (one
per unit), each handed to the program as a CSV through config `data.csv`,
then checks the forecasts of the fitted headline model: one `nlvar predict`
over the series and one `predict_model` call per row. The `predict` workload
times serving of a fixed model that no solver produced: `nlvar predict` and
one-row calls in a closed loop with one caller.
"""

from __future__ import annotations

import contextlib
import io
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

#: The two coupled blocks of the benchmark process: series y1..y3 and y4..y5.
BLOCKS = ((0, 1, 2), (3, 4))

LAG = 5

#: Relative tolerance between batch CLI forecasts and one-row forecasts.
SAME_FORECAST_RTOL = 1e-9

#: Set-ups per run, at least, so that setup_s is a median.
MIN_SETUPS = 5


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def unit_seed(seed: int, unit: int) -> int:
    """Seed of the series for one unit; unit 0 uses the run's seed itself."""
    return seed + 1000 * unit


@dataclass
class Tally:
    """What one run measured and checked, pooled over its units."""

    setup_s: list = field(default_factory=list)
    run_s: list = field(default_factory=list)
    #: per `predict` pass: batch rows/s and one-row latency p50 and p90
    served: list = field(default_factory=list)
    call_ms: list = field(default_factory=list)
    #: (headline, mean predictor) hold-out MSE per unit
    mse: list = field(default_factory=list)
    #: headline adjacency per unit, largest entry 1 (all zero for a null model)
    adjacency: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    tasks: int = 0
    tasks_ok: int = 0
    problems: list = field(default_factory=list)
    units: list = field(default_factory=list)

    def expect(self, ok: bool, message: str):
        if not ok:
            self.problems.append(message)

    def mse_ratio(self) -> float:
        """Headline over mean-predictor MSE, pooled over the units' hold-outs
        (all of one workload's hold-outs have the same size)."""
        return sum(h for h, _ in self.mse) / sum(b for _, b in self.mse)

    def within_mass(self) -> float:
        return checks.adjacency_within_mass(sum(self.adjacency), BLOCKS)


def serve(tally: Tally, model_path: Path, data_csv: Path, out_csv: Path,
          calls: int | None, label: str) -> dict:
    """One run of `nlvar predict` over data_csv, then `calls` one-row
    `predict_model` calls over its rows in turn (None: one call per row), in
    a closed loop with one caller.

    Checks that the CLI wrote rows - lag finite forecasts and that the
    one-row forecasts equal the batch ones.
    """
    import nlvar.cli
    from nlvar import lag_embed, load_model, predict_model, read_csv, standardize_apply

    quiet = io.StringIO()

    series = read_csv(data_csv)
    rows = series.n_steps - LAG
    calls = rows if calls is None else calls
    started = time.perf_counter()
    with contextlib.redirect_stdout(quiet):
        code = nlvar.cli.main(["predict", "--model", str(model_path), "--data",
                               str(data_csv), "--out", str(out_csv)])
    batch_s = time.perf_counter() - started
    forecasts = read_csv(out_csv).values if code == 0 else np.empty((0, series.n_series))
    batch_ok = code == 0 and bool(np.all(np.isfinite(forecasts)))
    tally.attempted += 1
    tally.failed += 0 if batch_ok else 1
    tally.expect(batch_ok, f"{label}: nlvar predict exited with {code} or wrote "
                           "non-finite forecasts")
    tally.expect(forecasts.shape[0] == rows,
                 f"{label}: CLI wrote {forecasts.shape[0]} forecasts for {rows} rows")

    model = load_model(model_path)
    inputs = lag_embed(standardize_apply(series, model.norm_stats), LAG).inputs
    std, mean = model.norm_stats.std, model.norm_stats.mean
    call_ms = []
    worst = 0.0
    for k in range(calls):
        row = k % rows
        t0 = time.perf_counter()
        try:
            pred = predict_model(model, inputs[row:row + 1])
        except Exception as exc:  # a raising call is a failed operation
            pred, error = None, f"raised {type(exc).__name__}: {exc}"
        call_ms.append((time.perf_counter() - t0) * 1e3)
        if pred is not None and not np.all(np.isfinite(pred)):
            pred, error = None, "returned a non-finite forecast"
        if pred is None:
            tally.failed += 1
            tally.expect(False, f"{label}: one-row call on row {row} {error}")
            continue
        if row < forecasts.shape[0]:
            value = pred[0] * std + mean
            scale = max(1.0, float(np.max(np.abs(forecasts[row]))))
            worst = max(worst, float(np.max(np.abs(value - forecasts[row]))) / scale)
    tally.attempted += calls
    tally.expect(worst <= SAME_FORECAST_RTOL,
                 f"{label}: one-row forecasts differ from the CLI's by {worst:.3e}")
    return {"batch_s": batch_s, "rows": rows, "calls": calls, "call_ms": call_ms,
            "max_rel_diff": worst}


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FitWorkload:
    """run_experiment on `units` series, then the headline model's forecasts."""

    name: str
    train: int
    holdout: int
    methods: tuple
    headline: str
    config: dict
    #: nominal seconds of one unit on a 2-vCPU machine; sets the unit count
    unit_s: float
    #: traced-run guard: this layer must record calls
    busy: str
    #: fewest units in a run, whatever --seconds asks for
    min_units: int = 1

    def units(self, seconds: float) -> int:
        return max(self.min_units, round(seconds / self.unit_s))

    def run(self, seed: int, seconds: float, workdir: Path, tracer=None) -> Tally:
        from nlvar import SyntheticSpec, generate_synthetic, write_csv

        tally = Tally()
        units = self.units(seconds)
        inputs = []
        for u in range(max(MIN_SETUPS, units)):
            started = time.perf_counter()
            spec = SyntheticSpec(length=self.train + self.holdout, seed=unit_seed(seed, u))
            series = generate_synthetic(spec)
            data_csv = workdir / f"data_{u}.csv"
            write_csv(series, data_csv)
            doc = dict(self.config, data={"csv": str(data_csv)}, train=self.train,
                       holdout=self.holdout, lag=LAG, methods=list(self.methods),
                       out_dir=str(workdir / f"out_{u}"), save_models=True)
            tally.setup_s.append(time.perf_counter() - started)
            if u < units:
                inputs.append((u, series, data_csv, doc))

        for u, series, data_csv, doc in inputs:
            tally.units.append(self._unit(tally, u, seed, series, data_csv, doc, tracer))
        if tally.mse:
            tally.expect(tally.mse_ratio() < 1.0,
                         f"{self.headline} MSE not below the mean predictor's over the "
                         f"run's hold-outs (ratio {tally.mse_ratio():.4f})")
        return tally

    def _unit(self, tally, u, seed, series, data_csv, doc, tracer) -> dict:
        from nlvar.harness import experiment_config_from_dict, run_experiment

        flags_before = len(tracer.l1_flags) if tracer is not None else 0
        if tracer is not None:
            tracer.enabled = True
        started = time.perf_counter()
        report = run_experiment(experiment_config_from_dict(doc))
        tally.run_s.append(time.perf_counter() - started)
        if tracer is not None:
            tracer.enabled = False
        record = {"seed": unit_seed(seed, u), "run_s": tally.run_s[-1],
                  "methods": self._check_report(tally, report, series, doc)}
        if tracer is not None and self.headline == "nvarl1":
            # the outside check must agree with the solver's converged flag on
            # every nvarl1 final task, both ways
            flags = tracer.l1_flags[flags_before:]
            passed = record["methods"]["nvarl1"].get("passed", [])
            record["solver_converged"] = flags
            tally.expect(flags == passed, f"unit {u}: solver converged flags {flags} "
                                          f"differ from the outside check {passed}")

        out_dir = Path(doc["out_dir"])
        model_path = out_dir / f"model_{self.headline}.json"
        if model_path.is_file():
            served = serve(tally, model_path, data_csv, out_dir / "forecasts.csv", None,
                           f"unit {u}")
            del served["call_ms"]
            record["serve"] = served
        else:
            tally.expect(False, f"unit {u}: no saved {self.headline} model")
        return record

    def _check_report(self, tally, report, series, doc) -> dict:
        from nlvar import load_model, split_experiment_data

        _, train, _ = split_experiment_data(series, self.train, self.holdout, LAG)
        m = train.n_series
        rows = report["methods"]
        out = {}
        for method in self.methods:
            entry = rows.get(method, {"status": "missing"})
            info = {"status": entry["status"]}
            out[method] = info
            tally.attempted += m
            tally.tasks += m
            if entry["status"] != "ok":
                tally.failed += m
                tally.expect(False, f"{method}: row {entry['status']}: {entry.get('error')}")
                continue
            mse = entry["mse"]
            info.update(mse=mse, lam=entry["lam"])
            tally.expect(math.isfinite(mse), f"{method}: hold-out MSE {mse}")
            if entry.get("cv_curve") is not None:
                info.update(grid_position(method, entry["lam"], train, doc))
            model = load_model(Path(doc["out_dir"]) / f"model_{method}.json")
            gaps, tol = checks.task_gaps(method, model, train)
            passed = [bool(g <= tol) for g in gaps]
            info.update(gaps=[float(g) for g in gaps], tol=tol, passed=passed)
            tally.tasks_ok += sum(passed)

        head, base = rows.get(self.headline, {}), rows.get("mean", {})
        if head.get("status") == "ok" and base.get("status") == "ok":
            # CV may pick the all-zero model, which is the mean predictor; a
            # headline worse than that is broken. The run as a whole must beat
            # it (checked in `run`).
            tally.expect(head["mse"] <= base["mse"],
                         f"{self.headline} MSE {head['mse']:.4f} above the mean "
                         f"predictor's {base['mse']:.4f}")
            tally.mse.append((head["mse"], base["mse"]))
            tally.adjacency.append(np.asarray(head["adjacency"]))
        return out


def grid_position(method: str, lam: float, train, doc) -> dict:
    """Where the CV-selected penalty sits on its grid."""
    from nlvar.harness import GridSpec, scale_count

    grid = GridSpec(**doc.get("grid", {}))
    lams = grid.values(math.sqrt(train.n_pairs) * scale_count(method, train.n_series))
    k = int(np.argmin(np.abs(np.log(lams) - math.log(lam))))
    return {"grid_index": k, "grid_count": grid.count,
            "grid_edge": k in (0, grid.count - 1)}


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PredictWorkload:
    """Serving a fixed kernel model: batch CLI forecasts and one-row calls."""

    name: str
    n_train: int
    rows: int
    calls: int
    lam: float
    #: nominal seconds of one pass (batch + calls) on a 2-vCPU machine
    pass_s: float
    busy: str = "kernels.cross_calls"

    def passes(self, seconds: float) -> int:
        return max(1, round(seconds / self.pass_s))

    def build(self, seed: int, workdir: Path):
        """The fixed model: all kernels active with weight 1 and C from
        solve_coefficients; no solver chooses anything in it."""
        from nlvar import (ModelFit, MultivariateSeries, SyntheticSpec, build_gram_stack,
                           generate_synthetic, lag_embed, save_model, solve_coefficients,
                           standardize_apply, standardize_fit, write_csv)

        series = generate_synthetic(SyntheticSpec(length=self.n_train + self.rows, seed=seed))
        stats = standardize_fit(series, self.n_train)
        head = MultivariateSeries(values=series.values[: self.n_train], names=series.names)
        train = lag_embed(standardize_apply(head, stats), LAG)
        grams = build_gram_stack(train.inputs, train.partition_map)
        m = train.n_series
        A = np.ones((grams.n_kernels, m))
        C = np.column_stack([solve_coefficients(grams, A[:, s], train.outputs[:, s], self.lam)
                             for s in range(m)])
        model = ModelFit(method="nvarl1", A=A, C=C, specs=grams.specs,
                         group_index=grams.group_index, training_inputs=train.inputs,
                         norm_stats=stats, lag=LAG, lam=np.full(m, self.lam),
                         names=list(series.names))
        model_path = workdir / "model.json"
        save_model(model, model_path)
        data_csv = workdir / "predict.csv"
        tail = MultivariateSeries(values=series.values[self.n_train:], names=series.names)
        write_csv(tail, data_csv)
        return model_path, data_csv, tail, stats

    def run(self, seed: int, seconds: float, workdir: Path, tracer=None) -> Tally:
        from nlvar import model_adjacency, load_model, read_csv

        tally = Tally()
        for _ in range(MIN_SETUPS):
            started = time.perf_counter()
            model_path, data_csv, tail, stats = self.build(seed, workdir)
            tally.setup_s.append(time.perf_counter() - started)

        out_csv = workdir / "forecasts.csv"
        for p in range(self.passes(seconds)):
            if tracer is not None:
                tracer.enabled = True
            started = time.perf_counter()
            record = serve(tally, model_path, data_csv, out_csv, self.calls, f"pass {p}")
            tally.run_s.append(time.perf_counter() - started)
            if tracer is not None:
                tracer.enabled = False
            call_ms = record.pop("call_ms")
            tally.call_ms.extend(call_ms)
            tally.served.append({"rows_per_s": record["rows"] / record["batch_s"],
                                 "p50": percentile(call_ms, 50),
                                 "p90": percentile(call_ms, 90)})
            tally.units.append(record)

        forecasts = read_csv(out_csv).values
        actual = (tail.values[LAG:] - stats.mean) / stats.std
        errors = (forecasts - stats.mean) / stats.std - actual
        tally.mse.append((float(np.mean(errors ** 2)), float(np.mean(actual ** 2))))
        tally.adjacency.append(model_adjacency(load_model(model_path)).values)
        # each one-row call and each batch run is one task
        tally.tasks, tally.tasks_ok = tally.attempted, tally.attempted - tally.failed
        return tally


WORKLOADS = {
    w.name: w
    for w in (
        FitWorkload(
            name="cv-l1", train=300, holdout=1500,
            methods=("mean", "lvarl2", "lvarl1", "nvarl1"), headline="nvarl1",
            config={"grid": {"count": 8, "low_exp": -3.5, "high_exp": 3.5}, "folds": 3},
            unit_s=24.0, busy="grouplasso.solves", min_units=2,
        ),
        FitWorkload(
            name="fit-l12-large", train=1000, holdout=500, methods=("mean", "nvarl12"),
            headline="nvarl12", config={"lambda": 300.0, "solver": {"max_iter": 15}},
            unit_s=16.0, busy="solver.coef_calls",
        ),
        PredictWorkload(name="predict", n_train=1000, rows=6000, calls=1000, lam=10.0,
                        pass_s=6.2),
    )
}
