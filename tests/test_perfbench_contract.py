"""The benchmark's tracer (perfbench/tracing.py) times the package by wrapping
named module bindings, and its workloads build inputs through the package's
constructors. These tests catch, in about a second, a change that removes
one of those bindings or constructor arguments, or moves work off the path
the tracer times."""

import ast
import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from nlvar.harness import ExperimentConfig, GridSpec, SyntheticSpec, run_experiment
from nlvar.modelio import load_model

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_resolves():
    for mod_name, attr, _, _ in _tracing().ENTRY_POINTS:
        binding = getattr(importlib.import_module(mod_name), attr, None)
        assert callable(binding), f"{mod_name}.{attr}"


def test_every_benchmark_import_resolves():
    # the benchmark imports these names from the package; a trimmed export
    # or a renamed function must fail here, not in a benchmark run
    checked = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "nlvar":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), f"{path.name}: {node.module}.{alias.name}"
                    checked.append(alias.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "nlvar":
                        importlib.import_module(alias.name)
    assert "ModelFit" in checked and "experiment_config_from_dict" in checked


def test_nvarl1_final_fit_solves_each_output_once_through_solver():
    # the traced cv-l1 run pairs one solver.solve_group_lasso call with each
    # nvarl1 output of the final fit; CV must make none
    config = ExperimentConfig(
        train=60, holdout=20, lag=3, methods=("mean", "lvarl1", "nvarl1"),
        synthetic=SyntheticSpec(length=80, seed=20),
        grid=GridSpec(count=3, low_exp=-1.0, high_exp=1.0), folds=2,
    )
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        report = run_experiment(config)
    finally:
        tracer.uninstall()
    assert all(entry["status"] == "ok" for entry in report["methods"].values())
    assert len(tracer.l1_flags) == 5
    assert not tracer.broken
    # the grouplasso counters read iterations and converged from the
    # _solve_stacked result by position
    metrics = tracer.layer_metrics()
    assert metrics["grouplasso.solves"]["value"] > 0
    assert metrics["grouplasso.iters"]["value"] >= metrics["grouplasso.solves"]["value"]
    assert metrics["grouplasso.unconverged"]["value"] == 0
    # the l1 route reads the coefficients off the group-lasso residual
    assert metrics["solver.coef_calls"]["value"] == 0


def test_nvarl12_fit_records_coefficient_solves_and_newton_counts(monkeypatch):
    # the traced fit-l12-large run requires solver.coef calls, reads the
    # solver.l12_* counters from each solve_task_l12 result, and times the
    # Gram stack through solver.build_gram_stack; at a fixed lambda the
    # harness builds none
    import nlvar.harness

    def no_cv_stack(*args, **kwargs):
        raise AssertionError("harness.build_gram_stack called at a fixed lambda")

    monkeypatch.setattr(nlvar.harness, "build_gram_stack", no_cv_stack)
    config = ExperimentConfig(
        train=60, holdout=20, lag=3, methods=("mean", "nvarl12"), lam=1.0,
        synthetic=SyntheticSpec(length=80, seed=20),
    )
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        report = run_experiment(config)
    finally:
        tracer.uninstall()
    assert all(entry["status"] == "ok" for entry in report["methods"].values())
    metrics = tracer.layer_metrics()
    assert metrics["solver.coef_calls"]["value"] == 5
    assert metrics["solver.l12_outer_iters"]["value"] >= 5
    assert metrics["solver.l12_unconverged"]["value"] == 0
    assert [span.name for span in tracer.spans].count("kernels.gram") == 1
    l, n = 5 * 6, 60 - 3  # 5 series x 6 default kernels; train rows less the lag
    assert metrics["kernels.gram_bytes"]["value"] == l * n * n * 8
    assert metrics["kernels.gram_s"]["value"] > 0.0
    assert not tracer.broken


def test_predict_workload_builds_its_fixed_model(tmp_path, monkeypatch):
    # the predict workload's setup constructs ModelFit itself, group_index
    # included: a change to that constructor must fail here, not in a
    # benchmark setup
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads imports checks
    workloads = importlib.import_module("workloads")
    workload = dataclasses.replace(workloads.WORKLOADS["predict"], n_train=60, rows=30)
    model_path, data_csv, tail, _ = workload.build(20, tmp_path)
    model = load_model(model_path)
    assert model.A.shape == (len(model.specs), tail.values.shape[1])
    assert model.A.all() and data_csv.exists()


def test_traced_predict_serves_each_partition_through_one_solver_cross_gram(tmp_path, monkeypatch):
    # the traced predict run counts its cross-Gram work as the
    # nlvar.solver.cross_gram spans inside solver.predict: serving must go
    # through that binding, once per active partition and row block
    from nlvar.modelio import predict_model
    from nlvar.solver import _PREDICT_BLOCK_ROWS

    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    workload = dataclasses.replace(workloads.WORKLOADS["predict"], n_train=60, rows=30)
    model = load_model(workload.build(20, tmp_path)[0])
    model.A[6:12] = 0.0  # partition 1 serves nothing
    rows = np.random.default_rng(3).standard_normal((2 * _PREDICT_BLOCK_ROWS + 1,
                                                     model.training_inputs.shape[1]))
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        predict_model(model, rows)
        predict_model(model, rows[0])
    finally:
        tracer.uninstall()
    assert not tracer.broken
    predicts = [i for i, span in enumerate(tracer.spans) if span.name == "solver.predict"]
    crosses = [span for span in tracer.spans if span.name == "kernels.cross"]
    assert len(predicts) == 2 and crosses
    assert all(span.parent in predicts for span in crosses)
    active = 4  # of the 5 partitions
    assert len(crosses) <= active * 3 + active  # 3 row blocks, then one row
