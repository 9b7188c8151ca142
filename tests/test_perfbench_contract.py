"""The benchmark's tracer (perfbench/tracing.py) times the package by wrapping
named module bindings. These tests catch, in about a second, a change that
removes one of those bindings or moves work off the path it times."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

from nlvar.harness import ExperimentConfig, GridSpec, SyntheticSpec, run_experiment

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


def test_nvarl12_fit_records_coefficient_solves_and_newton_counts():
    # the traced fit-l12-large run requires solver.coef calls and reads the
    # solver.l12_* counters from each solve_task_l12 result
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
    assert not tracer.broken
