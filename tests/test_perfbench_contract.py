"""The benchmark's tracer (perfbench/tracing.py) times the package by wrapping
named module bindings. These tests catch, in about a second, a change that
removes one of those bindings or moves work off the path it times."""

import importlib
import importlib.util
import sys
from pathlib import Path

from nlvar.harness import ExperimentConfig, GridSpec, SyntheticSpec, run_experiment

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
