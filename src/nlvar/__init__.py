"""Kernel-based one-step-ahead forecasting of multivariate time series with
learned sparse kernel weights and Granger-causality graph extraction."""

from .grouplasso import GroupedProblem, optimality_gap
from .harness import SyntheticSpec, cv_select, generate_synthetic, split_experiment_data
from .kernels import build_gram_stack
from .modelio import load_model, model_adjacency, predict_model, save_model
from .series import (
    MultivariateSeries,
    lag_embed,
    read_csv,
    standardize_apply,
    standardize_fit,
    write_csv,
)
from .solver import ModelFit, adjacency, fit, predict, solve_coefficients

__version__ = "0.1.0"
