"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest -s` to see them on success).

The benchmark-scale criteria use the repo's canonical seed; their MSE bands
are inherently statistical. The n=2000/n=3000 runs are marked slow and meant
for a nightly lane: `pytest -m slow`.
"""

import time

import numpy as np
import pytest
from oracles import cd_group_lasso, cg_solve, random_grouped_instance

from nlvar.grouplasso import GroupedProblem, SolverOptions, optimality_gap, solve_group_lasso
from nlvar.harness import (
    CANONICAL_SEED,
    ExperimentConfig,
    SyntheticSpec,
    default_psi,
    generate_synthetic,
    run_experiment,
)
from nlvar.kernels import GramStack, KernelSpec, build_feature_stack, build_gram_stack
from nlvar.series import MultivariateSeries, lag_embed
from nlvar.solver import solve_coefficients, solve_task_l1, solve_task_l12


def _report(cid: str, ok: bool, detail: str):
    print(f"\nACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def _random_gram_stack(rng, n, l):
    grams, specs = [], []
    for d in range(l):
        A = rng.standard_normal((n, n + 1))
        K = A @ A.T
        K *= n / np.trace(K)
        grams.append(K)
        specs.append(KernelSpec("gaussian", 1.0, partition=d, norm_factor=1.0))
    return GramStack.of(grams, specs)


def test_c1_group_lasso_matches_coordinate_descent_oracle():
    rng = np.random.default_rng(101)
    opts = SolverOptions(max_iter=200000, rel_tol=1e-13)
    t0 = time.perf_counter()
    worst_w, worst_gap = 0.0, 0.0
    for _ in range(25):
        blocks, y = random_grouped_instance(rng, n=int(rng.integers(6, 13)),
                                            n_groups=int(rng.integers(2, 5)))
        kappa = float(rng.uniform(0.05, 2.5))
        problem = GroupedProblem(blocks, y, kappa)
        sol = solve_group_lasso(problem, opts=opts)
        ref = cd_group_lasso(blocks, y, kappa)
        dev = max(float(np.max(np.abs(w - wr), initial=0.0)) for w, wr in zip(sol.weights, ref))
        gap = optimality_gap(problem, sol.weights) / kappa
        worst_w = max(worst_w, dev)
        worst_gap = max(worst_gap, gap)
    elapsed = time.perf_counter() - t0
    ok = worst_w <= 1e-6 and worst_gap <= 1e-4 and elapsed < 10.0
    assert _report(
        "C1",
        ok,
        f"25 instances, max |w - w_oracle| {worst_w:.2e} (tol 1e-6), "
        f"max gap/kappa {worst_gap:.2e} (tol 1e-4), {elapsed:.1f}s (< 10s)",
    )
    assert worst_w <= 1e-6 and worst_gap <= 1e-4 and elapsed < 10.0


def test_c2_closed_form_weights_and_representer_equivalence():
    rng = np.random.default_rng(102)
    opts = SolverOptions(max_iter=200000, rel_tol=1e-13)
    t0 = time.perf_counter()
    worst_cf, worst_rep = 0.0, 0.0
    for _ in range(10):
        n = int(rng.integers(8, 14))
        l = int(rng.integers(2, 5))
        stack = _random_gram_stack(rng, n, l)
        feats = build_feature_stack(stack)
        y = rng.standard_normal(n)
        lam = float(rng.uniform(0.05, 1.0))
        task = solve_task_l1(feats, stack, y, lam, opts=opts)
        cf = max(
            abs(task.a[d] - np.sqrt(lam) * np.linalg.norm(task.z_blocks[d]))
            for d in range(l)
        )
        feat_pred = sum(phi @ z for phi, z in zip(feats.features, task.z_blocks))
        kern_pred = sum(task.a[d] * stack.gram(d) @ task.c for d in range(l))
        rep = float(np.linalg.norm(feat_pred - kern_pred) / np.linalg.norm(y))
        worst_cf = max(worst_cf, cf)
        worst_rep = max(worst_rep, rep)
    elapsed = time.perf_counter() - t0
    ok = worst_cf <= 1e-10 and worst_rep <= 1e-6 and elapsed < 10.0
    assert _report(
        "C2",
        ok,
        f"10 instances, max closed-form dev {worst_cf:.2e} (tol 1e-10), "
        f"max representer dev {worst_rep:.2e} (tol 1e-6), {elapsed:.1f}s (< 10s)",
    )


def test_c3_coefficient_system_residual_and_cg_cross_check():
    rng = np.random.default_rng(103)
    worst_resid, worst_cg = 0.0, 0.0
    for _ in range(5):
        n = int(rng.integers(10, 30))
        l = int(rng.integers(2, 6))
        stack = _random_gram_stack(rng, n, l)
        a = rng.uniform(0.0, 3.0, l)
        a[rng.random(l) < 0.3] = 0.0
        y = rng.standard_normal(n)
        lam = float(rng.uniform(0.01, 2.0))
        c = solve_coefficients(stack, a, y, lam)
        M = lam * np.eye(n) + sum(a[d] * stack.gram(d) for d in range(l))
        worst_resid = max(worst_resid, float(np.linalg.norm(M @ c - y) / np.linalg.norm(y)))
        worst_cg = max(worst_cg, float(np.max(np.abs(c - cg_solve(M, y)))))
    ok = worst_resid <= 1e-8 and worst_cg <= 1e-8
    assert _report(
        "C3",
        ok,
        f"5 instances, max relative residual {worst_resid:.2e} (tol 1e-8), "
        f"max |c - c_cg| {worst_cg:.2e}",
    )


def test_c4_monotone_descent_everywhere():
    rng = np.random.default_rng(104)
    violations = 0
    checked = 0

    def check(trace):
        nonlocal violations, checked
        t = np.asarray(trace)
        checked += len(t) - 1
        slack = 1e-12 * np.maximum(1.0, np.abs(t[:-1]))
        violations += int(np.sum(t[1:] > t[:-1] + slack))

    for _ in range(40):
        blocks, y = random_grouped_instance(rng)
        kappa = float(rng.choice([0.0, 0.05, 0.5, 2.0, 20.0]))
        sol = solve_group_lasso(GroupedProblem(blocks, y, kappa))
        check(sol.objective_trace)
    for _ in range(25):
        n = int(rng.integers(6, 14))
        stack = _random_gram_stack(rng, n, int(rng.integers(2, 6)))
        y = rng.standard_normal(n)
        task = solve_task_l12(stack, stack.group_index, y, float(rng.uniform(0.02, 20.0)))
        check(task.objective_trace)
    ok = violations == 0
    assert _report(
        "C4",
        ok,
        f"{checked} accepted steps across 40 ISTA + 25 alternating solves, "
        f"{violations} monotonicity violations (0 tolerated)",
    )


# ---------------------------------------------------------------------------
# benchmark-scale criteria


def _benchmark(train, methods, length=None):
    config = ExperimentConfig(
        train=train,
        holdout=500,
        lag=5,
        methods=methods,
        synthetic=SyntheticSpec(length=length or (train + 500), seed=CANONICAL_SEED),
    )
    return run_experiment(config)


@pytest.fixture(scope="module")
def benchmark_1000():
    return _benchmark(1000, ("mean", "lvarl2", "nvarl1"))


def test_c5_forecasting_bands_at_1000(benchmark_1000):
    report = benchmark_1000
    entries = report["methods"]
    for method in ("mean", "lvarl2", "nvarl1"):
        assert entries[method]["status"] == "ok", entries[method]
    mean_mse = entries["mean"]["mse"]
    ridge_mse = entries["lvarl2"]["mse"]
    nvarl1_mse = entries["nvarl1"]["mse"]
    seconds = sum(entries[m]["seconds"] for m in entries)
    ok = (
        0.83 <= mean_mse <= 1.02
        and nvarl1_mse < ridge_mse
        and nvarl1_mse < mean_mse
        and 0.62 <= nvarl1_mse <= 0.74
    )
    assert _report(
        "C5",
        ok,
        f"mean {mean_mse:.3f} in [0.83, 1.02]; nvarl1 {nvarl1_mse:.3f} in [0.62, 0.74] "
        f"and < lvarl2 {ridge_mse:.3f} and < mean; runtime {seconds:.0f}s (target < 600s)",
    )


@pytest.mark.slow
def test_c6_larger_sample_gap_at_3000():
    t0 = time.perf_counter()
    report = _benchmark(3000, ("nvarl1", "lvarl1"))
    entries = report["methods"]
    nvarl1_mse = entries["nvarl1"]["mse"]
    lvarl1_mse = entries["lvarl1"]["mse"]
    elapsed = time.perf_counter() - t0
    ok = 0.576 <= nvarl1_mse <= 0.676 and nvarl1_mse <= 0.95 * lvarl1_mse
    assert _report(
        "C6",
        ok,
        f"nvarl1 {nvarl1_mse:.3f} in [0.576, 0.676] and >=5% below lvarl1 "
        f"{lvarl1_mse:.3f}; runtime {elapsed:.0f}s (stated < 2700s)",
    )


def _cross_block_stats(values):
    total = float(values.sum())
    cross = float(values[:3, 3:].sum() + values[3:, :3].sum())
    n_cross = values[:3, 3:].size + values[3:, :3].size
    zeros = int(np.sum(values[:3, 3:] == 0.0) + np.sum(values[3:, :3] == 0.0))
    return cross / total if total > 0 else 0.0, zeros, n_cross


@pytest.mark.slow
def test_c7_granger_block_structure_at_2000():
    report = _benchmark(2000, ("nvarl1", "nvarl12", "lvarl1"))
    entries = report["methods"]
    details = []
    ok = True
    for method in ("nvarl1", "nvarl12", "lvarl1"):
        assert entries[method]["status"] == "ok", entries[method]
        values = np.asarray(entries[method]["adjacency"])
        frac, zeros, n_cross = _cross_block_stats(values)
        details.append(f"{method} cross mass {100 * frac:.2f}% ({zeros}/{n_cross} exact zeros)")
        ok = ok and frac < 0.05
    assert _report("C7", ok, "; ".join(details) + " (tol < 5%)")


def test_c8_generator_moments_at_1e6():
    series = generate_synthetic(SyntheticSpec(length=10**6, seed=CANONICAL_SEED))
    psi = default_psi()
    target = 1.0 + np.sum(psi**2, axis=1)
    sample = series.values.var(axis=0)
    rel = np.max(np.abs(sample - target) / target)
    v = series.values - series.values.mean(axis=0)
    worst_cross = 0.0
    for i in (0, 1, 2):
        for j in (3, 4):
            worst_cross = max(
                worst_cross,
                abs(float(np.mean(v[1:, i] * v[:-1, j]))),
                abs(float(np.mean(v[1:, j] * v[:-1, i]))),
            )
    ok = rel <= 0.02 and worst_cross <= 0.02
    assert _report(
        "C8",
        ok,
        f"variances {np.round(sample, 3).tolist()} vs {np.round(target, 4).tolist()} "
        f"(max rel dev {100 * rel:.2f}%, tol 2%); max cross-block lag-1 cov "
        f"{worst_cross:.4f} (tol 0.02)",
    )


def test_c9_property_suite_is_wired_in():
    # the invariant/property tests live in the module suites that run
    # alongside this file; assert the named coverage is present
    import test_baselines
    import test_grouplasso
    import test_harness
    import test_kernels
    import test_series
    import test_solver

    required = [
        (test_kernels, "test_gram_trace_equals_sample_size"),
        (test_kernels, "test_gram_psd_and_symmetric_by_independent_eigensolver"),
        (test_kernels, "test_partition_isolation"),
        (test_grouplasso, "test_prox_at_exact_threshold"),
        (test_grouplasso, "test_prox_identity_at_zero_threshold"),
        (test_grouplasso, "test_objective_trace_monotone"),
        (test_grouplasso, "test_warm_starts_reach_same_objective"),
        (test_grouplasso, "test_target_and_penalty_scaling_scales_weights"),
        (test_series, "test_apply_round_trip"),
        (test_series, "test_embed_pair_count"),
        (test_series, "test_partition_map_covers_all_columns_and_values"),
        (test_solver, "test_fit_permutation_equivariance"),
        (test_solver, "test_fit_separability_bitwise"),
        (test_solver, "test_tau_absorption_identity"),
        (test_solver, "test_fit_weights_nonnegative_both_methods"),
        (test_solver, "test_l12_outer_trace_monotone"),
        (test_baselines, "test_lar_equals_lvarl2_for_univariate_series"),
        (test_baselines, "test_nvar_full_univariate_matches_nvarl1_bitwise"),
        (test_baselines, "test_ridge_shrinkage_monotone_in_lambda"),
        (test_harness, "test_split_never_touches_holdout_rows"),
        (test_harness, "test_run_experiment_deterministic"),
        (test_harness, "test_cv_warm_start_equivalence_on_l1_path"),
    ]
    missing = [name for mod, name in required if not callable(getattr(mod, name, None))]
    ok = not missing
    assert _report(
        "C9",
        ok,
        f"{len(required)} property tests wired into the suite"
        + (f"; MISSING {missing}" if missing else ""),
    )
