"""Seeded statistical properties of the estimators.

Each test fixes its seed range and was calibrated to pass with a wide margin;
tolerances follow the estimator guarantees (4 standard errors for
unbiasedness, 3 for agreement bands, 20% for variance-estimator consistency).
"""

import numpy as np

from shapeff import (EstimatorConfig, InputSpace, ModelFunction, Uniform,
                     estimate_main_effects, estimate_shapley_all,
                     estimate_shapley_winding, estimate_total_effects,
                     ishigami, ishigami_exact, ishigami_space, sobol_g,
                     sobol_g_exact, sobol_g_space)


def test_shapley_estimates_are_unbiased():
    f = ishigami()
    space = ishigami_space()
    exact = np.array(ishigami_exact().shapley)
    table = np.array([
        estimate_shapley_all(f, space, EstimatorConfig(n=2 ** 10, seed=5000 + s)).estimates
        for s in range(200)])
    se = table.std(axis=0, ddof=1) / np.sqrt(200)
    assert np.all(np.abs(table.mean(axis=0) - exact) < 4 * se)


def test_estimator_variance_decays_like_one_over_n():
    f = ishigami()
    space = ishigami_space()
    ns = [2 ** k for k in range(8, 15)]
    variances = []
    for n in ns:
        table = np.array([
            estimate_shapley_all(f, space, EstimatorConfig(n=n, seed=300 + s)).estimates
            for s in range(32)])
        variances.append(table.var(axis=0, ddof=1))
    variances = np.array(variances)
    for j in range(3):
        slope = np.polyfit(np.log2(ns), np.log2(variances[:, j]), 1)[0]
        assert -1.2 < slope < -0.8


def test_reported_variance_matches_across_seed_scatter():
    f = ishigami()
    space = ishigami_space()
    reports = [estimate_shapley_all(f, space, EstimatorConfig(n=2 ** 12, seed=700 + s))
               for s in range(64)]
    empirical = np.array([r.estimates for r in reports]).var(axis=0, ddof=1)
    reported = np.array([r.variance_of_estimator for r in reports]).mean(axis=0)
    assert np.all(np.abs(reported / empirical - 1.0) < 0.2)


def test_winding_agrees_with_permutation_walk():
    a = [float(j) for j in range(5)]
    f = sobol_g(a)
    space = sobol_g_space(5)
    winding = np.array([
        estimate_shapley_winding(f, space, EstimatorConfig(n=2 ** 12, seed=s)).estimates
        for s in range(30)])
    walk = np.array([
        estimate_shapley_all(f, space, EstimatorConfig(n=2 ** 12, seed=10000 + s)).estimates
        for s in range(30)])
    gap = winding.mean(axis=0) - walk.mean(axis=0)
    se = np.sqrt(winding.var(axis=0, ddof=1) / 30 + walk.var(axis=0, ddof=1) / 30)
    assert np.all(np.abs(gap) < 3 * se)
    exact = np.array(sobol_g_exact(a).shapley)
    se_w = winding.std(axis=0, ddof=1) / np.sqrt(30)
    assert np.all(np.abs(winding.mean(axis=0) - exact) < 3 * se_w)


def test_winding_single_variable_mean():
    f = ModelFunction(1, lambda x: x[:, 0], name="x1", vectorized=True)
    space = InputSpace([Uniform(0, 1)])
    values = np.array([
        estimate_shapley_winding(f, space, EstimatorConfig(n=2 ** 12, seed=s)).estimates[0]
        for s in range(30)])
    se = values.std(ddof=1) / np.sqrt(30)
    assert abs(values.mean() - 1 / 12) < 3 * se


def test_main_effects_match_closed_forms():
    f = ishigami()
    space = ishigami_space()
    exact = np.array(ishigami_exact().main)
    table = np.array([
        estimate_main_effects(f, space, EstimatorConfig(n=2 ** 16, seed=s)).estimates
        for s in range(40)])
    se = table.std(axis=0, ddof=1) / np.sqrt(40)
    assert np.all(np.abs(table.mean(axis=0) - exact) < 4 * se)


def test_total_effects_match_closed_forms():
    f = ishigami()
    space = ishigami_space()
    exact = np.array(ishigami_exact().total)
    table = np.array([
        estimate_total_effects(f, space, EstimatorConfig(n=2 ** 16, seed=s)).estimates
        for s in range(40)])
    se = table.std(axis=0, ddof=1) / np.sqrt(40)
    assert np.all(np.abs(table.mean(axis=0) - exact) < 4 * se)


def test_additive_uniform_model_effects():
    f = ModelFunction(2, lambda x: x[:, 0] + x[:, 1], name="sum", vectorized=True)
    space = InputSpace([Uniform(0, 1)] * 2)
    main = estimate_main_effects(f, space, EstimatorConfig(n=2 ** 16, seed=2))
    total = estimate_total_effects(f, space, EstimatorConfig(n=2 ** 16, seed=2))
    for j in range(2):
        assert abs(main.estimates[j] - 1 / 12) < 0.01
        assert abs(total.estimates[j] - 1 / 12) < 0.01
