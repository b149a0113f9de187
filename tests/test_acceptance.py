"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every criterion states its tolerance inline. The printed lines bypass pytest
capture so the verdicts are visible in any run.
"""

import math

import numpy as np
import pytest

from shapeff import (EstimatorConfig, InputSpace, ModelFunction, Uniform,
                     anova_oracle, constant_model, convergence_study,
                     estimate_main_effects, estimate_shapley_all,
                     estimate_total_effects, ishigami, ishigami_exact, ishigami_space,
                     plate_buckling, plate_buckling_space, shapley_from_anova,
                     sobol_g, sobol_g_anova, sobol_g_exact, sobol_g_space)
from test_models import KIND_TABLE, run_kind


@pytest.fixture
def verdict(capsys):
    def _verdict(criterion: str, ok: bool) -> bool:
        with capsys.disabled():
            print(f"\n[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}")
        return ok
    return _verdict


def test_criterion_1_exact_reference_identities(verdict):
    """Sum of Shapley effects equals sigma^2; main <= shapley <= total; 1e-12 rel."""
    ok = True
    cases = [ishigami_exact(7.0, 0.1)]
    for d in range(1, 13):
        cases.append(sobol_g_exact([float(j) for j in range(d)]))
    for idx in cases:
        ok &= abs(math.fsum(idx.shapley) - idx.sigma2) <= 1e-12 * idx.sigma2
        slack = 1e-12 * idx.sigma2
        for j in range(idx.d):
            ok &= idx.main[j] <= idx.shapley[j] + slack
            ok &= idx.shapley[j] <= idx.total[j] + slack
    assert verdict("criterion 1: exact-reference identities", bool(ok))


def test_criterion_2_cross_oracle_agreement(verdict):
    """Owen split of closed-form subset variances matches the enumeration path
    to 1e-12 relative for d <= 12; the quadrature oracle reproduces the d=3
    subset variances within 1e-6."""
    ok = True
    for d in range(1, 13):
        a = [float(j) for j in range(d)]
        exact = sobol_g_exact(a)
        phi = shapley_from_anova(sobol_g_anova(a))
        ok &= np.max(np.abs(phi - np.array(exact.shapley))) <= 1e-12 * exact.sigma2

    a3 = [0.0, 1.0, 2.0]
    anova = anova_oracle(sobol_g(a3), sobol_g_space(3), 64, panels=2)
    closed = sobol_g_anova(a3)
    for u, want in closed.subset_variances.items():
        ok &= abs(anova.subset_variances[u] - want) <= 1e-6
    assert verdict("criterion 2: cross-oracle agreement", bool(ok))


def test_criterion_3_ishigami_estimation(verdict):
    """One run at N=2^14 brackets all exact values in its 95% CIs; coverage
    over 500 seeds at N=2^12 is within 95% +/- 4% per variable."""
    f = ishigami()
    space = ishigami_space()
    exact = np.array(ishigami_exact().shapley)

    report = estimate_shapley_all(f, space, EstimatorConfig(n=2 ** 14, seed=1))
    single = bool(np.all((np.array(report.ci_low) <= exact)
                         & (exact <= np.array(report.ci_high))))

    hits = np.zeros(3)
    for s in range(500):
        rep = estimate_shapley_all(f, space, EstimatorConfig(n=2 ** 12, seed=s))
        hits += (np.array(rep.ci_low) <= exact) & (exact <= np.array(rep.ci_high))
    coverage = hits / 500
    covered = bool(np.all(np.abs(coverage - 0.95) <= 0.04))

    assert verdict("criterion 3: ishigami estimation (CI + coverage)", single and covered)


def test_criterion_4_rate_reproduction(verdict):
    """Mean SSE decays with fitted log-log slope -1 +/- 0.2 on all three
    benchmarks; the plate uses the trial-mean SSE variant."""
    ns = [2 ** k for k in range(8, 15)]
    ishigami_study = convergence_study(ishigami(), ishigami_space(), "shapley",
                                       ns, 10, 42, exact=ishigami_exact())
    a10 = [float(j) for j in range(10)]
    g_study = convergence_study(sobol_g(a10), sobol_g_space(10), "shapley",
                                ns, 10, 42, exact=sobol_g_exact(a10))
    plate_study = convergence_study(plate_buckling(), plate_buckling_space(),
                                    "shapley", ns, 10, 42)
    ok = True
    for study in (ishigami_study, g_study, plate_study):
        ok &= study.fitted_slope is not None and -1.2 <= study.fitted_slope <= -0.8
    assert verdict("criterion 4: 1/N convergence rate on all benchmarks", bool(ok))


def test_criterion_5_cost_contracts(verdict):
    """eval_count is exactly (d+1)N for the permutation walk and dN+1 for
    winding stairs, for d in {1, 3, 10} and N in {2, 100}."""
    cases = [
        (ModelFunction(1, lambda x: x[:, 0], name="x1", vectorized=True),
         InputSpace([Uniform(0, 1)])),
        (ishigami(), ishigami_space()),
        (sobol_g([float(j) for j in range(10)]), sobol_g_space(10)),
    ]
    ok = True
    for f, space in cases:
        for kind in ("shapley", "winding"):
            for n in (2, 100):
                f.reset_count()
                rep = run_kind(kind, f, space, EstimatorConfig(n=n, seed=1))
                ok &= rep.eval_count == KIND_TABLE[kind].cost(space.d, n)
    assert verdict("criterion 5: evaluation-cost contracts", bool(ok))


def test_criterion_6_telescoping_identity(verdict):
    """Sum of estimates equals the mean of 0.5*(f(x)-f(y))^2 to 1e-10 relative
    on every builtin model at N = 2^10."""
    models = [
        (ishigami(), ishigami_space()),
        (sobol_g([0.0, 1.0, 2.0]), sobol_g_space(3)),
        (sobol_g([float(j) for j in range(10)]), sobol_g_space(10)),
        (plate_buckling(), plate_buckling_space()),
        (constant_model(2.0, 3), InputSpace([Uniform(0, 1)] * 3)),
    ]
    ok = True
    for f, space in models:
        rep = estimate_shapley_all(f, space, EstimatorConfig(n=2 ** 10, seed=5))
        if rep.sigma2_from_pairs == 0.0:
            ok &= rep.sigma2_estimate == 0.0
        else:
            ok &= (abs(rep.sigma2_estimate - rep.sigma2_from_pairs)
                   <= 1e-10 * abs(rep.sigma2_from_pairs))
    assert verdict("criterion 6: per-run telescoping identity", bool(ok))


def test_criterion_7_sigma2_unbiasedness(verdict):
    """Mean of sigma2 estimates over 200 seeds at N=2^10 is within 4 standard
    errors of the exact 13.8446."""
    f = ishigami()
    space = ishigami_space()
    sums = np.array([
        estimate_shapley_all(f, space, EstimatorConfig(n=2 ** 10, seed=1000 + s)).sigma2_estimate
        for s in range(200)])
    target = ishigami_exact().sigma2
    se = sums.std(ddof=1) / np.sqrt(200)
    ok = abs(sums.mean() - target) < 4 * se
    assert verdict("criterion 7: sigma^2 estimator unbiasedness", bool(ok))


def test_criterion_8_degenerate_exactness(verdict):
    """Constant models produce exact zeros everywhere; coordinates a model
    ignores receive exactly-zero per-sample increments."""
    square = InputSpace([Uniform(0, 1)] * 3)
    const = constant_model(4.0, 3)
    rep = estimate_shapley_all(const, square, EstimatorConfig(n=64, seed=0))
    ok = rep.estimates == (0.0,) * 3
    ok &= rep.variance_of_estimator == (0.0,) * 3
    ok &= rep.sigma2_estimate == 0.0
    study = convergence_study(const, square, "shapley", [16, 32], 3, 0)
    ok &= all(v == 0.0 for v in study.sse_per_trial.values())
    ok &= study.fitted_slope is None

    lone = ModelFunction(3, lambda x: x[:, 1], name="x2", vectorized=True)
    rep = estimate_shapley_all(lone, square, EstimatorConfig(n=256, seed=3))
    ok &= rep.estimates[0] == 0.0 and rep.estimates[2] == 0.0
    ok &= rep.variance_of_estimator[0] == 0.0 and rep.variance_of_estimator[2] == 0.0
    total = estimate_total_effects(lone, square, EstimatorConfig(n=256, seed=3))
    ok &= total.values[0] == 0.0 and total.values[2] == 0.0
    main = estimate_main_effects(lone, square, EstimatorConfig(n=256, seed=3))
    ok &= main.values[0] == 0.0 and main.values[2] == 0.0
    assert verdict("criterion 8: degenerate exactness", bool(ok))


def test_criterion_9_determinism(verdict):
    """Reports are bitwise identical for workers in {1, 4} at the same seed."""
    f = ishigami()
    space = ishigami_space()
    n = 3 * 4096 + 17
    one = estimate_shapley_all(f, space, EstimatorConfig(n=n, seed=9, workers=1))
    four = estimate_shapley_all(f, space, EstimatorConfig(n=n, seed=9, workers=4))
    ok = one.estimates == four.estimates
    ok &= one.variance_of_estimator == four.variance_of_estimator
    ok &= one.ci_low == four.ci_low and one.ci_high == four.ci_high
    ok &= one.sigma2_estimate == four.sigma2_estimate
    ok &= one.sigma2_from_pairs == four.sigma2_from_pairs

    m1 = estimate_main_effects(f, space, EstimatorConfig(n=n, seed=9, workers=1))
    m4 = estimate_main_effects(f, space, EstimatorConfig(n=n, seed=9, workers=4))
    ok &= m1.values == m4.values and m1.variance_of_estimator == m4.variance_of_estimator
    t1 = estimate_total_effects(f, space, EstimatorConfig(n=n, seed=9, workers=1))
    t4 = estimate_total_effects(f, space, EstimatorConfig(n=n, seed=9, workers=4))
    ok &= t1.values == t4.values and t1.variance_of_estimator == t4.variance_of_estimator
    assert verdict("criterion 9: worker-count determinism", bool(ok))
