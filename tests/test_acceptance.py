"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every criterion states its tolerance inline. The printed lines bypass pytest
capture so the verdicts are visible in any run.
"""

import math

import numpy as np
import pytest

from shapeff import (EstimatorConfig, anova_oracle, constant_model, convergence_study,
                     estimate_shapley_all, ishigami, ishigami_exact, ishigami_space,
                     plate_buckling, plate_buckling_space, shapley_from_anova,
                     sobol_g, sobol_g_anova, sobol_g_exact, sobol_g_space)
from support import (KIND_TABLE, cost_contract_problems, telescoping_contract_problems,
                     unit_square, worker_contract_problems, zero_problems)


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
    """eval_count is exactly (d+1)N for the permutation walk and total
    effects, (d+2)N for main effects and dN+1 for winding stairs, for d in
    {1, 3, 10} and N in {2, 100}."""
    ok = cost_contract_problems(KIND_TABLE) == []
    assert verdict("criterion 5: evaluation-cost contracts", ok)


def test_criterion_6_telescoping_identity(verdict):
    """Sum of estimates equals the mean of 0.5*(f(x)-f(y))^2 to 1e-10 relative
    for both Shapley kinds on every builtin model at N = 2^10."""
    ok = telescoping_contract_problems(["shapley", "winding"]) == []
    assert verdict("criterion 6: per-run telescoping identity", ok)


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
    ignores receive exactly-zero per-sample increments, for every kind."""
    ok = zero_problems(KIND_TABLE) == []
    study = convergence_study(constant_model(4.0, 3), unit_square(3), "shapley", [16, 32], 3, 0)
    ok &= all(v == 0.0 for v in study.sse_per_trial.values())
    ok &= study.fitted_slope is None
    assert verdict("criterion 8: degenerate exactness", bool(ok))


def test_criterion_9_determinism(verdict):
    """Reports are bitwise identical for workers in {1, ..., 5} at the same
    seed, for every kind."""
    ok = worker_contract_problems(KIND_TABLE) == []
    assert verdict("criterion 9: worker-count determinism", ok)
