"""Tests for SSE metrics and convergence studies."""

import numpy as np
import pytest

from shapeff import (EstimatorConfig, ModelFunction, ParameterError, constant_model,
                     convergence_csv_lines, convergence_study, ishigami,
                     ishigami_exact, ishigami_space, sobol_g, sobol_g_space,
                     sse_exact, sse_samplemean, trial_seed)
from shapeff.analysis import ESTIMATOR_KINDS, run_estimator


def test_sse_exact_hand_values():
    assert sse_exact([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert sse_exact([1.0, 0.0], [0.0, 0.0]) == 1.0
    exact = ishigami_exact().shapley
    got = sse_exact([6.0, 6.1, 1.7], exact)
    want = sum((a - b) ** 2 for a, b in zip([6.0, 6.1, 1.7], exact))
    assert got == pytest.approx(want, rel=1e-14)
    with pytest.raises(ParameterError):
        sse_exact([1.0], [1.0, 2.0])


def test_sse_exact_permutation_invariant():
    est = [0.3, 1.4, -0.2]
    exact = [0.1, 1.0, 0.2]
    perm = [2, 0, 1]
    assert sse_exact(est, exact) == pytest.approx(
        sse_exact([est[i] for i in perm], [exact[i] for i in perm]), rel=1e-15)


def test_sse_samplemean_hand_values():
    assert sse_samplemean(np.array([[1.0, 2.0], [1.0, 2.0]])) == 0.0
    assert sse_samplemean(np.array([[0.0], [2.0]])) == pytest.approx(2.0)
    assert sse_samplemean(np.array([[0.0], [1.0], [2.0]])) == pytest.approx(1.0)
    with pytest.raises(ParameterError):
        sse_samplemean(np.array([[1.0, 2.0]]))


def test_sse_samplemean_rejects_a_table_that_is_not_two_dimensional():
    with pytest.raises(ParameterError, match=r"^expected an R x d table, got shape \(3,\)$"):
        sse_samplemean(np.array([0.0, 1.0, 2.0]))


def test_sse_samplemean_translation_invariant():
    table = np.array([[0.1, 2.0], [0.4, 1.5], [0.2, 1.9]])
    shifted = table + np.array([5.0, -3.0])
    assert sse_samplemean(shifted) == pytest.approx(sse_samplemean(table), rel=1e-12)


def test_trial_seed_is_stable_and_spread():
    assert trial_seed(42, 256, 1) == trial_seed(42, 256, 1)
    seeds = {trial_seed(42, n, r) for n in (256, 512) for r in range(1, 11)}
    assert len(seeds) == 20


def test_convergence_study_validates_arguments():
    f = ishigami()
    space = ishigami_space()
    with pytest.raises(ParameterError):
        convergence_study(f, space, "shapley", [], 5, 0)
    with pytest.raises(ParameterError):
        convergence_study(f, space, "shapley", [64, 32], 5, 0)
    with pytest.raises(ParameterError):
        convergence_study(f, space, "shapley", [32, 64], 1, 0)
    with pytest.raises(ParameterError):
        convergence_study(f, space, "sobol", [32, 64], 5, 0)


def test_convergence_study_checks_every_n_before_its_first_trial():
    def unreachable(x):
        raise AssertionError("a trial ran")
    f = ModelFunction(3, unreachable, vectorized=True)
    with pytest.raises(ParameterError, match=r"^sample size must be <= 2\^44"):
        convergence_study(f, ishigami_space(), "shapley", [64, 2 ** 44 + 1], 2, 0)
    assert f.eval_count == 0


@pytest.mark.parametrize("base_seed", [-1, 2 ** 64])
def test_convergence_study_checks_its_seed_before_its_first_trial(base_seed):
    def unreachable(x):
        raise AssertionError("a trial ran")
    f = ModelFunction(3, unreachable, vectorized=True)
    with pytest.raises(ParameterError, match=rf"^seed must be (>= 0|< 2\^64), got {base_seed}$"):
        convergence_study(f, ishigami_space(), "shapley", [16, 32], 2, base_seed=base_seed)
    assert f.eval_count == 0


def test_convergence_study_checks_its_exact_indices_before_its_first_trial():
    f = sobol_g([0.0, 1.0, 2.0, 3.0])
    with pytest.raises(ParameterError, match=r"^exact indices are for d=3, the input space has d=4$"):
        convergence_study(f, sobol_g_space(4), "shapley", [256, 512], 5, 0, exact=ishigami_exact())
    assert f.eval_count == 0


def test_constant_study_all_zero_sse_no_slope():
    f = constant_model(3.0, 2)
    study = convergence_study(f, sobol_g_space(2), "shapley", [16, 32], 3, 0)
    assert all(v == 0.0 for v in study.sse_per_trial.values())
    assert all(v == 0.0 for v in study.mean_sse.values())
    assert study.fitted_slope is None
    assert study.mode == "sample-mean"


def test_exact_mode_uses_reference_indices():
    study = convergence_study(ishigami(), ishigami_space(), "shapley",
                              [256, 512], 3, 7, exact=ishigami_exact())
    assert study.mode == "exact"
    assert set(study.sse_per_trial) == {(n, r) for n in (256, 512) for r in (1, 2, 3)}
    for n in (256, 512):
        trials = [study.sse_per_trial[(n, r)] for r in (1, 2, 3)]
        assert study.mean_sse[n] == pytest.approx(sum(trials) / 3, rel=1e-12)


@pytest.mark.parametrize("exact", [None, ishigami_exact()], ids=["sample-mean", "exact"])
def test_each_trial_is_scored_by_sse_exact_against_the_study_target(exact):
    f, space, ns = ishigami(), ishigami_space(), [64, 128]
    study = convergence_study(f, space, "main", ns, 3, 5, exact=exact)
    for n in ns:
        table = np.vstack([run_estimator("main", f, space, EstimatorConfig(
            n=n, seed=trial_seed(5, n, r))).estimates for r in (1, 2, 3)])
        target = table.mean(axis=0) if exact is None else exact.main
        assert [study.sse_per_trial[(n, r)] for r in (1, 2, 3)] == [
            sse_exact(row, target) for row in table]


def test_samplemean_mode_summary_applies_bessel_correction():
    study = convergence_study(ishigami(), ishigami_space(), "shapley",
                              [256], 4, 7)
    trials = [study.sse_per_trial[(256, r)] for r in range(1, 5)]
    assert study.mean_sse[256] == pytest.approx(sum(trials) / 3, rel=1e-12)


def test_study_runs_all_estimator_kinds():
    for kind in ("shapley", "shapley-winding", "main", "total"):
        study = convergence_study(ishigami(), ishigami_space(), kind,
                                  [64, 128], 2, 1, exact=ishigami_exact())
        assert study.estimator == kind
        assert len(study.sse_per_trial) == 4


@pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
def test_run_estimator_reports_its_kind(kind):
    rep = run_estimator(kind, ishigami(), ishigami_space(), EstimatorConfig(n=64, seed=3))
    assert rep.kind == kind
    # perfbench's checks.py and workloads.py read values; ROADMAP item 7 deletes it.
    assert rep.values == rep.estimates
    bounds = (rep.variance_of_estimator, rep.ci_low, rep.ci_high)
    if kind == "shapley-winding":
        assert bounds == (None, None, None)
    else:
        assert all(len(b) == 3 for b in bounds)
        assert all(lo <= est <= hi for lo, est, hi in zip(rep.ci_low, rep.estimates, rep.ci_high))


@pytest.mark.parametrize("kind", ["Shapley", "winding", "pick-freeze", ""])
def test_run_estimator_rejects_other_kinds(kind):
    with pytest.raises(ParameterError, match=r"^estimator must be one of \('shapley', "):
        run_estimator(kind, ishigami(), ishigami_space(), EstimatorConfig(n=64, seed=3))


def test_csv_lines_format():
    study = convergence_study(constant_model(1.0, 2), sobol_g_space(2),
                              "shapley", [16, 32], 2, 0)
    lines = convergence_csv_lines(study)
    assert lines[0] == "model,estimator,N,trial,sse"
    assert lines[1].startswith("constant,shapley,16,1,")
    assert "#summary" in lines
    summary_at = lines.index("#summary")
    assert lines[summary_at + 1].startswith("16,")
    assert lines[summary_at + 2].startswith("32,")
    assert lines[-1] == "#slope,na"
    # 1 header + 4 trial rows + 1 marker + 2 summary rows + 1 slope line
    assert len(lines) == 9


def test_csv_lines_slope_value_when_defined():
    study = convergence_study(ishigami(), ishigami_space(), "shapley",
                              [128, 256, 512], 3, 11, exact=ishigami_exact())
    lines = convergence_csv_lines(study)
    assert lines[-1].startswith("#slope,")
    assert float(lines[-1].split(",")[1]) == pytest.approx(study.fitted_slope)
