"""The output checks reject doctored reports and accept real ones."""

import dataclasses
import json
import math

import pytest

import checks
import shapeff
from shapeff.cli import CONVERGENCE_SCHEMA, REPORT_SCHEMA, main

N = 4096


@pytest.fixture(scope="module")
def shapley():
    return shapeff.estimate_shapley_all(shapeff.ishigami(), shapeff.ishigami_space(),
                                        shapeff.EstimatorConfig(n=N, seed=7))


@pytest.fixture(scope="module")
def exact():
    return shapeff.ishigami_exact()


def test_real_reports_pass(shapley, exact):
    assert checks.check_shapley_report(shapley, N, exact) == []
    total = shapeff.estimate_total_effects(shapeff.ishigami(), shapeff.ishigami_space(),
                                           shapeff.EstimatorConfig(n=N, seed=7))
    assert checks.check_effect_report(total, N, exact) == []


def test_wrong_eval_count_fails(shapley, exact):
    bad = dataclasses.replace(shapley, eval_count=shapley.eval_count + 1)
    assert checks.check_shapley_report(bad, N, exact)


def test_estimate_far_from_exact_fails(shapley, exact):
    est = list(shapley.estimates)
    est[1] += 10 * checks.Z_LIMIT * math.sqrt(shapley.variance_of_estimator[1])
    bad = dataclasses.replace(shapley, estimates=tuple(est), sigma2_estimate=math.fsum(est),
                              sigma2_from_pairs=math.fsum(est))
    problems = checks.check_shapley_report(bad, N, exact)
    assert len(problems) == 1 and problems[0].startswith("x2:")


def test_broken_telescoping_fails(shapley, exact):
    bad = dataclasses.replace(shapley, sigma2_from_pairs=shapley.sigma2_from_pairs * (1 + 1e-6))
    assert checks.check_shapley_report(bad, N, exact)


def test_winding_far_from_exact_fails(exact):
    rep = shapeff.estimate_shapley_winding(shapeff.ishigami(), shapeff.ishigami_space(),
                                           shapeff.EstimatorConfig(n=1 << 16, seed=3))
    assert checks.check_shapley_report(rep, 1 << 16, exact) == []
    est = (rep.estimates[0] + 0.05 * exact.sigma2,) + rep.estimates[1:]
    bad = dataclasses.replace(rep, estimates=est)
    assert checks.check_shapley_report(bad, 1 << 16, exact)


def test_worker_mismatch_fails(shapley):
    est = (math.nextafter(shapley.estimates[0], math.inf),) + shapley.estimates[1:]
    assert checks.check_identical(shapley, shapley, "op") == []
    assert checks.check_identical(dataclasses.replace(shapley, estimates=est), shapley, "op")


def cli_report(tmp_path, *args):
    out = tmp_path / "report"
    assert main([*args, "--output", str(out)]) == 0
    return out.read_text()


def test_doctored_cli_report_fails(tmp_path):
    text = cli_report(tmp_path, "analyze", "--model", "ishigami", "--n", str(N), "--seed", "2")
    report, problems = checks.validate_json(text, REPORT_SCHEMA)
    assert problems == []
    assert checks.check_cli_analyze(report, 3, N,
                                    shapeff.ishigami_exact().shapley) == []
    doctored = dict(report)
    del doctored["elapsed_seconds"]
    assert checks.validate_json(json.dumps(doctored), REPORT_SCHEMA)[1]
    doctored = dict(report, eval_count=report["eval_count"] - 1)
    assert checks.check_cli_analyze(doctored, 3, N)


def test_doctored_csv_report_fails(tmp_path):
    text = cli_report(tmp_path, "analyze", "--model", "plate-buckling", "--n", "256",
                      "--format", "csv")
    report, problems = checks.parse_analyze_csv(text)
    assert problems == [] and checks.check_ci(report) == []
    assert checks.parse_analyze_csv(text.replace("#eval_count", "#evals"))[1]
    swapped = text.splitlines()
    cells = swapped[1].split(",")
    cells[3], cells[4] = cells[4], cells[3]
    swapped[1] = ",".join(cells)
    assert checks.check_ci(checks.parse_analyze_csv("\n".join(swapped))[0])


def test_doctored_convergence_report_fails(tmp_path):
    text = cli_report(tmp_path, "convergence", "--model", "ishigami", "--ns", "64,128",
                      "--trials", "3", "--format", "json")
    report, problems = checks.validate_json(text, CONVERGENCE_SCHEMA)
    assert problems == [] and checks.check_convergence(report, [64, 128], 3) == []
    report["summary"][0]["mean_sse"] *= 2
    assert checks.check_convergence(report, [64, 128], 3)
