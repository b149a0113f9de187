"""Output checks. Each returns a list of problems; any problem fails the op.

Seeds are fixed per op, so every check gives the same verdict on every run
with the same --seed.
"""

from __future__ import annotations

import json
import math

from spans import CONTRACTS

# An estimate more than Z_LIMIT reported standard errors from the exact value
# fails; at 6 sigma a correct estimator fails about once in 5e8 estimates.
Z_LIMIT = 6.0
# Winding reports no standard error. Its run-to-run spread at the bench sizes
# is below 0.4% of the model variance; 2% leaves a wide margin for chance.
WINDING_TOL = 0.02
# The telescoping identity holds per sample, so only rounding separates the
# two variance estimates.
TELESCOPE_RTOL = 1e-10


def check_eval_count(kind: str, d: int, n: int, eval_count: int) -> list[str]:
    want = CONTRACTS[kind](d, n, False)
    return [] if eval_count == want else [f"{kind}: eval_count {eval_count} != contract {want}"]


def check_telescoping(sigma2_estimate: float, sigma2_from_pairs: float) -> list[str]:
    gap = abs(sigma2_estimate - sigma2_from_pairs)
    if gap <= TELESCOPE_RTOL * abs(sigma2_from_pairs):
        return []
    return [f"telescoping: |{sigma2_estimate!r} - {sigma2_from_pairs!r}| = {gap:.3g}"]


def check_within_se(estimates, variances, exact, z: float = Z_LIMIT) -> list[str]:
    problems = []
    for j, (est, var, ref) in enumerate(zip(estimates, variances, exact, strict=True)):
        if not (math.isfinite(est) and var >= 0 and abs(est - ref) <= z * math.sqrt(var)):
            problems.append(f"x{j + 1}: estimate {est!r} is not within {z} SE "
                            f"(variance {var!r}) of {ref!r}")
    return problems


def check_within_tol(estimates, reference, scale: float, tol: float = WINDING_TOL) -> list[str]:
    limit = tol * abs(scale)
    return [f"x{j + 1}: estimate {est!r} differs from {ref!r} by more than {limit:.3g}"
            for j, (est, ref) in enumerate(zip(estimates, reference, strict=True))
            if not abs(est - ref) <= limit]


def check_bracket(main, shapley, total, main_var, shapley_var, total_var,
                  z: float = Z_LIMIT) -> list[str]:
    """main <= Shapley <= total per variable, up to z combined standard errors."""
    problems = []
    for j in range(len(shapley)):
        low = z * math.sqrt(main_var[j] + shapley_var[j])
        high = z * math.sqrt(shapley_var[j] + total_var[j])
        if not (main[j] - low <= shapley[j] <= total[j] + high):
            problems.append(f"x{j + 1}: Shapley {shapley[j]!r} outside "
                            f"[main {main[j]!r}, total {total[j]!r}]")
    return problems


def check_identical(a, b, what: str) -> list[str]:
    return [] if a == b else [f"{what}: workers=1 and workers=2 results differ"]


def check_shapley_report(rep, n: int, exact=None) -> list[str]:
    """Cost contract, telescoping identity and, given exact values, accuracy."""
    kind = "estimate_shapley_all" if rep.variance_of_estimator else "estimate_shapley_winding"
    problems = check_eval_count(kind, rep.d, n, rep.eval_count)
    problems += check_telescoping(rep.sigma2_estimate, rep.sigma2_from_pairs)
    if exact is not None:
        if rep.variance_of_estimator:
            problems += check_within_se(rep.estimates, rep.variance_of_estimator, exact.shapley)
        else:
            problems += check_within_tol(rep.estimates, exact.shapley, exact.sigma2)
    return problems


def check_effect_report(rep, n: int, exact=None) -> list[str]:
    problems = check_eval_count(f"estimate_{rep.kind}_effects", rep.d, n, rep.eval_count)
    if exact is not None:
        ref = exact.main if rep.kind == "main" else exact.total
        problems += check_within_se(rep.values, rep.variance_of_estimator, ref)
    return problems


def validate_json(text: str, schema) -> tuple[dict | None, list[str]]:
    import jsonschema
    try:
        report = json.loads(text)
        jsonschema.validate(report, schema)
    except (ValueError, jsonschema.ValidationError) as exc:
        return None, [f"report does not validate: {str(exc).splitlines()[0]}"]
    return report, []


def check_cli_analyze(report: dict, d: int, n: int, exact=None) -> list[str]:
    """A Shapley analyze report: cost contract, one row per variable and,
    given exact values, accuracy."""
    problems = check_eval_count("estimate_shapley_all", d, n, report["eval_count"])
    rows = report["results"]
    if [r["variable"] for r in rows] != list(range(1, d + 1)):
        return problems + [f"expected {d} result rows, got {len(rows)}"]
    if exact is not None:
        problems += check_within_se([r["estimate"] for r in rows],
                                    [r["variance"] for r in rows], exact)
    return problems


def parse_analyze_csv(text: str) -> tuple[dict | None, list[str]]:
    """The analyze CSV as the JSON report's results rows plus its # fields."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != "variable,estimate,variance,ci_low,ci_high":
        return None, ["csv report: bad header"]
    report: dict = {"results": []}
    try:
        for line in lines[1:]:
            if line.startswith("#"):
                key, value = line[1:].split(",", 1)
                report[key] = int(value) if key in ("eval_count", "seed") else float(value)
                continue
            cells = line.split(",")
            row = {"variable": int(cells[0])}
            for key, cell in zip(("estimate", "variance", "ci_low", "ci_high"),
                                 cells[1:], strict=True):
                row[key] = None if cell == "na" else float(cell)
            report["results"].append(row)
    except ValueError as exc:
        return None, [f"csv report: {exc}"]
    missing = {"sigma2_estimate", "eval_count", "seed", "elapsed_seconds"} - set(report)
    if missing:
        return None, [f"csv report: missing {sorted(missing)}"]
    return report, []


def check_ci(report: dict) -> list[str]:
    """Each confidence interval holds its estimate and the variance is not negative."""
    return [f"x{r['variable']}: estimate or interval malformed"
            for r in report["results"]
            if not (r["variance"] >= 0 and r["ci_low"] <= r["estimate"] <= r["ci_high"])]


def check_convergence(report: dict, ns: list[int], trials: int) -> list[str]:
    """Row layout, and summary means and slope recomputed from the rows."""
    import numpy as np
    rows = report["rows"]
    if [(r["n"], r["trial"]) for r in rows] != [(n, t) for n in ns for t in range(1, trials + 1)]:
        return ["convergence rows do not cover every (N, trial)"]
    problems = []
    means = []
    for n, summary in zip(ns, report["summary"], strict=True):
        mean = math.fsum(r["sse"] for r in rows if r["n"] == n) / trials
        means.append(mean)
        if summary["n"] != n or not math.isclose(summary["mean_sse"], mean, rel_tol=1e-12):
            problems.append(f"N={n}: mean_sse {summary['mean_sse']!r} != {mean!r}")
    slope = float(np.polyfit(np.log2(ns), np.log2(means), 1)[0])
    if report["slope"] is None or not math.isclose(report["slope"], slope, rel_tol=1e-9):
        problems.append(f"slope {report['slope']!r} != refit {slope!r}")
    return problems


def check_exact(report: dict, exact) -> list[str]:
    got = [(r["main"], r["total"], r["shapley"]) for r in report["results"]]
    want = list(zip(exact.main, exact.total, exact.shapley))
    problems = [] if got == want else ["exact indices differ from sobol_g_exact"]
    if report["sigma2"] != exact.sigma2:
        problems.append(f"sigma2 {report['sigma2']!r} != {exact.sigma2!r}")
    return problems
