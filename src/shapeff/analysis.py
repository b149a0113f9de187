"""Error metrics and convergence studies for the effect estimators.

A convergence study runs R independently seeded trials at each sample size N,
scores every trial by a sum of squared errors, and fits the log-log slope of
mean SSE against N. With exact reference indices the SSE is taken against
them; without a closed form the trial-mean variant is used, which estimates
the same expected SSE from the scatter of the trials alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import EvaluationError, ParameterError, require_integer
from .estimators import (ESTIMATOR_KINDS, EstimatorConfig, Report,
                         estimate_main_effects, estimate_shapley_all,
                         estimate_shapley_winding, estimate_total_effects)
from .inputs import InputSpace
from .models import ModelFunction
from .reference import SensitivityIndices


def sse_exact(estimates: Sequence[float], exact: Sequence[float]) -> float:
    """Sum of squared errors of an estimate vector against exact indices."""
    estimates = np.asarray(estimates, dtype=float)
    exact = np.asarray(exact, dtype=float)
    if estimates.shape != exact.shape or estimates.ndim != 1:
        raise ParameterError(
            f"vector shapes differ: {estimates.shape} vs {exact.shape}")
    return math.fsum(((estimates - exact) ** 2).tolist())


def sse_samplemean(estimates: np.ndarray) -> float:
    """Expected-SSE estimate from R trials alone: scatter about the trial mean.

    For an R x d table of per-trial estimates, returns
    (1/(R-1)) * sum_r sum_j (est[r, j] - colmean[j])^2.
    """
    estimates = np.asarray(estimates, dtype=float)
    if estimates.ndim != 2:
        raise ParameterError(f"expected an R x d table, got shape {estimates.shape}")
    r = estimates.shape[0]
    if r < 2:
        raise ParameterError(f"the trial-mean SSE needs R >= 2 trials, got {r}")
    centered = estimates - estimates.mean(axis=0)
    return math.fsum((centered ** 2).ravel().tolist()) / (r - 1)


def trial_seed(base_seed: int, n: int, trial: int) -> int:
    """Derive a stable 64-bit seed for trial r at sample size N.

    Uses a keyed digest rather than Python's hash(), which is salted per
    process and would break reproducibility across runs.
    """
    # Imported here: `shapeff exact` never derives a trial seed.
    import hashlib
    digest = hashlib.blake2b(f"{n}:{trial}".encode(), digest_size=8).digest()
    return (int(base_seed) ^ int.from_bytes(digest, "big")) % (1 << 64)


@dataclass(frozen=True)
class ConvergenceStudy:
    """All trial SSEs of one model/estimator pair across a ladder of N values.

    sse_per_trial maps (N, r) with r in 1..R to the trial's SSE (in
    sample-mean mode, to its squared deviation from the trial mean).
    fitted_slope is the least-squares slope of log2(mean SSE) against
    log2(N), or None with a single N or when any mean SSE is zero.
    """

    model: str
    estimator: str
    ns: tuple[int, ...]
    trials: int
    mode: str
    sse_per_trial: Mapping[tuple[int, int], float]
    mean_sse: Mapping[int, float]
    fitted_slope: float | None


def run_estimator(kind: str, f: ModelFunction, space: InputSpace,
                  cfg: EstimatorConfig) -> Report:
    """Run the estimator named `kind`, one of ESTIMATOR_KINDS, and return its
    report."""
    if kind not in ESTIMATOR_KINDS:
        raise ParameterError(f"estimator must be one of {ESTIMATOR_KINDS}, got {kind!r}")
    # Looked up per call, so a caller that rebinds this module's estimate_*
    # names (the benchmark's tracer) sees every run.
    return {"shapley": estimate_shapley_all, "shapley-winding": estimate_shapley_winding,
            "main": estimate_main_effects, "total": estimate_total_effects}[kind](f, space, cfg)


def convergence_study(f: ModelFunction, space: InputSpace, kind: str,
                      ns: Sequence[int], trials: int, base_seed: int, *,
                      exact: SensitivityIndices | None = None,
                      workers: int = 1) -> ConvergenceStudy:
    """Run R seeded trials of one estimator at each N and score SSE decay.

    Pass `exact` to score against closed-form indices; leave it None to fall
    back to the trial-mean SSE variant (the only option when no closed form
    exists, as for the plate model).
    """
    ns = [require_integer("sample size", n) for n in ns]
    trials = require_integer("trials", trials)
    if not ns or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ParameterError(f"sample sizes must be non-empty and ascending, got {ns}")
    if trials < 2:
        raise ParameterError(f"trials must be >= 2, got {trials}")
    for n in ns:  # Every N, the seed and workers, before the first trial runs.
        EstimatorConfig(n=n, seed=base_seed, workers=workers)
    if exact is not None and exact.d != space.d:
        raise ParameterError(f"exact indices are for d={exact.d}, the input space has d={space.d}")

    mode = "exact" if exact is not None else "sample-mean"
    sse_per_trial: dict[tuple[int, int], float] = {}
    mean_sse: dict[int, float] = {}
    for n in ns:
        rows = []
        for r in range(1, trials + 1):
            cfg = EstimatorConfig(n=n, seed=trial_seed(base_seed, n, r), workers=workers)
            try:
                rows.append(run_estimator(kind, f, space, cfg).estimates)
            except EvaluationError as exc:
                raise EvaluationError(f"trial {r} at N={n} failed: {exc}") from exc
        table = np.vstack(rows)
        target = table.mean(axis=0) if exact is None else np.asarray(
            exact.shapley if kind.startswith("shapley") else getattr(exact, kind))
        sse = [sse_exact(row, target) for row in table]
        sse_per_trial.update(((n, r), v) for r, v in enumerate(sse, 1))
        mean_sse[n] = sse_samplemean(table) if exact is None else math.fsum(sse) / trials

    slope = None
    if all(v > 0 for v in mean_sse.values()) and len(ns) >= 2:
        x = np.log2(np.asarray(ns, dtype=float))
        y = np.log2(np.asarray([mean_sse[n] for n in ns]))
        slope = float(np.polyfit(x, y, 1)[0])

    return ConvergenceStudy(
        model=f.name,
        estimator=kind,
        ns=tuple(ns),
        trials=trials,
        mode=mode,
        sse_per_trial=sse_per_trial,
        mean_sse=mean_sse,
        fitted_slope=slope,
    )


def _csv_cell(value) -> str:
    """One CSV cell: None as na, an int or a str as str gives it, and any
    other number with 17 significant digits."""
    return ("na" if value is None else str(value) if isinstance(value, (int, str))
            else f"{value:.17g}")


def convergence_csv_lines(study: ConvergenceStudy) -> list[str]:
    """Render a study in the convergence CSV format.

    One row per (N, trial), then a `#summary` section of (N, mean SSE) rows,
    then a final `#slope,<value|na>` line.
    """
    lines = ["model,estimator,N,trial,sse"]
    lines += [",".join(map(_csv_cell, (study.model, study.estimator, n, r,
                                       study.sse_per_trial[(n, r)])))
              for n in study.ns for r in range(1, study.trials + 1)]
    lines += ["#summary"] + [f"{n},{_csv_cell(study.mean_sse[n])}" for n in study.ns]
    return lines + [f"#slope,{_csv_cell(study.fitted_slope)}"]
