"""Property tests: cost contracts at any N, the per-sample telescoping identity,
worker-count invariance with reused chunk buffers, chunked moments against an
exact two-pass reference, and bitwise reruns of a report's config."""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shapeff import (EstimatorConfig, InputSpace, ModelFunction, Uniform,
                     estimate_main_effects, estimate_shapley_all,
                     estimate_shapley_winding, estimate_total_effects)
from shapeff.cli import main
from shapeff.estimators import _chunk_moments, _Moments
from test_models import report_bits

# Each kind's estimator and its contracted evaluation count for (d, N).
KINDS = {
    "shapley": (estimate_shapley_all, lambda d, n: (d + 1) * n),
    "main": (estimate_main_effects, lambda d, n: (d + 2) * n),
    "total": (estimate_total_effects, lambda d, n: (d + 1) * n),
    "winding": (estimate_shapley_winding, lambda d, n: d * n + 1),
}


def run(kind, f, space, cfg):
    estimator, _ = KINDS[kind]
    return estimator(f, space, cfg)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(list(KINDS)), d=st.integers(1, 4), n=st.integers(2, 9000),
       workers=st.integers(1, 2), seed=st.integers(0, 2 ** 64 - 1))
@example(kind="shapley", d=3, n=4097, workers=2, seed=0)
@example(kind="winding", d=2, n=2, workers=1, seed=0)
def test_eval_count_meets_the_cost_contract(kind, d, n, workers, seed):
    f = ModelFunction(d, lambda X: X.sum(axis=1), vectorized=True)
    space = InputSpace([Uniform(0.0, 1.0)] * d)
    report = run(kind, f, space, EstimatorConfig(n=n, seed=seed, workers=workers))
    cost = KINDS[kind][1](d, n)
    assert report.eval_count == f.eval_count == cost


@st.composite
def random_models(draw):
    """A model with linear, pairwise and sine terms on [-1, 1]^d, and a bound on |f|."""
    d = draw(st.integers(1, 6))
    coef = st.floats(-3.0, 3.0, allow_nan=False)
    c = np.array(draw(st.lists(coef, min_size=d, max_size=d)))
    b = np.array(draw(st.lists(coef, min_size=d * d, max_size=d * d))).reshape(d, d)
    s = np.array(draw(st.lists(coef, min_size=d, max_size=d)))

    def f(X):
        return X @ c + ((X @ b) * X).sum(axis=1) + np.sin(3.0 * X) @ s

    bound = np.abs(c).sum() + np.abs(b).sum() + np.abs(s).sum()
    return ModelFunction(d, f, vectorized=True), bound


@settings(max_examples=40, deadline=None)
@given(model=random_models(), kind=st.sampled_from(["shapley", "winding"]),
       n=st.integers(2, 600), workers=st.integers(1, 2), seed=st.integers(0, 2 ** 64 - 1))
def test_each_walk_credits_every_variable_once(model, kind, n, workers, seed):
    # Per sample, the d increments of a walk telescope to 0.5 * (f(x) - f(y))^2
    # only if each variable is credited exactly once; a step written twice or
    # left unwritten breaks the sum by far more than rounding. Rounding is
    # relative to the squared output bound until the squares fall below the
    # normal range (tiny coefficients), where it is a few subnormal steps.
    f, bound = model
    space = InputSpace([Uniform(-1.0, 1.0)] * f.dim)
    report = run(kind, f, space, EstimatorConfig(n=n, seed=seed, workers=workers))
    tol = 1e-12 * bound ** 2 + 4 * np.finfo(float).smallest_subnormal
    assert abs(report.sigma2_estimate - report.sigma2_from_pairs) <= tol


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(list(KINDS)), d=st.integers(1, 4), n=st.integers(2, 5 * 4096),
       seed=st.integers(0, 2 ** 64 - 1))
@example(kind="shapley", d=3, n=4096, seed=0)
@example(kind="shapley", d=3, n=3 * 4096 + 1, seed=1)
@example(kind="main", d=2, n=4097, seed=2)
@example(kind="total", d=4, n=3 * 4096 + 1, seed=3)
@example(kind="winding", d=3, n=4097, seed=4)
@example(kind="winding", d=2, n=3 * 4096 + 1, seed=5)
def test_reports_are_bitwise_equal_at_any_worker_count(kind, d, n, seed):
    # Each worker thread reuses one set of chunk buffers, and which chunks share
    # a buffer depends on the worker count; a chunk that read rows left by an
    # earlier, longer chunk would make the reports differ.
    w = np.arange(1.0, d + 1)
    space = InputSpace([Uniform(-1.0, 1.0)] * d)
    reports = []
    for workers in (1, 2, 3):
        f = ModelFunction(d, lambda X: np.sin(X @ w) + X[:, 0] * X[:, -1], vectorized=True)
        reports.append(report_bits(run(kind, f, space,
                                       EstimatorConfig(n=n, seed=seed, workers=workers))))
    assert reports[0] == reports[1] == reports[2]


@settings(max_examples=60, deadline=None)
@given(d=st.integers(2, 10), wide=st.booleans(),
       sizes=st.lists(st.integers(1, 300), min_size=1, max_size=8),
       shift=st.floats(-3.0, 3.0), scale=st.floats(1e-3, 1e3), seed=st.integers(0, 2 ** 32 - 1))
@example(d=10, wide=True, sizes=[4096, 4096, 4], shift=1.0, scale=1.0, seed=0)
@example(d=10, wide=False, sizes=[4096, 1], shift=-2.0, scale=1e3, seed=1)
def test_merged_chunk_moments_match_an_exact_two_pass_sum(d, wide, sizes, shift, scale, seed):
    # Column means and M2 of the chunks, merged in chunk order, against the
    # mean and the sum of squared deviations from it, each summed exactly.
    width = d if wide else 1
    n = sum(sizes)
    values = scale * (np.random.default_rng(seed).standard_normal((n, width)) + shift)
    stats = _Moments()
    start = 0
    for size in sizes:
        # A copy: _chunk_moments overwrites the block it is given.
        block = np.array(values[start:start + size], order="F")
        stats.merge(*_chunk_moments(block))
        start += size
    assert stats.count == n
    for j in range(width):
        column = values[:, j].tolist()
        mean = math.fsum(column) / n
        m2 = math.fsum((v - mean) ** 2 for v in column)
        assert abs(stats.mean[j] - mean) <= 1e-13 * math.fsum(map(abs, column)) / n
        assert abs(stats.m2[j] - m2) <= 1e-13 * m2


@st.composite
def analyze_configs(draw):
    """An analyze config: a builtin model, optionally its own input marginals,
    and any estimator, sample size, seed, worker count and CI multiplier."""
    name = draw(st.sampled_from(["ishigami", "sobol-g", "plate-buckling", "constant"]))
    positive = st.floats(0.05, 10.0)
    if name == "ishigami":
        model, dim = {"name": name, "a": draw(positive), "b": draw(positive)}, 3
    elif name == "sobol-g":
        dim = draw(st.integers(1, 10))
        model = {"name": name, "a": draw(st.lists(st.floats(0.0, 99.0), min_size=dim,
                                                  max_size=dim))}
    elif name == "constant":
        dim = draw(st.integers(1, 4))
        model = {"name": name, "value": draw(st.floats(-5.0, 5.0)), "dim": dim}
    else:
        model, dim = {"name": name}, 6
    estimator = draw(st.sampled_from(["shapley", "shapley-winding", "main", "total"]))
    config = {"model": model, "estimator": estimator,
              "n": draw(st.integers(2, 5000)), "seed": draw(st.integers(0, 2 ** 64 - 1)),
              "workers": draw(st.integers(1, 3)), "ci_z": draw(st.floats(0.5, 4.0))}
    # The plate needs positive widths, thicknesses and moduli: its own marginals.
    if name != "plate-buckling" and draw(st.booleans()):
        marginal = st.one_of(
            st.builds(lambda lo, width: {"kind": "uniform", "lo": lo, "hi": lo + width},
                      st.floats(-5.0, 5.0), positive),
            st.builds(lambda mean, sd: {"kind": "normal", "mean": mean, "sd": sd},
                      st.floats(-5.0, 5.0), positive),
            st.builds(lambda mean, cv: {"kind": "normal", "mean": mean, "cv": cv},
                      st.floats(0.5, 5.0), st.floats(0.01, 1.0)),
            st.builds(lambda mean, cv: {"kind": "lognormal", "mean": mean, "cv": cv},
                      st.floats(0.5, 5.0), st.floats(0.01, 1.0)))
        config["distributions"] = draw(st.lists(marginal, min_size=dim, max_size=dim))
    return config


@settings(max_examples=25, deadline=None)
@given(config=analyze_configs())
def test_a_reports_config_reruns_bitwise(config):
    with tempfile.TemporaryDirectory() as tmp:
        def analyze(cfg, name):
            path, out = Path(tmp, f"{name}.json"), Path(tmp, f"{name}-report.json")
            path.write_text(json.dumps(cfg))
            assert main(["analyze", "--config", str(path), "--output", str(out)]) == 0
            report = json.loads(out.read_text())
            del report["elapsed_seconds"]
            return report

        first = analyze(config, "first")
        assert analyze(first["config"], "rerun") == first
