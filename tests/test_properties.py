"""Property tests: cost contracts at any N, the per-sample telescoping identity,
and worker-count invariance with reused chunk buffers."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shapeff import (EstimatorConfig, InputSpace, ModelFunction, Uniform,
                     estimate_main_effects, estimate_shapley_all,
                     estimate_shapley_winding, estimate_total_effects)
from test_models import report_bits

# Each kind's estimator and its contracted evaluation count for (d, N).
KINDS = {
    "shapley": (estimate_shapley_all, lambda d, n: (d + 1) * n),
    "main": (estimate_main_effects, lambda d, n: (d + 2) * n),
    "total": (estimate_total_effects, lambda d, n: (d + 1) * n),
    "winding": (estimate_shapley_winding, lambda d, n: d * n + 1),
    "winding-cyclic": (estimate_shapley_winding, lambda d, n: d * n),
}


def run(kind, f, space, cfg):
    estimator, _ = KINDS[kind]
    if kind.startswith("winding"):
        return estimator(f, space, cfg, cyclic=kind == "winding-cyclic")
    return estimator(f, space, cfg)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(list(KINDS)), d=st.integers(1, 4), n=st.integers(2, 9000),
       workers=st.integers(1, 2), seed=st.integers(0, 2 ** 64 - 1))
@example(kind="shapley", d=3, n=4097, workers=2, seed=0)
@example(kind="winding-cyclic", d=2, n=2, workers=1, seed=0)
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
@given(model=random_models(), kind=st.sampled_from(["shapley", "winding", "winding-cyclic"]),
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
@example(kind="winding-cyclic", d=2, n=3 * 4096 + 1, seed=5)
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
