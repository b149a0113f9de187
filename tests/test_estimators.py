"""Tests for the permutation-walk Shapley estimator and pick-freeze effects."""

import math
import tracemalloc

import numpy as np
import pytest

from shapeff import (EstimatorConfig, EvaluationError, InputSpace,
                     ModelFunction, ParameterError, RngStream, Uniform,
                     constant_model, estimate_main_effects,
                     estimate_shapley_all, estimate_shapley_winding,
                     estimate_total_effects, ishigami, ishigami_exact,
                     ishigami_space, plate_buckling,
                     plate_buckling_space, sobol_g, sobol_g_space)
from shapeff.inputs import permutation_rows


def coordinate_model(dim: int, index: int = 0) -> ModelFunction:
    return ModelFunction(dim, lambda x: x[:, index], name=f"x{index + 1}", vectorized=True)


def additive_model() -> ModelFunction:
    return ModelFunction(2, lambda x: x[:, 0] + x[:, 1], name="sum", vectorized=True)


def unit_square(d: int) -> InputSpace:
    return InputSpace([Uniform(0, 1)] * d)


def test_config_validation():
    with pytest.raises(ParameterError):
        EstimatorConfig(n=1, seed=0)
    with pytest.raises(ParameterError):
        EstimatorConfig(n=10, seed=0, workers=0)
    with pytest.raises(ParameterError):
        EstimatorConfig(n=10, seed=0, ci_z=0.0)


@pytest.mark.parametrize("field, value, message", [
    ("n", 100.0, "n must be an integer"), ("n", True, "n must be an integer"),
    ("n", "100", "n must be an integer"), ("seed", 1.5, "seed must be an integer"),
    ("seed", False, "seed must be an integer"), ("seed", np.float64(3.0), "seed must be an integer"),
    ("workers", True, "workers must be an integer"), ("workers", np.True_, "workers must be an integer"),
    ("workers", 2.0, "workers must be an integer"),
    ("ci_z", math.inf, "ci multiplier must be finite"),
    ("ci_z", math.nan, "ci multiplier must be finite"),
    ("ci_z", "x", "ci multiplier must be a real number"),
    ("ci_z", None, "ci multiplier must be a real number"),
    ("ci_z", True, "ci multiplier must be a real number")])
def test_config_rejects_non_integral_counts_and_non_finite_ci(field, value, message):
    with pytest.raises(ParameterError, match=message):
        EstimatorConfig(**{"n": 100, "seed": 1, field: value})


def test_config_stores_numpy_integers_as_int():
    cfg = EstimatorConfig(n=np.int64(100), seed=np.uint64(2 ** 63), workers=np.int32(2))
    assert (cfg.n, cfg.seed, cfg.workers) == (100, 2 ** 63, 2)
    assert all(type(v) is int for v in (cfg.n, cfg.seed, cfg.workers))


def test_dimension_mismatch_rejected():
    with pytest.raises(ParameterError):
        estimate_shapley_all(ishigami(), unit_square(2), EstimatorConfig(n=4, seed=0))


def test_cost_contract_shapley():
    cases = [(coordinate_model(1), unit_square(1)),
             (ishigami(), ishigami_space()),
             (sobol_g([float(j) for j in range(10)]), sobol_g_space(10))]
    for f, space in cases:
        for n in (2, 100):
            f.reset_count()
            report = estimate_shapley_all(f, space, EstimatorConfig(n=n, seed=1))
            assert report.eval_count == (space.d + 1) * n
            assert f.eval_count == (space.d + 1) * n


def test_cost_contract_winding():
    cases = [(coordinate_model(1), unit_square(1)),
             (ishigami(), ishigami_space()),
             (sobol_g([float(j) for j in range(10)]), sobol_g_space(10))]
    for f, space in cases:
        for n in (2, 100):
            f.reset_count()
            report = estimate_shapley_winding(f, space, EstimatorConfig(n=n, seed=1))
            assert report.eval_count == space.d * n + 1
            f.reset_count()
            report = estimate_shapley_winding(f, space, EstimatorConfig(n=n, seed=1),
                                              cyclic=True)
            assert report.eval_count == space.d * n


def test_cost_contract_effects():
    f = ishigami()
    space = ishigami_space()
    for n in (2, 100):
        f.reset_count()
        assert estimate_main_effects(f, space, EstimatorConfig(n=n, seed=1)).eval_count == 5 * n
        f.reset_count()
        assert estimate_total_effects(f, space, EstimatorConfig(n=n, seed=1)).eval_count == 4 * n


def test_telescoping_identity_all_builtins():
    models = [(ishigami(), ishigami_space()),
              (sobol_g([0.0, 1.0, 2.0]), sobol_g_space(3)),
              (plate_buckling(), plate_buckling_space()),
              (constant_model(2.0, 3), unit_square(3))]
    for f, space in models:
        report = estimate_shapley_all(f, space, EstimatorConfig(n=2 ** 10, seed=5))
        if report.sigma2_from_pairs == 0.0:
            assert report.sigma2_estimate == 0.0
        else:
            rel = abs(report.sigma2_estimate - report.sigma2_from_pairs)
            assert rel <= 1e-10 * abs(report.sigma2_from_pairs)


def test_telescoping_identity_winding():
    report = estimate_shapley_winding(ishigami(), ishigami_space(),
                                      EstimatorConfig(n=2 ** 10, seed=5))
    rel = abs(report.sigma2_estimate - report.sigma2_from_pairs)
    assert rel <= 1e-10 * abs(report.sigma2_from_pairs)


def test_sigma2_estimate_is_sum_of_estimates():
    report = estimate_shapley_all(ishigami(), ishigami_space(),
                                  EstimatorConfig(n=512, seed=9))
    assert report.sigma2_estimate == math.fsum(report.estimates)


def test_constant_model_gives_exact_zeros():
    f = constant_model(7.5, 4)
    report = estimate_shapley_all(f, unit_square(4), EstimatorConfig(n=64, seed=0))
    assert report.estimates == (0.0,) * 4
    assert report.variance_of_estimator == (0.0,) * 4
    assert report.sigma2_estimate == 0.0
    assert report.sigma2_from_pairs == 0.0
    winding = estimate_shapley_winding(f, unit_square(4), EstimatorConfig(n=64, seed=0))
    assert winding.estimates == (0.0,) * 4
    main = estimate_main_effects(f, unit_square(4), EstimatorConfig(n=64, seed=0))
    assert main.values == (0.0,) * 4
    total = estimate_total_effects(f, unit_square(4), EstimatorConfig(n=64, seed=0))
    assert total.values == (0.0,) * 4


def test_absent_coordinate_gets_exactly_zero():
    f = coordinate_model(2, index=0)
    space = unit_square(2)
    cfg = EstimatorConfig(n=256, seed=3)
    report = estimate_shapley_all(f, space, cfg)
    assert report.estimates[1] == 0.0
    assert report.variance_of_estimator[1] == 0.0
    total = estimate_total_effects(f, space, cfg)
    assert total.values[1] == 0.0
    assert total.variance_of_estimator[1] == 0.0
    main = estimate_main_effects(f, space, cfg)
    assert main.values[1] == 0.0


def test_model_returning_a_view_of_its_input_gets_its_own_values():
    # x[:, 0] is a view of the walk's point matrix, which the next step
    # overwrites; the previous step's values must not move with it.
    report = estimate_shapley_all(coordinate_model(2), unit_square(2),
                                  EstimatorConfig(n=10_000, seed=4))
    se = math.sqrt(report.variance_of_estimator[0])
    assert abs(report.estimates[0] - 1.0 / 12.0) <= 4.0 * se
    assert report.sigma2_estimate == pytest.approx(report.sigma2_from_pairs, rel=1e-12)


@pytest.mark.parametrize("estimator", [
    estimate_shapley_all, estimate_shapley_winding, estimate_main_effects,
    estimate_total_effects], ids=["shapley", "winding", "main", "total"])
@pytest.mark.parametrize("returns, shape", [
    (lambda x: 1.0, r"\(\)"),
    (lambda x: x[:, :1], r"\(\d+, 1\)"),
    (lambda x: x + 0.0, r"\(\d+, 2\)"),
    (lambda x: x[1:, 0], r"\(\d+,\)"),
], ids=["scalar", "n-by-1", "n-by-2", "n-minus-1"])
def test_misshapen_model_output_raises_evaluation_error(estimator, returns, shape):
    # Each estimator must see exactly one value per point, or an error
    # naming the model and the shape it returned.
    f = ModelFunction(2, returns, name="misshapen", vectorized=True)
    with pytest.raises(EvaluationError, match=f"misshapen returned shape {shape} for a batch"):
        estimator(f, unit_square(2), EstimatorConfig(n=64, seed=0))


@pytest.mark.parametrize("value, what", [
    (np.array([1.0, 2.0]), r"ndarray of shape \(2,\)"),
    (np.array([1.0]), r"ndarray of shape \(1,\)"),
    (None, "NoneType"),
    ("abc", "str"),
], ids=["2-array", "1-array", "none", "str"])
def test_per_point_model_returning_a_non_number_raises_evaluation_error(value, what):
    f = ModelFunction(2, lambda x: value, name="odd")
    with pytest.raises(EvaluationError, match=r"samples \[0, 8\): odd returned "
                                              f"{what} at point 0 of the batch; "
                                              "expected a number"):
        estimate_shapley_all(f, unit_square(2), EstimatorConfig(n=8, seed=0))


def test_per_point_model_errors_and_numbers_pass_through():
    def fails(x):
        raise KeyError("inside the model")

    with pytest.raises(KeyError, match="inside the model"):
        estimate_shapley_all(ModelFunction(2, fails), unit_square(2),
                             EstimatorConfig(n=8, seed=0))
    for value in (1, True, np.float32(0.5), np.array(2.0), "3.5"):
        f = ModelFunction(2, lambda x: value)
        assert f.evaluate_batch(np.zeros((2, 2))).tolist() == [float(value)] * 2


def test_ci_brackets_estimate_and_scales_with_z():
    report = estimate_shapley_all(ishigami(), ishigami_space(),
                                  EstimatorConfig(n=1024, seed=2))
    for lo, est, hi in zip(report.ci_low, report.estimates, report.ci_high):
        assert lo <= est <= hi
    wide = estimate_shapley_all(ishigami(), ishigami_space(),
                                EstimatorConfig(n=1024, seed=2, ci_z=3.0))
    assert wide.estimates == report.estimates
    for j in range(3):
        assert wide.ci_high[j] - wide.ci_low[j] == pytest.approx(
            (report.ci_high[j] - report.ci_low[j]) * 3.0 / 1.96, rel=1e-12)


def test_additive_model_recovers_coordinate_variances():
    report = estimate_shapley_all(additive_model(), unit_square(2),
                                  EstimatorConfig(n=2 ** 16, seed=4))
    for j in range(2):
        assert report.ci_low[j] <= 1 / 12 <= report.ci_high[j]
        assert report.estimates[j] == pytest.approx(1 / 12, rel=0.05)


def test_negative_estimates_are_reported_unclamped():
    # Weak variables of the g function routinely dip below zero at small N.
    a = [float(j) for j in range(10)]
    f = sobol_g(a)
    space = sobol_g_space(10)
    found = False
    for seed in range(20):
        report = estimate_shapley_all(f, space, EstimatorConfig(n=64, seed=seed))
        if any(e < 0 for e in report.estimates):
            found = True
            assert report.sigma2_estimate == math.fsum(report.estimates)
            break
    assert found


def test_determinism_across_worker_counts():
    f = ishigami()
    space = ishigami_space()
    n = 3 * 4096 + 17
    base = estimate_shapley_all(f, space, EstimatorConfig(n=n, seed=9, workers=1))
    for workers in (2, 4):
        other = estimate_shapley_all(f, space, EstimatorConfig(n=n, seed=9, workers=workers))
        assert other.estimates == base.estimates
        assert other.variance_of_estimator == base.variance_of_estimator
        assert other.ci_low == base.ci_low
        assert other.sigma2_from_pairs == base.sigma2_from_pairs
    m1 = estimate_main_effects(f, space, EstimatorConfig(n=n, seed=9, workers=1))
    m4 = estimate_main_effects(f, space, EstimatorConfig(n=n, seed=9, workers=4))
    assert m1.values == m4.values
    t1 = estimate_total_effects(f, space, EstimatorConfig(n=n, seed=9, workers=1))
    t4 = estimate_total_effects(f, space, EstimatorConfig(n=n, seed=9, workers=4))
    assert t1.values == t4.values


def test_same_seed_reproduces_bitwise():
    cfg = EstimatorConfig(n=500, seed=123)
    a = estimate_shapley_all(ishigami(), ishigami_space(), cfg)
    b = estimate_shapley_all(ishigami(), ishigami_space(), cfg)
    assert a == b


def pickfreeze_increment(f_x: float, f_minus: float, f_plus: float) -> float:
    """One walk increment (F - (F- + F+)/2) * (F- - F+), from the value F at
    the base point and the values F-, F+ before and after the swap."""
    return (f_x - 0.5 * (f_minus + f_plus)) * (f_minus - f_plus)


def test_matches_naive_reference_implementation():
    """A scalar, loop-based rewrite of the permutation walk must agree exactly.

    Draws the same chunk streams, then does everything else the slow way:
    per-sample walks, scalar increments, textbook mean and variance.
    """
    f = ishigami()
    space = ishigami_space()
    n = 4096 + 37
    seed = 21
    d = space.d

    g_all = np.zeros((n, d))
    row = 0
    for k, start in enumerate(range(0, n, 4096)):
        count = min(start + 4096, n) - start
        gen = RngStream(seed, stream=k).generator()
        x = space.sample(count, gen)
        y = space.sample(count, gen)
        perms = permutation_rows(gen, count, d)
        for i in range(count):
            f_x = f(x[i])
            z = x[i].copy()
            f_minus = f_x
            for step in range(d):
                j = perms[i, step]
                z[j] = y[i, j]
                f_plus = f(z)
                g_all[row, j] = pickfreeze_increment(f_x, f_minus, f_plus)
                f_minus = f_plus
            row += 1
    naive_est = g_all.mean(axis=0)
    naive_var = ((g_all - naive_est) ** 2).sum(axis=0) / (n * (n - 1))

    report = estimate_shapley_all(f, space, EstimatorConfig(n=n, seed=seed))
    assert np.abs(naive_est - np.array(report.estimates)).max() < 1e-12
    assert np.abs(naive_var - np.array(report.variance_of_estimator)).max() < 1e-12


def test_winding_has_no_variance_estimate():
    report = estimate_shapley_winding(ishigami(), ishigami_space(),
                                      EstimatorConfig(n=128, seed=7))
    assert report.variance_of_estimator is None
    assert report.ci_low is None
    assert report.ci_high is None


def test_winding_ignores_worker_count():
    f = ishigami()
    space = ishigami_space()
    a = estimate_shapley_winding(f, space, EstimatorConfig(n=300, seed=7, workers=1))
    b = estimate_shapley_winding(f, space, EstimatorConfig(n=300, seed=7, workers=4))
    assert a.estimates == b.estimates


def test_winding_chunk_carry_is_seamless():
    # Crossing the internal chunk boundary must not disturb the pairing.
    f = ishigami()
    space = ishigami_space()
    for n, cyclic in [(4096, False), (4096, True), (2 * 4096 + 5, False), (2 * 4096 + 5, True)]:
        f.reset_count()
        report = estimate_shapley_winding(f, space, EstimatorConfig(n=n, seed=11),
                                          cyclic=cyclic)
        assert report.eval_count == 3 * n + (0 if cyclic else 1)
        rel = abs(report.sigma2_estimate - report.sigma2_from_pairs)
        assert rel <= 1e-10 * abs(report.sigma2_from_pairs)


@pytest.mark.parametrize("cyclic", [False, True])
def test_winding_draws_permutations_from_the_jumped_stream(cyclic):
    # Whole-run draws on one generator: every point, then every permutation.
    from shapeff.estimators import _winding_streams

    space = ishigami_space()
    n, d, seed = 3 * 4096 + 5, space.d, 17
    gen = RngStream(seed).generator()
    points = space.sample(n if cyclic else n + 1, gen)
    perms = permutation_rows(gen, n, d)

    point_gen, perm_gen = _winding_streams(seed, n, d, cyclic)
    sizes = [1, *[min(4096, n - s) for s in range(0, n, 4096)]]
    if cyclic:
        sizes[-1] -= 1
    assert np.array_equal(np.vstack([space.sample(c, point_gen) for c in sizes]), points)
    chunked = [permutation_rows(perm_gen, min(4096, n - s), d) for s in range(0, n, 4096)]
    assert np.array_equal(np.vstack(chunked), perms)


@pytest.mark.parametrize("kind", ["shapley", "main", "total", "winding", "winding-cyclic"])
def test_memory_does_not_grow_with_n(kind):
    # tracemalloc sees numpy's buffers. Chunk buffers are reused, so the peak
    # at 32 chunks stays within 1 MiB of the peak at 4 chunks.
    def peak(chunks):
        f, space = sobol_g([float(j) for j in range(10)]), sobol_g_space(10)
        cfg = EstimatorConfig(n=chunks * 4096, seed=5)
        tracemalloc.start()
        try:
            if kind.startswith("winding"):
                estimate_shapley_winding(f, space, cfg, cyclic=kind == "winding-cyclic")
            else:
                {"shapley": estimate_shapley_all, "main": estimate_main_effects,
                 "total": estimate_total_effects}[kind](f, space, cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(32) - peak(4) <= 1 << 20


def test_each_worker_thread_allocates_one_workspace(monkeypatch):
    from shapeff import estimators

    made = []

    class CountingWorkspace(estimators._Workspace):
        def __init__(self, *args, **kwargs):
            made.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(estimators, "_Workspace", CountingWorkspace)
    for workers in (1, 2):
        made.clear()
        estimate_total_effects(ishigami(), ishigami_space(),
                               EstimatorConfig(n=8 * 4096, seed=3, workers=workers))
        assert 1 <= len(made) <= workers


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind", ["shapley", "main", "total", "winding", "winding-cyclic"])
def test_models_are_passed_column_major_batches(kind, workers):
    layouts = []

    def f(X):
        layouts.append((X.shape, X.flags.f_contiguous))
        return np.sin(X).sum(axis=1)

    model = ModelFunction(3, f, vectorized=True)
    # A cyclic run's last chunk holds one walk at N=4097 and four at N=4100.
    for n in (4097, 4100):
        cfg = EstimatorConfig(n=n, seed=8, workers=workers)
        if kind.startswith("winding"):
            estimate_shapley_winding(model, unit_square(3), cfg, cyclic=kind == "winding-cyclic")
        else:
            {"shapley": estimate_shapley_all, "main": estimate_main_effects,
             "total": estimate_total_effects}[kind](model, unit_square(3), cfg)
    assert any(shape == (4096, 3) for shape, _ in layouts)
    assert all(column_major for _, column_major in layouts)


def test_flat_view_of_a_row_major_matrix_raises():
    from shapeff.estimators import _flat

    columns = np.zeros((5, 3), order="F")
    flat = _flat(columns)
    flat[1 * 5 + 4] = 1.0
    assert columns[4, 1] == 1.0
    with pytest.raises(ValueError, match="not column-major"):
        _flat(np.zeros((5, 3)))
    with pytest.raises(ValueError, match="not column-major"):
        _flat(columns[::2])


def test_total_effects_are_nonnegative():
    report = estimate_total_effects(sobol_g([0.0, 1.0, 2.0]), sobol_g_space(3),
                                    EstimatorConfig(n=512, seed=13))
    assert all(v >= 0 for v in report.values)
    assert report.kind == "total"


def test_nonfinite_output_aborts_with_sample_index():
    def bad(x):
        out = x[:, 0].copy()
        out[out > 0.9] = float("nan")
        return out

    f = ModelFunction(2, bad, name="bad", vectorized=True)
    with pytest.raises(EvaluationError) as err:
        estimate_shapley_all(f, unit_square(2), EstimatorConfig(n=256, seed=0))
    assert "sample" in str(err.value)


def test_nonfinite_output_names_the_first_bad_sample_of_its_chunk():
    # Rows 1 and 3 of the 4-sample tail chunk (samples 4096..4099) are bad.
    def bad(x):
        out = np.zeros(x.shape[0])
        if x.shape[0] == 4:
            out[1], out[3] = math.inf, math.nan
        return out

    f = ModelFunction(2, bad, name="bad", vectorized=True)
    with pytest.raises(EvaluationError, match=r"non-finite model output inf at sample 4097: x = \["):
        estimate_shapley_all(f, unit_square(2), EstimatorConfig(n=4100, seed=0))


def test_evaluation_error_carries_sample_range():
    f = plate_buckling()
    space = InputSpace([Uniform(-1.0, 1.0)] * 6)
    with pytest.raises(EvaluationError) as err:
        estimate_shapley_all(f, space, EstimatorConfig(n=64, seed=0))
    assert "samples [" in str(err.value)
