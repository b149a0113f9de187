"""Tests for the permutation-walk Shapley estimator and pick-freeze effects."""

import itertools
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from shapeff import (EstimatorConfig, EvaluationError, ExternalModel, InputSpace, ModelFunction,
                     ParameterError, RngStream, Uniform, anova_oracle, estimate_main_effects,
                     estimate_shapley_all, estimate_shapley_winding, estimate_total_effects,
                     ishigami, ishigami_space, plate_buckling, sobol_g, sobol_g_space)
from shapeff.analysis import run_estimator
from shapeff.estimators import ESTIMATOR_KINDS
from shapeff.inputs import permutation_rows
from support import (KIND_TABLE, chunk_of_first_draws, coordinate_model, cost_contract_problems,
                     cost_problems, run_kind, run_python, run_with_timeout,
                     telescoping_contract_problems, telescoping_problems, unit_square,
                     worker_contract_problems, worker_problems, zero_problems)


def additive_model() -> ModelFunction:
    return ModelFunction(2, lambda x: x[:, 0] + x[:, 1], name="sum", vectorized=True)


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
    ("ci_z", math.inf, "ci_z must be finite"),
    ("ci_z", math.nan, "ci_z must be finite"),
    ("ci_z", "x", "ci_z must be a number"),
    ("ci_z", None, "ci_z must be a number"),
    ("ci_z", True, "ci_z must be a number"),
    ("seed", -1, "seed must be >= 0, got -1"),
    ("seed", 2 ** 64, r"seed must be < 2\^64, got 18446744073709551616")])
def test_config_rejects_non_integral_counts_and_non_finite_ci(field, value, message):
    with pytest.raises(ParameterError, match=message):
        EstimatorConfig(**{"n": 100, "seed": 1, field: value})


def test_sample_size_is_capped_where_the_chunk_streams_end():
    # Chunk k draws from RngStream(seed, k), and stream ids stop at 2^32.
    assert EstimatorConfig(n=2 ** 44, seed=0).n == 2 ** 44
    with pytest.raises(ParameterError, match=(r"^sample size must be <= 2\^44 "
                                             r"\(2\^32 chunk streams of 4096 samples\), "
                                             r"got 17592186044417$")):
        EstimatorConfig(n=2 ** 44 + 1, seed=0)


def test_config_stores_numpy_integers_as_int():
    cfg = EstimatorConfig(n=np.int64(100), seed=np.uint64(2 ** 63), workers=np.int32(2))
    assert (cfg.n, cfg.seed, cfg.workers) == (100, 2 ** 63, 2)
    assert all(type(v) is int for v in (cfg.n, cfg.seed, cfg.workers))


@pytest.mark.parametrize("estimate", [estimate_shapley_all, estimate_shapley_winding,
                                      estimate_main_effects, estimate_total_effects])
def test_dimension_mismatch_rejected(estimate):
    f = ishigami()
    with pytest.raises(ParameterError, match="model dimension 3 does not match input "
                                             "space dimension 2"):
        estimate(f, unit_square(2), EstimatorConfig(n=4, seed=0))
    assert f.eval_count == 0


def test_cost_contract_shapley():
    assert cost_contract_problems(["shapley"]) == []


def test_cost_contract_winding():
    assert cost_contract_problems(["winding"]) == []


def test_cost_contract_effects():
    assert cost_contract_problems(["main", "total"]) == []


def test_cost_contracts_cover_every_kind():
    # The three tests above between them check every row of the kind table.
    assert {"shapley", "winding", "main", "total"} == set(KIND_TABLE)


@pytest.mark.parametrize("kind", ["shapley", "winding"], ids=["shapley", "shapley-winding"])
def test_concurrent_runs_on_one_model_each_count_their_own_evaluations(kind):
    # Each batch sleeps, so the two runs' batches interleave; a report that
    # read the model's shared counter would count the other run's too.
    from concurrent.futures import ThreadPoolExecutor

    def slow(x):
        time.sleep(0.002)
        return x.sum(axis=1)

    f = ModelFunction(3, slow, vectorized=True)
    n = 4 * 4096 + 3
    with ThreadPoolExecutor(max_workers=2) as pool:
        runs = [pool.submit(run_kind, kind, f, unit_square(3),
                            EstimatorConfig(n=n, seed=seed, workers=2)) for seed in (1, 2)]
        reports = [run.result() for run in runs]
    assert cost_problems(reports[0]) + cost_problems(reports[1]) == []
    assert f.eval_count == 2 * reports[0].eval_count


def test_telescoping_identity_all_builtins():
    assert telescoping_contract_problems(["shapley"]) == []


def test_telescoping_identity_winding():
    assert telescoping_contract_problems(["winding"]) == []


def test_sigma2_estimate_is_sum_of_estimates():
    report = estimate_shapley_all(ishigami(), ishigami_space(),
                                  EstimatorConfig(n=512, seed=9))
    assert report.sigma2_estimate == math.fsum(report.estimates)


def test_constant_model_gives_exact_zeros():
    assert zero_problems(KIND_TABLE, ["constant"]) == []


def test_absent_coordinate_gets_exactly_zero():
    assert zero_problems(KIND_TABLE, ["x1-of-2", "x2-of-3"]) == []


def test_model_returning_a_view_of_its_input_gets_its_own_values():
    # x[:, 0] is a view of the walk's point matrix, which the next step
    # overwrites; the previous step's values must not move with it.
    report = estimate_shapley_all(coordinate_model(2), unit_square(2),
                                  EstimatorConfig(n=10_000, seed=4))
    se = math.sqrt(report.variance_of_estimator[0])
    assert abs(report.estimates[0] - 1.0 / 12.0) <= 4.0 * se
    assert telescoping_problems(report, rel=1e-12) == []


@pytest.mark.parametrize("kind", list(KIND_TABLE))
@pytest.mark.parametrize("returns, shape", [
    (lambda x: 1.0, r"\(\)"),
    (lambda x: x[:, :1], r"\(\d+, 1\)"),
    (lambda x: x + 0.0, r"\(\d+, 2\)"),
    (lambda x: x[1:, 0], r"\(\d+,\)"),
], ids=["scalar", "n-by-1", "n-by-2", "n-minus-1"])
def test_misshapen_model_output_raises_evaluation_error(kind, returns, shape):
    # Each estimator must see exactly one value per point, or an error
    # naming the model and the shape it returned.
    f = ModelFunction(2, returns, name="misshapen", vectorized=True)
    with pytest.raises(EvaluationError, match=f"misshapen returned shape {shape} for a batch"):
        run_kind(kind, f, unit_square(2), EstimatorConfig(n=64, seed=0))


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


@pytest.mark.parametrize("returns, what", [
    (lambda X: ["abc"] * len(X), "list"),
    (lambda X: np.array(["abc"] * len(X)), "ndarray"),
    (lambda X: [object()] * len(X), "list"),
], ids=["str-list", "str-array", "object-list"])
def test_vectorized_model_returning_non_numbers_raises_evaluation_error(returns, what):
    f = ModelFunction(2, returns, name="odd", vectorized=True)
    with pytest.raises(EvaluationError, match=r"samples \[0, 8\): odd returned a "
                                              f"{what} that is not an array of numbers"):
        estimate_shapley_all(f, unit_square(2), EstimatorConfig(n=8, seed=0))


def test_vectorized_model_errors_pass_through():
    def fails(X):
        raise ValueError("inside the model")

    with pytest.raises(ValueError, match="inside the model") as err:
        estimate_shapley_all(ModelFunction(2, fails, vectorized=True), unit_square(2),
                             EstimatorConfig(n=8, seed=0))
    assert type(err.value) is ValueError


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


@pytest.mark.parametrize("kind", ["shapley", "main", "total"])
def test_confidence_bounds_that_overflow_raise_evaluation_error(kind):
    # Finite model values and a finite ci_z whose product overflows.
    cfg = EstimatorConfig(n=4, seed=0, ci_z=1e308)
    with pytest.raises(EvaluationError, match=(
            rf"^{kind} report: ci_low is -inf for variable \d, not a finite number$")):
        run_estimator(kind, ishigami(a=1000.0), ishigami_space(), cfg)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
def test_estimates_that_overflow_raise_evaluation_error(kind, workers):
    # The chunks' arithmetic overflows before the report's, on the worker
    # threads too (N spans two chunks), and numpy's warnings, which the
    # test suite turns into errors, must not escape ahead of the report check.
    f = ModelFunction(1, lambda x: x[:, 0] * 1e200, vectorized=True)
    with pytest.raises(EvaluationError,
                       match=rf"^{kind} report: estimates is (-?inf|nan) for variable 1"):
        run_estimator(kind, f, unit_square(1), EstimatorConfig(n=4100, seed=0, workers=workers))


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
    assert worker_contract_problems(KIND_TABLE) == []


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
    assert worker_contract_problems(["winding"], (300, 2 * 4096 + 5), seed=7, workers=(1, 4)) == []


def test_winding_chunk_carry_is_seamless():
    # Crossing the internal chunk boundary must not disturb the pairing.
    f = ishigami()
    space = ishigami_space()
    for n in (4096, 2 * 4096 + 5):
        f.reset_count()
        report = estimate_shapley_winding(f, space, EstimatorConfig(n=n, seed=11))
        assert cost_problems(report, f) + telescoping_problems(report) == []


def test_winding_draws_chunk_k_from_stream_k(monkeypatch):
    from shapeff import estimators

    # Chunk k draws its permutations from RngStream(seed, k) right after its
    # points: point 0 and 4096 points in chunk 0, then 4096, 4096 and 5.
    space = ishigami_space()
    n, d, seed = 3 * 4096 + 5, space.d, 17
    states = []

    def recording(gen, count, width):
        states.append(gen.bit_generator.state)
        return permutation_rows(gen, count, width)

    monkeypatch.setattr(estimators, "permutation_rows", recording)
    estimate_shapley_winding(ishigami(), space, EstimatorConfig(n=n, seed=seed))
    expected = []
    for k, start in enumerate(range(0, n, 4096)):
        gen = RngStream(seed, stream=k).generator()
        space.sample((k == 0) + min(4096, n - start), gen)
        expected.append(gen.bit_generator.state)
    assert states == expected


def recording_model(d: int) -> tuple[ModelFunction, list[np.ndarray]]:
    """A vectorized model that keeps a copy of every batch it is passed."""
    batches = []

    def func(x):
        batches.append(x.copy())
        return np.sin(x).sum(axis=1)

    return ModelFunction(d, func, vectorized=True), batches


def walk_points(x: np.ndarray, y: np.ndarray, perms: np.ndarray) -> list[np.ndarray]:
    """x with the first s coordinates of each row's permutation taken from y,
    for s = 1..d-1: the points a walk evaluates between its two ends."""
    count, d = x.shape
    swapped = np.zeros((count, d), dtype=bool)
    points = []
    for s in range(d - 1):
        swapped[np.arange(count), perms[:, s]] = True
        points.append(np.where(swapped, y, x))
    return points


def mean_half_squared_differences(ends: list[tuple[np.ndarray, np.ndarray]]) -> float:
    """The mean over every walk of 0.5 * (f(a) - f(b))^2, for the recording
    model's f and each walk's end points a and b, one row of each pair."""
    terms = [0.5 * (np.sin(a).sum(axis=1) - np.sin(b).sum(axis=1)) ** 2 for a, b in ends]
    return math.fsum(np.concatenate(terms).tolist()) / sum(map(len, terms))


def bitwise(batches: list[np.ndarray]) -> list[tuple]:
    return [(b.shape, b.tobytes()) for b in batches]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n, d", [(5, 3), (4097, 2)])
def test_shapley_walks_visit_x_y_then_x_taking_y_along_the_permutation(n, d, workers):
    model, batches = recording_model(d)
    space = InputSpace([Uniform(-1.0, 2.0)] * d)
    seed = 23
    rep = estimate_shapley_all(model, space, EstimatorConfig(n=n, seed=seed, workers=workers))
    # The chunks differ in size, so a chunk's batches are those of its size,
    # in the order its thread passed them.
    sizes = [min(4096, n - s) for s in range(0, n, 4096)]
    by_size = {count: [b for b in batches if len(b) == count] for count in sizes}
    assert sum(map(len, by_size.values())) == len(batches)
    for k, count in enumerate(sizes):
        gen = RngStream(seed, stream=k).generator()
        x = space.sample(count, gen)
        y = space.sample(count, gen)
        perms = permutation_rows(gen, count, d)
        assert bitwise(by_size[count]) == bitwise([x, y, *walk_points(x, y, perms)])
    # Each walk runs from a row of a chunk's first batch to the same row of
    # its second.
    assert rep.sigma2_from_pairs == pytest.approx(
        mean_half_squared_differences([(b[0], b[1]) for b in by_size.values()]), rel=1e-12)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n, d", [(5, 3), (4097, 2)])
def test_winding_walks_consecutive_points_along_chunk_permutations(n, d, workers):
    model, batches = recording_model(d)
    space = InputSpace([Uniform(-1.0, 2.0)] * d)
    seed = 29
    rep = estimate_shapley_winding(model, space, EstimatorConfig(n=n, seed=seed, workers=workers))
    # Chunk k draws from stream k: point 0 (chunk 0 only), its points, then
    # its permutations. It evaluates its new points, then walks each point
    # to the next, starting from the last point of the chunk before; chunk 0
    # evaluates point 0 first.
    expected = []
    for k, start in enumerate(range(0, n, 4096)):
        count = min(4096, n - start)
        gen = RngStream(seed, stream=k).generator()
        if k == 0:
            last = space.sample(1, gen)
            expected.append(last)
        points = space.sample(count, gen)
        perms = permutation_rows(gen, count, d)
        expected += [points, *walk_points(np.vstack([last, points[:-1]]), points, perms)]
        last = points[-1:]
    assert bitwise(batches) == bitwise(expected)
    # Walk i runs from point i to point i + 1: point 0 is the first batch,
    # and each chunk's points the first of its d batches.
    sequence = np.vstack([batches[0], *batches[1::d]])
    assert rep.sigma2_from_pairs == pytest.approx(
        mean_half_squared_differences([(sequence[:-1], sequence[1:])]), rel=1e-12)


@pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
def test_a_longer_run_starts_with_the_model_calls_of_a_shorter_one(kind):
    # Chunk k draws only from RngStream(seed, k), so the run at N = 3 * 4096
    # first passes the model exactly the batches of the run at N = 2 * 4096.
    space = InputSpace([Uniform(-1.0, 2.0)] * 2)
    calls = []
    for n in (2 * 4096, 3 * 4096):
        model, batches = recording_model(2)
        run_estimator(kind, model, space, EstimatorConfig(n=n, seed=31))
        calls.append(bitwise(batches))
    short, long = calls
    assert long[:len(short)] == short
    assert len(long) > len(short)


@pytest.mark.parametrize("kind", list(KIND_TABLE))
def test_memory_does_not_grow_with_n(kind):
    # tracemalloc sees numpy's buffers. Chunk buffers are reused, so the peak
    # at 32 chunks stays within 1 MiB of the peak at 4 chunks.
    def peak(chunks):
        f, space = sobol_g([float(j) for j in range(10)]), sobol_g_space(10)
        cfg = EstimatorConfig(n=chunks * 4096, seed=5)
        tracemalloc.start()
        try:
            run_kind(kind, f, space, cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(32) - peak(4) <= 1 << 20


@pytest.mark.parametrize("kind, workers", [
    ("shapley", 1), ("total", 2), ("winding", 1)])
def test_memory_does_not_grow_with_the_number_of_chunks(kind, workers):
    # At d=1 a chunk's own buffers are small, so what is kept per chunk
    # (results awaiting the merge, finished futures) would show: about 0.8
    # to 1.9 KiB per chunk, or 0.8 to 1.9 MiB over 1024 chunks. How far the
    # worker threads overlap moves a peak by up to about 150 KiB either way,
    # so the short run takes the highest of three, the long one the lower
    # of two.
    f = ModelFunction(1, lambda x: x[:, 0] * 1.0, vectorized=True)

    def peak(chunks):
        cfg = EstimatorConfig(n=chunks * 4096, seed=5, workers=workers)
        tracemalloc.start()
        try:
            run_kind(kind, f, unit_square(1), cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert min(peak(1024), peak(1024)) - max(peak(4) for _ in range(3)) < 256 << 10


def test_a_failing_chunk_stops_the_chunks_after_it():
    # The third batch fails, slowly. Meanwhile the other worker may run only
    # the chunks already in flight (2 * workers), not the rest of the 64.
    calls = itertools.count()

    def func(x):
        if next(calls) == 2:
            time.sleep(0.2)
            raise RuntimeError("model failed")
        return x[:, 0]

    f = ModelFunction(1, func, vectorized=True)
    with pytest.raises(RuntimeError, match="model failed"):
        estimate_shapley_all(f, unit_square(1), EstimatorConfig(n=64 * 4096, seed=1, workers=2))
    assert next(calls) <= 16


def test_each_worker_thread_allocates_one_workspace(monkeypatch):
    from shapeff import estimators

    made = []

    class CountingWorkspace(estimators._Workspace):
        def __init__(self, *args, **kwargs):
            made.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(estimators, "_Workspace", CountingWorkspace)
    for workers, n in ((1, 8 * 4096), (2, 8 * 4096), (3, 8 * 4096), (8, 2 * 4096 + 1)):
        made.clear()
        estimate_total_effects(ishigami(), ishigami_space(),
                               EstimatorConfig(n=n, seed=3, workers=workers))
        assert len(made) == min(workers, -(-n // 4096))


def slow_model(calls):
    """x1 on U(0,1), recording the thread of each call; each call sleeps
    2 ms, so a thread that holds a chunk holds it long enough for the
    others to take the next ones."""
    def func(x):
        calls.append(threading.get_ident())
        time.sleep(0.002)
        return x[:, 0] * 1.0
    return ModelFunction(1, func, vectorized=True)


def test_the_calling_thread_runs_chunks_with_at_most_workers_threads():
    calls = []
    estimate_shapley_all(slow_model(calls), unit_square(1),
                         EstimatorConfig(n=8 * 4096, seed=2, workers=2))
    assert len(calls) == 16
    threads = set(calls)
    assert threading.get_ident() in threads and len(threads) <= 2


def test_a_thread_runs_ahead_of_a_slow_chunk_by_the_window():
    # Chunk 0's first batch is held until chunk 3 has started, and 0.2 s
    # more. The other thread runs chunks 1, 2 and 3 meanwhile, but not chunk
    # 4: with 2 * workers chunks taken and not merged, it waits for chunk 0.
    space = unit_square(1)
    chunk_of = chunk_of_first_draws(space, 4, 8)
    started, seen, third = [], [], threading.Event()

    def func(x):
        k = chunk_of.get(x[0, 0])
        if k is not None:
            started.append(k)
        if k == 3:
            third.set()
        if k == 0:
            third.wait(10)
            time.sleep(0.2)
            seen.append(sorted(started))
        return x[:, 0] * 1.0

    report = run_with_timeout(lambda: estimate_shapley_all(
        ModelFunction(1, func, vectorized=True), space,
        EstimatorConfig(n=8 * 4096, seed=4, workers=2)))
    assert seen == [[0, 1, 2, 3]]
    assert sorted(started) == list(range(8)) and cost_problems(report) == []


@pytest.fixture
def helper_threads(monkeypatch):
    """The threads started while a test runs, each marked once joined."""
    started = []

    class RecordingThread(threading.Thread):
        joined = False

        def start(self):
            started.append(self)
            super().start()

        def join(self, timeout=None):
            super().join(timeout)
            self.joined = not self.is_alive()

    monkeypatch.setattr(threading, "Thread", RecordingThread)
    return started


@pytest.mark.parametrize("workers, n, helpers", [(8, 2 * 4096 + 1, 2), (1, 8 * 4096, 0),
                                                 (2, 4096, 0)])
def test_helper_threads_are_one_fewer_than_workers_or_chunks(helper_threads, workers, n, helpers):
    estimate_total_effects(ishigami(), ishigami_space(),
                           EstimatorConfig(n=n, seed=4, workers=workers))
    assert len(helper_threads) == helpers
    assert all(thread.joined for thread in helper_threads)


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
@pytest.mark.parametrize("on", ["caller", "helper"])
def test_every_helper_is_joined_after_a_failing_chunk(helper_threads, on, error):
    # The model fails on its first call on the calling thread, or on the
    # first on a helper; KeyboardInterrupt is not an Exception, and is
    # raised by the caller all the same.
    before = threading.active_count()
    estimate_shapley_all(slow_model([]), unit_square(1),
                         EstimatorConfig(n=8 * 4096, seed=2, workers=2))
    assert threading.active_count() == before

    def func(x):
        time.sleep(0.002)
        if (threading.current_thread() is threading.main_thread()) == (on == "caller"):
            raise error("model failed")
        return x[:, 0] * 1.0

    with pytest.raises(error, match="model failed"):
        estimate_shapley_all(ModelFunction(1, func, vectorized=True), unit_square(1),
                             EstimatorConfig(n=8 * 4096, seed=2, workers=2))
    assert len(helper_threads) == 2 and all(thread.joined for thread in helper_threads)
    assert threading.active_count() == before


def test_no_chunk_is_taken_after_a_failure():
    # Chunk 0 fails on its first batch, at once; every other batch takes
    # 20 ms. Only the chunk the other thread took meanwhile still runs.
    space = unit_square(1)
    chunk_of = chunk_of_first_draws(space, 3, 1)
    calls = []

    def func(x):
        calls.append(x[0, 0])
        if chunk_of.get(x[0, 0]) == 0:
            raise RuntimeError("model failed")
        time.sleep(0.02)
        return x[:, 0] * 1.0

    with pytest.raises(RuntimeError, match="model failed"):
        estimate_shapley_all(ModelFunction(1, func, vectorized=True), space,
                             EstimatorConfig(n=16 * 4096, seed=3, workers=2))
    assert len(calls) <= 3


def test_many_workers_switching_threads_often_match_one_worker():
    # Eight workers on two cores, switching threads every microsecond: a
    # chunk lost, run twice or merged out of order would change the report
    # or its evaluation count.
    f, space = sobol_g([0.0, 1.0]), sobol_g_space(2)
    n = 40 * 4096 + 3
    base = estimate_shapley_all(f, space, EstimatorConfig(n=n, seed=11, workers=1))
    out = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=lambda: out.append(estimate_shapley_all(
            f, space, EstimatorConfig(n=n, seed=11, workers=8))), daemon=True)
        runner.start()
        runner.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert worker_problems({1: base, 8: out[0]}) + cost_problems(base) == []


def test_the_first_failing_chunk_in_chunk_order_is_raised():
    # Every chunk fails, chunk 0 last: the batch that starts with chunk 0's
    # first draw sleeps first. The error raised is still chunk 0's.
    space = unit_square(1)
    chunk_of = chunk_of_first_draws(space, 2, 1)

    def func(x):
        if chunk_of.get(x[0, 0]) == 0:
            time.sleep(0.05)
        return np.full(len(x), np.nan)

    with pytest.raises(EvaluationError, match=r"samples \[0, 4096\)"):
        estimate_total_effects(ModelFunction(1, func, vectorized=True), space,
                               EstimatorConfig(n=6 * 4096, seed=2, workers=3))


def test_a_failure_stops_new_chunks_before_it_is_next_to_merge():
    # Chunk 1 fails at once while chunk 0 sleeps. Had the threads stopped
    # only once chunk 1's failure was next to merge, the one that ran chunk
    # 1 would have gone on to chunks 2 and 3 meanwhile.
    space = unit_square(1)
    chunk_of = chunk_of_first_draws(space, 3, 16)
    started = []

    def func(x):
        k = chunk_of.get(x[0, 0])
        if k is not None:
            started.append(k)
        if k == 0:
            time.sleep(0.5)
        if k == 1:
            raise RuntimeError("model failed")
        return x[:, 0] * 1.0

    with pytest.raises(RuntimeError, match="model failed"):
        estimate_shapley_all(ModelFunction(1, func, vectorized=True), space,
                             EstimatorConfig(n=16 * 4096, seed=3, workers=2))
    assert sorted(started) == [0, 1]


def test_a_helper_that_fails_to_start_leaves_no_thread_running(monkeypatch):
    # The second of two helpers fails to start while the first already runs
    # chunks. The run raises the start's error, and the first helper is
    # stopped and joined, not left waiting for chunks no thread will merge.
    started = []

    class FailingThread(threading.Thread):
        def start(self):
            if started:
                raise RuntimeError("can't start new thread")
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", FailingThread)
    with pytest.raises(RuntimeError, match="can't start new thread"):
        estimate_shapley_all(slow_model([]), unit_square(1),
                             EstimatorConfig(n=8 * 4096, seed=2, workers=3))
    assert len(started) == 1 and not started[0].is_alive()


def test_a_merge_that_fails_on_a_helper_is_raised(monkeypatch):
    # Merges run on whichever thread finished the chunk next in order. The
    # helper's chunks are the slow ones, so it finishes chunks that are next
    # and merges them; its first merge fails, and the run raises that error.
    from shapeff import estimators

    merge = estimators._Moments.merge

    def failing_merge(self, *args):
        if threading.current_thread() is not threading.main_thread():
            raise MemoryError("merge failed")
        merge(self, *args)

    def func(x):
        time.sleep(0.002 if threading.current_thread() is threading.main_thread() else 0.02)
        return x[:, 0] * 1.0

    monkeypatch.setattr(estimators._Moments, "merge", failing_merge)
    before = threading.active_count()
    with pytest.raises(MemoryError, match="merge failed"):
        estimate_total_effects(ModelFunction(1, func, vectorized=True), unit_square(1),
                               EstimatorConfig(n=8 * 4096, seed=2, workers=2))
    assert threading.active_count() == before


def fail_chunk_0_while_chunk_1_waits(monkeypatch, evaluate, fail, d=2, seed=5):
    """Run Shapley on two chunks of a d-input model at workers=2, failing
    chunk 0's second batch while chunk 1 waits after its first; return the
    error the run raised and the number of batches each chunk sent.

    Chunks are told apart by their draws from RngStream(seed, k): every
    point 0 a chunk evaluates starts with its x[0, 0] or its y[0, 0]. Chunk
    0's second batch goes to fail(x) once chunk 1's first has returned from
    evaluate(x), and every other batch to evaluate(x). Chunk 1's first
    batch returns only once the thread that ran chunk 0 has left its loop,
    so after the run has recorded the failure: a helper has ended, or the
    calling thread has begun to join its helper.
    """
    space = unit_square(d)
    chunk_of = chunk_of_first_draws(space, seed, 2, draws=2)
    sent, thread_of, caller = {0: 0, 1: 0}, {}, []
    in_flight, failing, joining = threading.Event(), threading.Event(), threading.Event()
    join = threading.Thread.join

    def joined(thread, timeout=None):
        if threading.current_thread() is thread_of.get(0):
            joining.set()
        join(thread, timeout)

    def func(x):
        k = chunk_of[x[0, 0]]
        sent[k] += 1
        thread_of[k] = threading.current_thread()
        if (k, sent[k]) == (0, 2):
            assert in_flight.wait(30)
            failing.set()
            return fail(x)
        values = evaluate(x)
        if (k, sent[k]) == (1, 1):
            in_flight.set()
            assert failing.wait(30)
            if thread_of[0] is caller[0]:
                assert joining.wait(30)
            else:
                join(thread_of[0], 30)
        return values

    def call():
        caller.append(threading.current_thread())
        try:
            estimate_shapley_all(ModelFunction(d, func, vectorized=True), space,
                                 EstimatorConfig(n=2 * 4096, seed=seed, workers=2))
        except BaseException as exc:
            return exc

    monkeypatch.setattr(threading.Thread, "join", joined)
    return run_with_timeout(call), sent


class Halt(BaseException):
    """Not an Exception, as KeyboardInterrupt and SystemExit are not."""


@pytest.mark.parametrize("error, message", [
    (EvaluationError, "evaluation failed in samples [0, 4096): model failed"),
    (Halt, "model failed")], ids=["exception", "base-exception"])
def test_no_chunk_after_a_failed_one_sends_another_batch(monkeypatch, error, message):
    # Chunk 1 has sent 1 of its 3 batches when chunk 0 fails, and sends no
    # other. The run raises chunk 0's error, a Halt as it is.
    def fail(x):
        raise error("model failed")

    raised, sent = fail_chunk_0_while_chunk_1_waits(monkeypatch, lambda x: x[:, 0] * 1.0, fail)
    assert sent == {0: 2, 1: 1}
    assert type(raised) is error and str(raised) == message


# Appends its pid to the file its argument names, then echoes the first value
# of each line, and exits on its 8193rd.
EXIT_ON_8193 = ("import os, sys\n"
                "with open(sys.argv[1], 'a') as pids:\n"
                "    pids.write(f'{os.getpid()}\\n')\n"
                "for count, line in enumerate(sys.stdin, 1):\n"
                "    if count == 8193:\n"
                "        sys.exit(5)\n"
                "    print(line.split()[0], flush=True)\n")


def test_an_external_child_that_exits_on_a_chunk_starts_none_for_the_next(monkeypatch, tmp_path):
    # The child answers both chunks' first batches, 8192 lines, and exits on
    # chunk 0's second. Chunk 1 then sends no batch, so no second child
    # starts.
    pids = tmp_path / "pids"
    with ExternalModel([sys.executable, "-c", EXIT_ON_8193, str(pids)], dim=2) as ext:
        error, sent = fail_chunk_0_while_chunk_1_waits(monkeypatch, ext.evaluate_batch,
                                                       ext.evaluate_batch)
    assert len(pids.read_text().split()) == 1
    assert sent == {0: 2, 1: 1}
    assert type(error) is EvaluationError
    assert str(error).startswith("evaluation failed in samples [0, 4096): external model "
                                 "produced no reply for line 8193")


# Runs one estimator twice on Sobol' g (d=10, N=2^16) in a new interpreter and
# prints the minor page faults of the second run.
FAULT_PROBE = ("import resource, sys, shapeff\n"
               "estimate = getattr(shapeff, sys.argv[1])\n"
               "f, space = shapeff.sobol_g([float(j) for j in range(10)]), shapeff.sobol_g_space(10)\n"
               "cfg = shapeff.EstimatorConfig(n=16 * 4096, seed=1)\n"
               "estimate(f, space, cfg)\n"
               "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
               "estimate(f, space, cfg)\n"
               "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")


def test_winding_reuses_its_chunk_memory_like_shapley():
    # A chunk's draws are freed when it ends. Had they lain above the
    # thread's workspace on the heap, glibc would give their pages back and
    # fault them in again on every chunk (about 150 faults per chunk here).
    pytest.importorskip("resource")
    faults = {}
    for name in ("estimate_shapley_all", "estimate_shapley_winding"):
        result = run_python("-c", FAULT_PROBE, name)
        assert result.returncode == 0, result.stderr
        faults[name] = int(result.stdout)
    assert faults["estimate_shapley_winding"] <= 2 * faults["estimate_shapley_all"], faults


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind", list(KIND_TABLE))
def test_models_are_passed_column_major_batches(kind, workers):
    layouts = []

    def f(X):
        layouts.append((X.shape, X.flags.f_contiguous))
        return np.sin(X).sum(axis=1)

    model = ModelFunction(3, f, vectorized=True)
    # The last chunk holds one sample at N=4097 and four at N=4100.
    for n in (4097, 4100):
        run_kind(kind, model, unit_square(3), EstimatorConfig(n=n, seed=8, workers=workers))
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
    with pytest.raises(EvaluationError, match=r"^evaluation failed in samples \[4096, 4100\): "
                       r"bad returned a non-finite value inf at row 1 of the batch: x = \["):
        estimate_shapley_all(f, unit_square(2), EstimatorConfig(n=4100, seed=0))


def non_finite_model(value: float, vectorized: bool = True) -> ModelFunction:
    """x1 + x2 on [0, 1]^2, except that it returns `value` wherever x1 > 0.5."""
    if not vectorized:
        return ModelFunction(2, lambda x: value if x[0] > 0.5 else x[0] + x[1], name="bad")

    def f(x):
        out = x[:, 0] + x[:, 1]
        out[x[:, 0] > 0.5] = value
        return out

    return ModelFunction(2, f, name="bad", vectorized=True)


# Every public path that calls a model: name -> (call on a model, the prefix
# its error carries).
MODEL_CALLERS = {
    **{name: (lambda f, kind=kind, workers=workers: run_kind(
        kind, f, unit_square(2), EstimatorConfig(n=2 * 4096 + 7, seed=0, workers=workers)),
        r"evaluation failed in samples \[0, 4096\): ")
       for name, kind, workers in [
           ("shapley", "shapley", 1), ("shapley-w2", "shapley", 2), ("main", "main", 1),
           ("main-w2", "main", 2), ("total", "total", 1), ("total-w2", "total", 2),
           ("winding", "winding", 1)]},
    "anova_oracle": (lambda f: anova_oracle(f, unit_square(2), 4), ""),
    "call": (lambda f: f([0.75, 0.25]), ""),
}


@pytest.mark.parametrize("vectorized", [True, False], ids=["vectorized", "per-point"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("caller", list(MODEL_CALLERS))
def test_every_path_that_calls_a_model_rejects_a_non_finite_value(caller, value, vectorized):
    call, prefix = MODEL_CALLERS[caller]
    f = non_finite_model(value, vectorized)
    with pytest.raises(EvaluationError, match=(
            rf"^{prefix}bad returned a non-finite value {value} at row \d+ of the batch: "
            r"x = \[0\.[5-9]\d*, ")):
        call(f)
    # Every value was counted, including the batch that failed.
    assert f.eval_count > 0


NON_FINITE_CHILD = ("import sys\n"
                    "for line in sys.stdin:\n"
                    "    print(sys.argv[1], flush=True)\n")


@pytest.mark.parametrize("reply", ["nan", "inf"])
def test_external_model_replying_a_non_finite_value_raises(reply):
    with ExternalModel([sys.executable, "-c", NON_FINITE_CHILD, reply], dim=2) as f:
        with pytest.raises(EvaluationError, match=(
                rf"^evaluation failed in samples \[0, 64\): external returned a non-finite "
                rf"value {reply} at row 0 of the batch")):
            estimate_shapley_all(f, unit_square(2), EstimatorConfig(n=64, seed=0))
        # The child answered every line, so it still serves the next batch.
        with pytest.raises(EvaluationError, match="non-finite"):
            f([0.5, 0.5])
        assert f.eval_count == 65


def test_evaluation_error_carries_sample_range():
    f = plate_buckling()
    space = InputSpace([Uniform(-1.0, 1.0)] * 6)
    with pytest.raises(EvaluationError) as err:
        estimate_shapley_all(f, space, EstimatorConfig(n=64, seed=0))
    assert "samples [" in str(err.value)
