"""Tests for marginal distributions, sampling, and RNG streams."""

import itertools
import math

import numpy as np
import pytest
from scipy.stats import chi2

from shapeff import (InputSpace, LogNormal, Normal, ParameterError, RngStream,
                     Uniform, convergence_study, ishigami, ishigami_space)
from shapeff.inputs import permutation_rows


def test_uniform_quantile_is_identity_on_unit_interval():
    u = Uniform(0.0, 1.0)
    assert u.quantile(0.5) == 0.5
    assert u.quantile(0.25) == 0.25


def test_uniform_rejects_empty_interval():
    with pytest.raises(ParameterError):
        Uniform(1.0, 1.0)
    with pytest.raises(ParameterError):
        Uniform(2.0, 1.0)
    with pytest.raises(ParameterError):
        Uniform(0.0, math.inf)


def test_normal_median_is_mean():
    n = Normal(0.0, 1.0)
    assert n.quantile(0.5) == pytest.approx(0.0, abs=1e-15)
    assert Normal(3.0, 2.0).quantile(0.5) == pytest.approx(3.0, abs=1e-14)


def test_normal_from_cv_scales_by_abs_mean():
    n = Normal.from_cv(-10.0, 0.1)
    assert n.sd == pytest.approx(1.0)
    with pytest.raises(ParameterError):
        Normal.from_cv(1.0, -0.5)


def test_normal_from_cv_rejects_zero_mean():
    # A CV is undefined at mean 0: sd = |mean| * cv would make the input a constant.
    with pytest.raises(ParameterError, match="non-zero mean"):
        Normal.from_cv(0.0, 0.05)
    assert Normal(0.0, 0.05).sd == 0.05


def test_lognormal_moment_matching_parameters():
    ln = LogNormal(0.525, 0.044)
    assert ln.sigma_ln == pytest.approx(0.043978726303345776, rel=1e-12)
    assert ln.mu_ln == pytest.approx(-0.6453240805741456, rel=1e-12)


def test_lognormal_median_below_mean():
    ln = LogNormal(1.0, 0.2)
    median = ln.quantile(0.5)
    assert median == pytest.approx(math.exp(ln.mu_ln), rel=1e-14)
    assert median < 1.0


def test_lognormal_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        LogNormal(-1.0, 0.1)
    with pytest.raises(ParameterError):
        LogNormal(1.0, 0.0)


def test_quantile_rejects_unit_boundary():
    for dist in (Uniform(0, 1), Normal(0, 1), LogNormal(1, 0.1)):
        for u in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ParameterError):
                dist.quantile(u)


def test_sample_matrix_stays_in_support():
    space = InputSpace([Uniform(0, 1), Uniform(0, 1)])
    x = space.sample(3, RngStream(0).generator())
    assert x.shape == (3, 2)
    assert np.all((x >= 0) & (x < 1))

    ish = InputSpace([Uniform(-math.pi, math.pi)] * 3)
    x = ish.sample(1000, RngStream(1).generator())
    assert np.all((x >= -math.pi) & (x < math.pi))

    ln_space = InputSpace([LogNormal(0.5, 0.3)])
    x = ln_space.sample(1000, RngStream(2).generator())
    assert np.all(x > 0)


def test_lognormal_sample_moments_match_declared():
    space = InputSpace([LogNormal(0.525, 0.044)])
    x = space.sample(10**6, RngStream(99).generator())[:, 0]
    se_mean = x.std(ddof=1) / 1000.0
    assert abs(x.mean() - 0.525) < 3 * se_mean
    assert x.std(ddof=1) / x.mean() == pytest.approx(0.044, rel=0.01)


def test_streams_reproduce_and_differ():
    space = InputSpace([Uniform(0, 1), Normal(0, 1)])
    a = space.sample(100, RngStream(42, stream=3).generator())
    b = space.sample(100, RngStream(42, stream=3).generator())
    c = space.sample(100, RngStream(42, stream=4).generator())
    d = space.sample(100, RngStream(43, stream=3).generator())
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_input_space_validation():
    with pytest.raises(ParameterError):
        InputSpace([])
    space = InputSpace([Uniform(0, 1)])
    with pytest.raises(ParameterError):
        space.sample(0, RngStream(0).generator())


def test_stream_id_range_checked():
    with pytest.raises(ParameterError):
        RngStream(0, stream=-1)
    with pytest.raises(ParameterError):
        RngStream(0, stream=1 << 32)


@pytest.mark.parametrize("call", [
    lambda: RngStream(seed=1.5),
    lambda: RngStream(seed=True),
    lambda: RngStream(seed=np.float64(2.0)),
    lambda: RngStream(0, stream=2.0),
    lambda: RngStream(0, stream=np.True_),
    lambda: InputSpace([Uniform(0, 1)]).sample(3.0, RngStream(0).generator()),
    lambda: InputSpace([Uniform(0, 1)]).sample(True, RngStream(0).generator()),
    lambda: convergence_study(ishigami(), ishigami_space(), "shapley", [16, 32], 2.0, 0),
    lambda: convergence_study(ishigami(), ishigami_space(), "shapley", [16.5, 32], 2, 0),
], ids=["seed-float", "seed-bool", "seed-numpy-float", "stream-float", "stream-numpy-bool",
        "sample-size-float", "sample-size-bool", "trials-float", "study-size-float"])
def test_counts_and_seeds_must_be_integers(call):
    with pytest.raises(ParameterError, match="must be an integer"):
        call()


def test_numpy_integers_pass_as_int():
    rng = RngStream(np.int64(5), stream=np.uint32(3))
    assert (rng.seed, rng.stream) == (5, 3)
    assert type(rng.seed) is int and type(rng.stream) is int
    space = InputSpace([Uniform(0, 1), Normal(0, 1)])
    assert np.array_equal(space.sample(np.int64(3), rng.generator()),
                          space.sample(3, RngStream(5, stream=3).generator()))


def _integer_grid_sample(space, n, gen):
    """The sampling algorithm as first published: integer draws k mapped to
    (k + 0.5) / 2^53, then each column through its marginal's quantile."""
    k = gen.integers(0, 2 ** 53, size=(n, space.d))
    u = (k.astype(np.float64) + 0.5) / 2 ** 53
    return np.column_stack([m.quantile(u[:, j]) for j, m in enumerate(space.marginals)])


@pytest.mark.parametrize("space", [
    InputSpace([Uniform(0.0, 1.0)] * 3),
    InputSpace([Uniform(-math.pi, math.pi), Normal(2.0, 0.5), LogNormal(0.525, 0.044)]),
], ids=["uniform", "mixed"])
@pytest.mark.parametrize("seed, stream", [(0, 0), (7, 3), (2 ** 63 + 5, 11)])
def test_sample_is_bitwise_the_integer_grid(space, seed, stream):
    # gen.random consumes the stream as gen.integers(0, 2^53) does, and adding
    # 2^-54 rounds as (k + 0.5) / 2^53 does, upper half of (0, 1) included.
    n = 100_000
    x = space.sample(n, RngStream(seed, stream=stream).generator())
    ref = _integer_grid_sample(space, n, RngStream(seed, stream=stream).generator())
    assert np.array_equal(x.view(np.int64), ref.view(np.int64))


@pytest.mark.parametrize("space", [
    InputSpace([Uniform(0.0, 1.0)] * 3),
    InputSpace([Normal(2.0, 0.5)] * 3),
    InputSpace([Uniform(-math.pi, math.pi), Normal(2.0, 0.5), LogNormal(0.525, 0.044)]),
], ids=["uniform", "normal", "mixed"])
def test_sample_is_column_major(space):
    x = space.sample(4097, RngStream(3).generator())
    assert x.shape == (4097, 3)
    assert x.flags.f_contiguous


class _StubGenerator:
    """Returns fixed values where numpy's Generator.random returns draws."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)

    def random(self, size):
        return self.values.reshape(size).copy()


def test_top_of_the_grid_is_drawn_just_below_one():
    k = np.array([0, 1, 2 ** 52 - 1, 2 ** 52, 2 ** 52 + 1, 2 ** 53 - 2, 2 ** 53 - 1, 2 ** 53 - 1],
                 dtype=np.uint64)
    # The grid point of the largest k rounds to exactly 1.0.
    assert (float(2 ** 53 - 1) + 0.5) / 2 ** 53 == 1.0
    stub = _StubGenerator(k.astype(np.float64) / 2 ** 53)   # what gen.random gives for k
    u = InputSpace([Uniform(0.0, 1.0)] * 2).sample(4, stub)
    expected = (k.astype(np.float64) + 0.5) / 2 ** 53
    expected[k == 2 ** 53 - 1] = 1.0 - 2.0 ** -53
    assert u.ravel().tolist() == expected.tolist()
    assert u.max() < 1.0
    x = InputSpace([Normal(0.0, 1.0), LogNormal(1.0, 0.5)]).sample(4, stub)
    assert np.isfinite(x).all()


@pytest.mark.parametrize("bad", [-0.25, 1.5, math.nan])
def test_draws_outside_the_unit_interval_are_rejected(bad):
    stub = _StubGenerator([0.5, 0.25, bad, 0.75])
    with pytest.raises(ParameterError, match=r"strictly in \(0, 1\)"):
        InputSpace([Uniform(0.0, 1.0)] * 2).sample(2, stub)


def test_permutation_rows_d1_is_identity():
    for seed in range(5):
        assert permutation_rows(RngStream(seed).generator(), 3, 1).tolist() == [[0]] * 3


def test_permutations_are_bijections():
    gen = RngStream(5).generator()
    rows = permutation_rows(gen, 500, 6)
    expected = np.arange(6)
    for row in rows:
        assert np.array_equal(np.sort(row), expected)


def test_permutation_uniformity_chi_square():
    gen = RngStream(7).generator()
    rows = permutation_rows(gen, 60000, 3)
    keys = rows[:, 0] * 9 + rows[:, 1] * 3 + rows[:, 2]
    index = {p[0] * 9 + p[1] * 3 + p[2]: i
             for i, p in enumerate(itertools.permutations(range(3)))}
    counts = np.bincount([index[k] for k in keys], minlength=6)
    stat = ((counts - 10000.0) ** 2 / 10000.0).sum()
    assert stat < chi2.ppf(1 - 1e-3, df=5)


def test_permutation_positional_marginals_uniform():
    rows = permutation_rows(RngStream(8).generator(), 40000, 4)
    for pos in range(4):
        for val in range(4):
            freq = np.mean(rows[:, pos] == val)
            assert abs(freq - 0.25) < 0.01
