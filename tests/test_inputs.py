"""Tests for marginal distributions, sampling, and RNG streams."""

import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import chi2, lognorm

from shapeff import (InputSpace, LogNormal, Normal, ParameterError, RngStream,
                     Uniform, convergence_study, ishigami, ishigami_space)
from shapeff.inputs import _Z_REACH, permutation_rows


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


def test_lognormal_pdf_matches_scipy_and_vanishes_off_the_positive_axis():
    ln = LogNormal(0.525, 0.044)
    x = np.array([-1.0, 0.0, 0.4, 0.5, 0.525, 0.6, 0.7])
    expected = lognorm(s=ln.sigma_ln, scale=math.exp(ln.mu_ln)).pdf(x)
    assert ln.pdf(x) == pytest.approx(expected, rel=1e-12, abs=0.0)
    assert ln.pdf(x)[:2].tolist() == [0.0, 0.0]


@pytest.mark.parametrize("make, params", [
    (lambda: Uniform(Fraction(1, 3), 1), (1 / 3, 1.0)),
    (lambda: Normal(Fraction(1, 2), np.int64(2)), (0.5, 2.0)),
    (lambda: LogNormal(Fraction(1, 2), np.float32(0.25)), (0.5, 0.25)),
], ids=["uniform", "normal", "lognormal"])
def test_marginals_store_their_parameters_as_floats(make, params):
    # A Fraction passes the real-number check; the marginal keeps the float
    # that the check returns, so its map and its draws are plain floats.
    marginal = make()
    assert dataclasses.astuple(marginal) == params
    assert all(type(value) is float for value in dataclasses.astuple(marginal))
    x = InputSpace([marginal]).sample(3, RngStream(0).generator())
    assert x.dtype == np.float64 and np.isfinite(x).all()


def test_degenerate_normal_has_no_density():
    with pytest.raises(ParameterError, match="sd=0"):
        Normal(0.0, 0.0).pdf(0.0)


def test_normal_family_quantiles_map_scipys_ndtri():
    u = np.array([2.0 ** -54, 0.025, 0.5, 0.975, 1.0 - 2.0 ** -53])
    normal, lognormal = Normal(2.0, 0.5), LogNormal(0.525, 0.044)
    assert normal.quantile(u).tolist() == (2.0 + 0.5 * ndtri(u)).tolist()
    assert lognormal.quantile(u).tolist() == np.exp(
        lognormal.mu_ln + lognormal.sigma_ln * ndtri(u)).tolist()


def test_normal_reach_is_the_ziggurat_tail_bound():
    # numpy's ziggurat returns a base-strip draw below r, and a tail draw as
    # r + inv_r * -log1p(-U) with U <= 1 - 2^-53 (its constants r and inv_r).
    r, inv_r = 3.6541528853610088, 0.27366123732975828
    assert _Z_REACH == r + inv_r * -math.log1p(-(1.0 - 2.0 ** -53))
    assert 13.7 < _Z_REACH < 13.71


@pytest.mark.parametrize("make", [
    lambda: Uniform(-1e308, 1e308),
    lambda: Normal(0.0, 1e308),
    lambda: Normal(0.0, 2e307),
    lambda: Normal.from_cv(1e300, 1e8),
    lambda: LogNormal(1e307, 10.0),
    lambda: LogNormal(1e300, 10.0),
    lambda: LogNormal(1.0, 1e200),
], ids=["uniform", "normal", "normal-past-the-reach", "normal-cv", "lognormal",
        "lognormal-past-the-reach", "lognormal-nan"])
def test_marginals_whose_draws_overflow_are_rejected(make):
    with pytest.raises(ParameterError, match="draws non-finite values"):
        make()


def test_marginals_at_the_edge_of_the_float_range_draw_finite_values():
    # |z| reaches 13.71, so sd = 1.3e307 stays below the largest float and
    # 2e307 does not; likewise for the lognormal's exp.
    space = InputSpace([Uniform(-8e307, 8e307), Normal(0.0, 1.3e307), LogNormal(1e296, 10.0)])
    x = space.sample(4096, RngStream(0).generator())
    assert np.isfinite(x).all()
    stub = _FixedDraws(uniforms=[[1.0 - 2.0 ** -53, 0.0]],
                       normals=[[-_Z_REACH, _Z_REACH], [_Z_REACH, -_Z_REACH]])
    x = space.sample(2, stub)
    assert np.isfinite(x).all()
    assert x[:, 1].tolist() == [-1.3e307 * _Z_REACH, 1.3e307 * _Z_REACH]


def test_quantile_rejects_unit_boundary():
    for dist in (Uniform(0, 1), Normal(0, 1), LogNormal(1, 0.1)):
        for u in (0.0, 1.0, -0.2, 1.7, math.nan, [0.5, math.nan], [[0.5], [1.0]]):
            with pytest.raises(ParameterError, match=r"strictly in \(0, 1\)"):
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
    with pytest.raises(ParameterError, match="marginal 0 is not a MarginalDistribution: 1"):
        InputSpace([1, 2])
    with pytest.raises(ParameterError, match="marginal 1 is not a MarginalDistribution"):
        InputSpace([Uniform(0, 1), {"kind": "uniform", "lo": 0.0, "hi": 1.0}])
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


@pytest.mark.parametrize("seed", [-1, 2 ** 64, -(2 ** 64)])
def test_seeds_outside_64_bits_are_rejected(seed):
    with pytest.raises(ParameterError, match=rf"^seed must be (>= 0|< 2\^64), got {seed}$"):
        RngStream(seed)


@pytest.mark.parametrize("seed, uniforms", [
    (0, ["0x1.38b4f1e36b684p-2", "0x1.837986ebe1e40p-6", "0x1.3c6fb1f109380p-1"]),
    (2 ** 64 - 1, ["0x1.0479db6b56438p-2", "0x1.e06de5e31351cp-3", "0x1.20cbd84b8090cp-2"]),
], ids=["0", "2^64-1"])
def test_seeds_at_both_ends_of_the_range_draw_as_before(seed, uniforms):
    # Recorded while the generator still reduced every seed modulo 2^64.
    gen = RngStream(seed, stream=7).generator()
    assert [v.hex() for v in gen.random(3).tolist()] == uniforms


def test_numpy_integers_pass_as_int():
    rng = RngStream(np.int64(5), stream=np.uint32(3))
    assert (rng.seed, rng.stream) == (5, 3)
    assert type(rng.seed) is int and type(rng.stream) is int
    space = InputSpace([Uniform(0, 1), Normal(0, 1)])
    assert np.array_equal(space.sample(np.int64(3), rng.generator()),
                          space.sample(3, RngStream(5, stream=3).generator()))


def _integer_grid_sample(space, n, gen):
    """The sampling algorithm spelled out: one column after another, integer
    draws k mapped to k / 2^53 for a uniform column and standard normals for
    the others, each column through its marginal's formula."""
    columns = []
    for m in space.marginals:
        if isinstance(m, Uniform):
            u = gen.integers(0, 2 ** 53, size=n).astype(np.float64) / 2 ** 53
            columns.append(m.lo + u * (m.hi - m.lo))
        elif isinstance(m, Normal):
            columns.append(m.mean + m.sd * gen.standard_normal(n))
        else:
            columns.append(np.exp(m.mu_ln + m.sigma_ln * gen.standard_normal(n)))
    return np.column_stack(columns)


@pytest.mark.parametrize("space", [
    InputSpace([Uniform(0.0, 1.0)] * 3),
    InputSpace([Uniform(-math.pi, math.pi), Normal(2.0, 0.5), LogNormal(0.525, 0.044)]),
], ids=["uniform", "mixed"])
@pytest.mark.parametrize("seed, stream", [(0, 0), (7, 3), (2 ** 63 + 5, 11)])
def test_sample_is_bitwise_the_integer_grid(space, seed, stream):
    # gen.random draws k / 2^53 with k = next_uint64 >> 11, the same k that
    # gen.integers(0, 2^53) draws, and the division is exact.
    n = 100_000
    x = space.sample(n, RngStream(seed, stream=stream).generator())
    ref = _integer_grid_sample(space, n, RngStream(seed, stream=stream).generator())
    assert np.array_equal(x.view(np.int64), ref.view(np.int64))


@pytest.mark.parametrize("space", [
    InputSpace([Uniform(0.0, 1.0), Uniform(-math.pi, math.pi), Uniform(-1.0, 3.0)]),
    InputSpace([Normal(2.0, 0.5), LogNormal(0.525, 0.044), Normal(-1.0, 3.0)]),
    InputSpace([LogNormal(1.0, 0.2), Uniform(-math.pi, math.pi), Normal(2.0, 0.5),
                Uniform(0.0, 1.0)]),
], ids=["uniform", "normal-family", "mixed"])
@pytest.mark.parametrize("n", [1, 4097])
def test_sample_is_bitwise_the_per_column_reference(space, n):
    # Column j is the marginal's map of numpy's own n draws, taken from the
    # stream after those of columns 0..j-1.
    gen = RngStream(11, stream=2).generator()
    ref = np.column_stack([m._map(gen.standard_normal(n) if m._normal else gen.random(n))
                           for m in space.marginals])
    x = space.sample(n, RngStream(11, stream=2).generator())
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


class _FixedDraws(np.random.Generator):
    """A numpy Generator whose random and standard_normal fill `out` with the
    next of the given columns, where the real ones fill it with draws."""

    def __init__(self, uniforms=(), normals=()):
        super().__init__(np.random.PCG64(0))
        self.uniforms = [np.asarray(column, dtype=np.float64) for column in uniforms]
        self.normals = [np.asarray(column, dtype=np.float64) for column in normals]

    def random(self, *, out):
        out[:] = self.uniforms.pop(0)
        return out

    def standard_normal(self, *, out):
        out[:] = self.normals.pop(0)
        return out


def test_top_of_the_grid_is_drawn_just_below_one():
    k = np.array([0, 1, 2 ** 52, 2 ** 53 - 2, 2 ** 53 - 1], dtype=np.uint64)
    u = k.astype(np.float64) / 2 ** 53   # what gen.random gives for k
    # The top grid point is exact, so nothing is clamped: it is 1 - 2^-53.
    assert u[-1] == 1.0 - 2.0 ** -53
    x = InputSpace([Uniform(0.0, 1.0)]).sample(5, _FixedDraws(uniforms=[u]))
    assert x[:, 0].tolist() == u.tolist()
    assert x.min() == 0.0 and x.max() < 1.0


@pytest.mark.parametrize("bad", [-0.25, 1.5, math.nan])
def test_draws_outside_the_unit_interval_are_rejected(bad):
    stub = _FixedDraws(uniforms=[[0.5, 0.25], [bad, 0.75]])
    with pytest.raises(ParameterError, match=r"uniform draws must lie in \[0, 1\)"):
        InputSpace([Uniform(0.0, 1.0)] * 2).sample(2, stub)


def test_sample_needs_a_numpy_generator():
    class Duck:
        def random(self, *, out):
            out[:] = 0.5
            return out

    space = InputSpace([Uniform(0.0, 1.0)])
    for gen in (Duck(), np.random.RandomState(0), None):
        with pytest.raises(ParameterError, match="gen must be a numpy.random.Generator"):
            space.sample(2, gen)


def test_permutation_rows_d1_is_identity():
    for seed in range(5):
        assert permutation_rows(RngStream(seed).generator(), 3, 1).tolist() == [[0]] * 3


def test_permutation_rows_are_intp():
    # The walks index with perms[:, step] * count: in int16, [8, 9] * 4096 is
    # [-32768, -28672], and numpy raises OverflowError for uint8. Narrower
    # rows are also slower to permute.
    rows = permutation_rows(RngStream(9).generator(), 4096, 10)
    assert rows.dtype == np.intp


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
