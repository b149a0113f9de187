"""Tests for exact indices, the Owen split, and the quadrature ANOVA oracle."""

import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from shapeff import (AnovaDecomposition, CapacityError, InputSpace,
                     ModelFunction, Normal, ParameterError, Uniform,
                     anova_oracle, indices_from_anova, ishigami,
                     ishigami_anova, ishigami_exact, ishigami_space,
                     SensitivityIndices, main_total_from_anova, shapley_from_anova,
                     sobol_g, sobol_g_anova, sobol_g_exact, sobol_g_space)


def test_ishigami_exact_values():
    idx = ishigami_exact(7.0, 0.1)
    assert idx.shapley[0] == pytest.approx(6.032737982306709, rel=1e-14)
    assert idx.shapley[1] == pytest.approx(6.125, rel=1e-14)
    assert idx.shapley[2] == pytest.approx(1.686849958412546, rel=1e-14)
    assert idx.sigma2 == pytest.approx(13.844587940719254, rel=1e-14)
    assert idx.total[2] == pytest.approx(3.373699916825092, rel=1e-14)
    assert idx.main[2] == 0.0
    assert idx.mu == pytest.approx(3.5)


def test_ishigami_interaction_splits_equally():
    for a, b in [(7.0, 0.1), (3.0, 0.5), (1.0, 0.02)]:
        idx = ishigami_exact(a, b)
        assert idx.shapley[2] == pytest.approx(idx.total[2] / 2, rel=1e-14)
        assert idx.shapley[0] - idx.main[0] == pytest.approx(
            (idx.total[0] - idx.main[0]) / 2, rel=1e-14)
        # x2 is purely additive: its Shapley effect equals its main effect.
        assert idx.shapley[1] == idx.main[1]
        assert idx.total[1] == idx.main[1]


def test_exact_identities_hold_to_rounding():
    cases = [ishigami_exact(7.0, 0.1)]
    for d in range(1, 13):
        cases.append(sobol_g_exact([float(j) for j in range(d)]))
    for idx in cases:
        assert math.fsum(idx.shapley) == pytest.approx(idx.sigma2, rel=1e-12)
        for j in range(idx.d):
            assert idx.main[j] <= idx.shapley[j] + 1e-15 * idx.sigma2
            assert idx.shapley[j] <= idx.total[j] + 1e-15 * idx.sigma2
        assert math.fsum(idx.main) <= idx.sigma2 * (1 + 1e-12)
        assert math.fsum(idx.total) >= idx.sigma2 * (1 - 1e-12)


def test_sobol_g_exact_small_cases():
    one = sobol_g_exact([0.0])
    assert one.main[0] == pytest.approx(1 / 3, rel=1e-15)
    assert one.total[0] == pytest.approx(1 / 3, rel=1e-15)
    assert one.shapley[0] == pytest.approx(1 / 3, rel=1e-15)
    assert one.sigma2 == pytest.approx(1 / 3, rel=1e-15)

    two = sobol_g_exact([0.0, 0.0])
    assert two.sigma2 == pytest.approx(7 / 9, rel=1e-14)
    assert two.shapley[0] == pytest.approx(7 / 18, rel=1e-14)
    assert two.shapley[1] == pytest.approx(7 / 18, rel=1e-14)
    assert two.main[0] == pytest.approx(1 / 3, rel=1e-14)
    assert two.total[0] == pytest.approx(4 / 9, rel=1e-14)


def test_sobol_g_exact_d10_sigma2():
    idx = sobol_g_exact([float(j) for j in range(10)])
    assert idx.sigma2 == pytest.approx(0.5945358157323086, rel=1e-12)
    assert idx.main[0] == pytest.approx(1 / 3, rel=1e-14)


@pytest.mark.parametrize("d", [26, 100])
def test_sobol_g_exact_builds_past_the_old_enumeration_cap(d):
    for a in ([0.0] * d, [float(j) for j in range(d)]):
        idx = sobol_g_exact(a)
        assert math.fsum(idx.shapley) == pytest.approx(idx.sigma2, rel=1e-13)
        for j in range(d):
            assert idx.main[j] <= idx.shapley[j] <= idx.total[j]


def test_sobol_g_exact_shapley_is_within_one_ulp_of_exact_arithmetic():
    # The exact Shapley sum over subsets, in rationals, on the same c_j.
    a = [float(j) for j in range(10)]
    idx = sobol_g_exact(a)
    c = [Fraction(idx.main[j]) for j in range(10)]
    for j in range(10):
        others = c[:j] + c[j + 1:]
        phi = c[j] * sum(Fraction(math.prod(u, start=Fraction(1)), k + 1)
                         for k in range(10) for u in itertools.combinations(others, k))
        assert abs(idx.shapley[j] - float(phi)) <= math.ulp(idx.shapley[j]), j


def test_closed_forms_that_overflow_raise_naming_the_field_and_variable():
    # v2 = a^2 / 8 overflows: the first non-finite value is x2's main effect.
    with pytest.raises(ParameterError, match=r"^main of variable 2 must be finite, got inf$"):
        ishigami_exact(a=1e200)
    with pytest.raises(ParameterError, match=r"^main of variable 2 must be finite, got inf$"):
        ishigami_anova(a=1e200)


@pytest.mark.parametrize("field, value, message", [
    ("main", (0.0, math.nan), "main of variable 2 must be finite, got nan"),
    ("total", (math.inf, 1.0), "total of variable 1 must be finite, got inf"),
    ("shapley", (1.0, -math.inf), "shapley of variable 2 must be finite, got -inf"),
    ("sigma2", math.nan, "sigma2 must be finite, got nan")])
def test_sensitivity_indices_reject_values_that_are_not_finite(field, value, message):
    fields = {"main": (0.0, 1.0), "total": (1.0, 1.0), "shapley": (0.5, 1.0), "sigma2": 1.5}
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        SensitivityIndices(d=2, **{**fields, field: value})
    assert SensitivityIndices(d=2, **fields, mu=None).sigma2 == 1.5


@pytest.mark.parametrize("field", ["main", "total", "shapley"])
@pytest.mark.parametrize("length", [1, 3])
def test_sensitivity_indices_reject_vectors_of_the_wrong_length(field, length):
    fields = {"main": (0.0, 1.0), "total": (1.0, 1.0), "shapley": (0.5, 1.0), "sigma2": 1.5}
    with pytest.raises(ParameterError, match="^index vectors must all have length d$"):
        SensitivityIndices(d=2, **{**fields, field: (0.5,) * length})


def test_shapley_from_anova_trivial_splits():
    single = AnovaDecomposition(d=2, mu=0.0, subset_variances={frozenset({0}): 1.0})
    assert shapley_from_anova(single).tolist() == [1.0, 0.0]
    pair = AnovaDecomposition(d=2, mu=0.0, subset_variances={frozenset({0, 1}): 1.0})
    assert shapley_from_anova(pair).tolist() == [0.5, 0.5]


def test_shapley_from_anova_matches_closed_form():
    for d in range(1, 13):
        a = [float(j) for j in range(d)]
        exact = sobol_g_exact(a)
        phi = shapley_from_anova(sobol_g_anova(a))
        assert np.max(np.abs(phi - np.array(exact.shapley))) <= 1e-12 * exact.sigma2
        assert math.fsum(phi.tolist()) == pytest.approx(exact.sigma2, rel=1e-12)
    rng = np.random.default_rng(18)
    for _ in range(40):
        a = rng.uniform(0.0, 20.0, int(rng.integers(1, 13))).tolist()
        phi = shapley_from_anova(sobol_g_anova(a))
        assert np.allclose(sobol_g_exact(a).shapley, phi, rtol=1e-13, atol=0.0), a


def test_main_total_from_anova_matches_closed_form():
    a = [0.0, 1.0, 2.0]
    exact = sobol_g_exact(a)
    main, total = main_total_from_anova(sobol_g_anova(a))
    assert np.allclose(main, exact.main, rtol=1e-13)
    assert np.allclose(total, exact.total, rtol=1e-13)
    idx = indices_from_anova(ishigami_anova())
    ref = ishigami_exact()
    assert np.allclose(idx.shapley, ref.shapley, rtol=1e-13)
    assert idx.sigma2 == pytest.approx(ref.sigma2, rel=1e-13)


def test_anova_decomposition_validation():
    with pytest.raises(ParameterError):
        AnovaDecomposition(d=2, mu=0.0, subset_variances={frozenset(): 1.0})
    with pytest.raises(ParameterError):
        AnovaDecomposition(d=2, mu=0.0, subset_variances={frozenset({5}): 1.0})
    with pytest.raises(ParameterError):
        AnovaDecomposition(d=2, mu=0.0, subset_variances={frozenset({0}): -0.5})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_anova_decomposition_rejects_non_finite_variances(value):
    with pytest.raises(ParameterError, match=r"^subset variance for \[0\] must be finite"):
        AnovaDecomposition(d=1, mu=0.0, subset_variances={frozenset({0}): value})


def test_oracle_single_coordinate_on_unit_square():
    f = ModelFunction(2, lambda x: x[:, 0], name="x1", vectorized=True)
    space = InputSpace([Uniform(0, 1)] * 2)
    anova = anova_oracle(f, space, 64)
    v = anova.subset_variances
    assert v[frozenset({0})] == pytest.approx(1 / 12, abs=1e-8)
    assert abs(v[frozenset({1})]) < 1e-8
    assert abs(v[frozenset({0, 1})]) < 1e-8
    assert anova.mu == pytest.approx(0.5, abs=1e-12)


def test_oracle_pure_interaction():
    f = ModelFunction(2, lambda x: x[:, 0] * x[:, 1], name="x1x2", vectorized=True)
    space = InputSpace([Uniform(-1, 1)] * 2)
    anova = anova_oracle(f, space, 64)
    v = anova.subset_variances
    assert v[frozenset({0, 1})] == pytest.approx(1 / 9, abs=1e-10)
    assert abs(v[frozenset({0})]) < 1e-10
    assert abs(v[frozenset({1})]) < 1e-10


def test_oracle_reproduces_sobol_g_with_aligned_panels():
    # Each g factor is piecewise linear with the kink at 0.5; two panels per
    # axis align the rule with the kink and the quadrature becomes exact.
    a = [0.0, 1.0, 2.0]
    anova = anova_oracle(sobol_g(a), sobol_g_space(3), 64, panels=2)
    closed = sobol_g_anova(a)
    for u, want in closed.subset_variances.items():
        assert anova.subset_variances[u] == pytest.approx(want, abs=1e-12)
    assert anova.mu == pytest.approx(1.0, abs=1e-12)


def test_oracle_error_shrinks_as_nodes_double():
    a = [0.0, 1.0]
    closed = sobol_g_anova(a)
    f = sobol_g(a)
    space = sobol_g_space(2)
    errors = []
    for nodes in (8, 16, 32, 64):
        anova = anova_oracle(f, space, nodes)
        errors.append(max(abs(anova.subset_variances[u] - want)
                          for u, want in closed.subset_variances.items()))
    assert all(later < earlier for earlier, later in zip(errors, errors[1:]))


def test_oracle_matches_ishigami_closed_form():
    anova = anova_oracle(ishigami(), ishigami_space(), 48)
    closed = ishigami_anova()
    for u, want in closed.subset_variances.items():
        assert anova.subset_variances[u] == pytest.approx(want, rel=1e-10, abs=1e-10)
    structural_zero = [u for u in anova.subset_variances if u not in closed.subset_variances]
    for u in structural_zero:
        assert abs(anova.subset_variances[u]) < 1e-10


def test_oracle_requires_truncation_for_unbounded_marginals():
    f = ModelFunction(1, lambda x: x[:, 0], name="x1", vectorized=True)
    space = InputSpace([Normal(0, 1)])
    with pytest.raises(CapacityError):
        anova_oracle(f, space, 32)
    anova = anova_oracle(f, space, 64, truncation=[(-8.0, 8.0)])
    assert anova.subset_variances[frozenset({0})] == pytest.approx(1.0, rel=1e-6)


def test_oracle_rejects_truncation_bounds_that_miss_the_support():
    f = ModelFunction(1, lambda x: x[:, 0], name="x1", vectorized=True)
    with pytest.raises(ParameterError, match=r"^quadrature weights vanish; bounds miss the "):
        anova_oracle(f, InputSpace([Uniform(0, 1)]), 4, truncation=[(2.0, 3.0)])
    assert f.eval_count == 0


def test_sobol_g_anova_caps_the_subsets_it_materializes():
    with pytest.raises(CapacityError, match=r"d=21 exceeds the cap 20$"):
        sobol_g_anova([0.0] * 21)
    assert len(sobol_g_anova([0.0] * 3).subset_variances) == 7


def test_oracle_dimension_cap():
    f = ModelFunction(5, lambda x: x[:, 0], name="x1", vectorized=True)
    space = InputSpace([Uniform(0, 1)] * 5)
    with pytest.raises(CapacityError):
        anova_oracle(f, space, 8)


def test_oracle_is_exact_for_a_bilinear_model_at_two_nodes():
    # Two Gauss-Legendre nodes are exact up to degree 3 per axis, and the
    # squared components are quadratic.
    f = ModelFunction(2, lambda x: x[:, 0] + x[:, 1] + x[:, 0] * x[:, 1], name="bilinear",
                      vectorized=True)
    anova = anova_oracle(f, InputSpace([Uniform(-1, 1)] * 2), 2)
    v = anova.subset_variances
    assert abs(v[frozenset({0})] - 1 / 3) <= 1e-15
    assert abs(v[frozenset({1})] - 1 / 3) <= 1e-15
    assert abs(v[frozenset({0, 1})] - 1 / 9) <= 1e-15
    assert abs(anova.mu) <= 1e-15


def test_oracle_reproduces_sobol_g_at_d4():
    # Two panels split each g factor at its kink into linear pieces, which
    # two nodes per panel integrate exactly, squared or not.
    a = [0.0, 1.0, 2.0, 3.0]
    anova = anova_oracle(sobol_g(a), sobol_g_space(4), 2, panels=2)
    closed = sobol_g_anova(a)
    assert set(anova.subset_variances) == set(closed.subset_variances)
    for u, want in closed.subset_variances.items():
        assert abs(anova.subset_variances[u] - want) <= 1e-15, sorted(u)
    assert abs(anova.mu - 1.0) <= 1e-15


def test_oracle_subset_variances_sum_to_the_grid_variance():
    from numpy.polynomial.legendre import leggauss
    t, w = leggauss(8)
    x = np.pi * t
    w = w / w.sum()
    grid = np.stack([g.ravel() for g in np.meshgrid(x, x, x, indexing="ij")], axis=1)
    weights = np.einsum("i,j,k->ijk", w, w, w).ravel()
    values = ishigami().evaluate_batch(grid)
    mu = math.fsum((weights * values).tolist())
    grid_variance = math.fsum((weights * (values - mu) ** 2).tolist())

    anova = anova_oracle(ishigami(), ishigami_space(), 8)
    assert anova.mu == pytest.approx(mu, rel=1e-13)
    assert anova.sigma2 == pytest.approx(grid_variance, rel=1e-13)


@pytest.mark.parametrize("kwargs", [
    {"nodes": 2.5}, {"nodes": True}, {"nodes": "4"}, {"nodes": 0},
    {"panels": 1.5}, {"panels": False}, {"panels": 0},
    {"truncation": 5}, {"truncation": "ab"}, {"truncation": [None]},
    {"truncation": [None, None, None]},
    {"truncation": [(-math.inf, math.inf), None]}, {"truncation": [(0.0, math.inf), None]},
    {"truncation": [("a", 1), None]}, {"truncation": [5, None]},
    {"truncation": [(0, 1, 2), None]},
    {"truncation": [(1.0, 1.0), None]}, {"truncation": [(2.0, 1.0), None]},
], ids=lambda kw: ",".join(f"{k}={v!r}" for k, v in kw.items()))
def test_oracle_checks_its_arguments_before_evaluating(kwargs):
    f = ModelFunction(2, lambda x: x[:, 0], name="x1", vectorized=True)
    args = {"nodes": 4, **kwargs}
    nodes = args.pop("nodes")
    with pytest.raises(ParameterError, match=r"^(nodes|panels|truncation) "):
        anova_oracle(f, InputSpace([Uniform(0, 1)] * 2), nodes, **args)
    assert f.eval_count == 0


def test_oracle_takes_numpy_integer_counts():
    f = ModelFunction(1, lambda x: x[:, 0], name="x1", vectorized=True)
    anova = anova_oracle(f, InputSpace([Uniform(0, 1)]), np.int64(4), panels=np.int32(2))
    assert anova.subset_variances[frozenset({0})] == pytest.approx(1 / 12, rel=1e-14)
