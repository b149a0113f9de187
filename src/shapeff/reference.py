"""Exact sensitivity indices and a brute-force ANOVA oracle.

Closed forms exist for the Ishigami and Sobol' g benchmarks; the Shapley
attribution follows from the subset variances via phi_j = sum over subsets u
containing j of sigma_u^2 / |u|. For any other model with a small input
dimension, :func:`anova_oracle` recovers the full functional ANOVA
decomposition by tensor-grid quadrature, giving an independent reference the
Monte Carlo estimators can be checked against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import CapacityError, ParameterError
from .inputs import InputSpace, Uniform
from .models import ModelFunction, _check_ishigami, _sobol_g_weights

# Subset enumeration is 2^d work and sigma_u^2 maps hold 2^d - 1 entries.
_MAX_ENUM_D = 25
_MAX_MAP_D = 20
_ENUM_BLOCK = 1 << 16


@dataclass(frozen=True)
class SensitivityIndices:
    """Exact (or estimated) main, total, and Shapley effects plus sigma^2.

    Invariants for exact constructions: main[j] <= shapley[j] <= total[j] and
    sum(shapley) == sigma2 up to accumulation rounding.
    """

    d: int
    main: tuple[float, ...]
    total: tuple[float, ...]
    shapley: tuple[float, ...]
    sigma2: float
    mu: float | None = None

    def __post_init__(self):
        if not (len(self.main) == len(self.total) == len(self.shapley) == self.d):
            raise ParameterError("index vectors must all have length d")


@dataclass
class AnovaDecomposition:
    """Variance decomposition: mu plus one sigma_u^2 per non-empty subset.

    Subsets are frozensets of 0-based variable indices. sigma2 is the sum of
    all subset variances.
    """

    d: int
    mu: float
    subset_variances: Mapping[frozenset, float] = field(default_factory=dict)

    def __post_init__(self):
        norm = {}
        for key, value in dict(self.subset_variances).items():
            u = frozenset(int(j) for j in key)
            if not u:
                raise ParameterError("the empty subset carries mu, not a variance")
            if not all(0 <= j < self.d for j in u):
                raise ParameterError(f"subset {sorted(u)} out of range for d={self.d}")
            if value < 0:
                raise ParameterError(f"negative subset variance for {sorted(u)}: {value}")
            norm[u] = float(value)
        self.subset_variances = norm

    @property
    def sigma2(self) -> float:
        return math.fsum(self.subset_variances.values())


def shapley_from_anova(anova: AnovaDecomposition) -> np.ndarray:
    """Shapley effects from subset variances: each sigma_u^2 splits |u| ways."""
    parts: list[list[float]] = [[] for _ in range(anova.d)]
    for u, var in anova.subset_variances.items():
        share = var / len(u)
        for j in u:
            parts[j].append(share)
    return np.array([math.fsum(p) for p in parts])


def main_total_from_anova(anova: AnovaDecomposition) -> tuple[np.ndarray, np.ndarray]:
    """Main effects (singleton variances) and totals (all subsets touching j)."""
    main = np.zeros(anova.d)
    total_parts: list[list[float]] = [[] for _ in range(anova.d)]
    for u, var in anova.subset_variances.items():
        if len(u) == 1:
            (j,) = u
            main[j] = var
        for j in u:
            total_parts[j].append(var)
    total = np.array([math.fsum(p) for p in total_parts])
    return main, total


def ishigami_exact(a: float = 7.0, b: float = 0.1) -> SensitivityIndices:
    """Closed-form indices for the Ishigami function on Uniform(-pi, pi)^3.

    The decomposition has three terms: main effects of x1 and x2 and a single
    x1-x3 interaction, so x3's Shapley effect is half its total effect.
    """
    a, b = _check_ishigami(a, b)
    pi4 = math.pi ** 4
    v1 = 0.5 * (1.0 + b * pi4 / 5.0) ** 2
    v2 = a * a / 8.0
    v13 = 8.0 * pi4 * pi4 * b * b / 225.0
    return SensitivityIndices(
        d=3,
        main=(v1, v2, 0.0),
        total=(v1 + v13, v2, v13),
        shapley=(v1 + 0.5 * v13, v2, 0.5 * v13),
        sigma2=math.fsum((v1, v2, v13)),
        mu=0.5 * a,
    )


def ishigami_anova(a: float = 7.0, b: float = 0.1) -> AnovaDecomposition:
    """The Ishigami subset variances: {1}, {2}, and {1,3}."""
    idx = ishigami_exact(a, b)
    return AnovaDecomposition(
        d=3,
        mu=idx.mu,
        subset_variances={
            frozenset({0}): idx.main[0],
            frozenset({1}): idx.main[1],
            frozenset({0, 2}): idx.total[2],
        },
    )


def _sobol_g_c(a: Sequence[float]) -> np.ndarray:
    return 1.0 / (3.0 * (1.0 + _sobol_g_weights(a)) ** 2)


def sobol_g_exact(a: Sequence[float]) -> SensitivityIndices:
    """Closed-form indices for the Sobol' g function on Uniform(0, 1)^d.

    With c_j = 1/(3(1+a_j)^2), every subset variance is the product of its
    members' c_j. Main and total effects and sigma^2 have product formulas;
    the Shapley effects need the full subset sum, evaluated here by exact
    bitmask enumeration in vectorized blocks.
    """
    c = _sobol_g_c(a)
    d = c.size
    if d > _MAX_ENUM_D:
        raise CapacityError(
            f"sobol_g_exact enumerates 2^d subsets; d={d} exceeds the cap {_MAX_ENUM_D}")

    log1p_c = np.log1p(c)
    sigma2 = math.expm1(math.fsum(log1p_c))
    main = c.copy()
    # total_j = c_j * prod_{l != j} (1 + c_l), via the log-domain leave-one-out.
    total = c * np.exp(math.fsum(log1p_c) - log1p_c)

    # phi_j = sum over masks containing j of prod(c[mask]) / popcount(mask).
    parts: list[list[float]] = [[] for _ in range(d)]
    for lo in range(1, 1 << d, _ENUM_BLOCK):
        hi = min(lo + _ENUM_BLOCK, 1 << d)
        masks = np.arange(lo, hi, dtype=np.int64)
        prod = np.ones(masks.size)
        pop = np.zeros(masks.size, dtype=np.int64)
        member = []
        for j in range(d):
            has = ((masks >> j) & 1).astype(bool)
            prod = prod * np.where(has, c[j], 1.0)
            pop += has
            member.append(has)
        weight = prod / pop
        for j in range(d):
            parts[j].append(float(np.sum(weight[member[j]])))
    shapley = np.array([math.fsum(p) for p in parts])

    return SensitivityIndices(
        d=d,
        main=tuple(main.tolist()),
        total=tuple(total.tolist()),
        shapley=tuple(shapley.tolist()),
        sigma2=sigma2,
        mu=1.0,
    )


def sobol_g_anova(a: Sequence[float]) -> AnovaDecomposition:
    """Closed-form subset variances of the Sobol' g function as a decomposition."""
    c = _sobol_g_c(a)
    d = c.size
    if d > _MAX_MAP_D:
        raise CapacityError(
            f"sobol_g_anova materializes 2^d - 1 subsets; d={d} exceeds the cap {_MAX_MAP_D}")
    variances = {}
    for r in range(1, d + 1):
        for combo in itertools.combinations(range(d), r):
            variances[frozenset(combo)] = float(np.prod(c[list(combo)]))
    return AnovaDecomposition(d=d, mu=1.0, subset_variances=variances)


def indices_from_anova(anova: AnovaDecomposition) -> SensitivityIndices:
    """Assemble a full SensitivityIndices record from a decomposition."""
    main, total = main_total_from_anova(anova)
    shapley = shapley_from_anova(anova)
    return SensitivityIndices(
        d=anova.d,
        main=tuple(main.tolist()),
        total=tuple(total.tolist()),
        shapley=tuple(shapley.tolist()),
        sigma2=anova.sigma2,
        mu=anova.mu,
    )


def _axis_rule(marginal, nodes: int, panels: int, bounds) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes and probability weights for one marginal.

    Bounded marginals integrate over their support; unbounded ones need
    explicit truncation bounds. The rule is composite Gauss-Legendre with
    `panels` equal panels of `nodes` points, and the weights include the
    marginal density, renormalized to sum to one.
    """
    if bounds is not None:
        lo, hi = float(bounds[0]), float(bounds[1])
        if not lo < hi:
            raise ParameterError(f"truncation bounds must satisfy lo < hi, got ({lo}, {hi})")
    elif isinstance(marginal, Uniform):
        lo, hi = marginal.support
    else:
        raise CapacityError(
            f"{type(marginal).__name__} has unbounded support; "
            "pass truncation bounds to quadrature it")
    # Imported here: only the ANOVA oracle needs numpy.polynomial.
    from numpy.polynomial.legendre import leggauss
    t, w = leggauss(nodes)
    edges = np.linspace(lo, hi, panels + 1)
    xs, ws = [], []
    for left, right in zip(edges[:-1], edges[1:]):
        half = 0.5 * (right - left)
        xs.append(left + half * (t + 1.0))
        ws.append(half * w)
    x = np.concatenate(xs)
    weight = np.concatenate(ws) * marginal.pdf(x)
    total = weight.sum()
    if total <= 0:
        raise ParameterError("quadrature weights vanish; bounds miss the support")
    return x, weight / total


def _integrate_out(values: np.ndarray, axes_to_drop, weights: list[np.ndarray]) -> np.ndarray:
    out = values
    for axis in sorted(axes_to_drop, reverse=True):
        out = np.tensordot(out, weights[axis], axes=([axis], [0]))
    return out


def _expand(values: np.ndarray, from_axes: tuple[int, ...], to_axes: tuple[int, ...]) -> np.ndarray:
    out = values
    for pos, axis in enumerate(to_axes):
        if axis not in from_axes:
            out = np.expand_dims(out, pos)
    return out


def _anova_components(f: ModelFunction, space: InputSpace, nodes: int,
                      panels: int, truncation) -> tuple[dict, list[np.ndarray], float]:
    """All non-empty ANOVA components f_u on the tensor grid, plus weights and mu."""
    d = space.d
    if d > 4:
        raise CapacityError(f"tensor-grid oracle is capped at d=4, got d={d}")
    if nodes < 1 or panels < 1:
        raise ParameterError("nodes and panels must both be >= 1")
    if truncation is not None and len(truncation) != d:
        raise ParameterError("truncation must give one (lo, hi) or None per axis")

    axes_nodes, axes_weights = [], []
    for j, marginal in enumerate(space.marginals):
        bounds = truncation[j] if truncation is not None else None
        x, w = _axis_rule(marginal, nodes, panels, bounds)
        axes_nodes.append(x)
        axes_weights.append(w)

    grids = np.meshgrid(*axes_nodes, indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=1)
    values = f.evaluate_batch(points).reshape(grids[0].shape)

    mu = float(_integrate_out(values, range(d), axes_weights))
    components: dict[tuple[int, ...], np.ndarray] = {}
    subsets = sorted(
        (tuple(u) for r in range(1, d + 1) for u in itertools.combinations(range(d), r)),
        key=len)
    for u in subsets:
        proj = _integrate_out(values, [j for j in range(d) if j not in u], axes_weights)
        part = proj - mu
        for v, f_v in components.items():
            if set(v) < set(u):
                part = part - _expand(f_v, v, u)
        components[u] = part
    return components, axes_weights, mu


def anova_oracle(f: ModelFunction, space: InputSpace, nodes: int, *,
                 panels: int = 1, truncation=None) -> AnovaDecomposition:
    """Brute-force ANOVA decomposition by tensor-grid quadrature (d <= 4).

    Recursively peels each component f_u off the conditional expectation of f
    on the u-grid and integrates its square. `panels` selects a composite rule
    per axis, which matters for integrands with kinks: aligning a panel edge
    with the kink restores spectral accuracy. `truncation` supplies (lo, hi)
    bounds per axis (None entries allowed) for unbounded marginals.
    """
    components, axes_weights, mu = _anova_components(f, space, nodes, panels, truncation)
    variances = {}
    for u, f_u in components.items():
        w = axes_weights[u[0]]
        for axis in u[1:]:
            w = np.multiply.outer(w, axes_weights[axis])
        variances[frozenset(u)] = float(np.sum(f_u * f_u * w))
    return AnovaDecomposition(d=space.d, mu=mu, subset_variances=variances)


@dataclass(frozen=True)
class OrthogonalityReport:
    """Worst-case violations of the two ANOVA structure properties.

    max_zero_mean: largest |integral of f_u over any single own coordinate|.
    max_cross_product: largest |<f_u, f_v>| over distinct component pairs.
    """

    d: int
    mu: float
    max_zero_mean: float
    max_cross_product: float


def orthogonality_check(f: ModelFunction, space: InputSpace, nodes: int, *,
                        panels: int = 1, truncation=None) -> OrthogonalityReport:
    """Verify zero conditional means and pairwise orthogonality of components."""
    components, axes_weights, mu = _anova_components(f, space, nodes, panels, truncation)
    d = space.d

    max_zero_mean = 0.0
    for u, f_u in components.items():
        for pos, axis in enumerate(u):
            reduced = np.tensordot(f_u, axes_weights[axis], axes=([pos], [0]))
            max_zero_mean = max(max_zero_mean, float(np.max(np.abs(reduced))))

    max_cross = 0.0
    keys = list(components)
    for i, u in enumerate(keys):
        for v in keys[i + 1:]:
            union = tuple(sorted(set(u) | set(v)))
            prod = _expand(components[u], u, union) * _expand(components[v], v, union)
            w = axes_weights[union[0]]
            for axis in union[1:]:
                w = np.multiply.outer(w, axes_weights[axis])
            max_cross = max(max_cross, abs(float(np.sum(prod * w))))

    return OrthogonalityReport(d=d, mu=mu, max_zero_mean=max_zero_mean,
                               max_cross_product=max_cross)
