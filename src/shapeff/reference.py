"""Exact sensitivity indices and a brute-force ANOVA oracle.

Closed forms exist for the Ishigami and Sobol' g benchmarks; the Shapley
attribution follows from the subset variances via phi_j = sum over subsets u
containing j of sigma_u^2 / |u|. For Sobol' g, whose sigma_u^2 are products
of c_j, that sum is phi_j = c_j * int_0^1 prod_{l != j} (1 + c_l t) dt. For
any other model with a small input dimension, :func:`anova_oracle` recovers
the full functional ANOVA decomposition by tensor-grid quadrature, giving an
independent reference the Monte Carlo estimators can be checked against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import CapacityError, ParameterError, require_finite, require_integer
from .inputs import InputSpace, Uniform
from .models import ModelFunction, _check_ishigami, _sobol_g_weights

# A map of subset variances holds 2^d - 1 entries.
_MAX_MAP_D = 20


@dataclass(frozen=True)
class SensitivityIndices:
    """Exact (or estimated) main, total, and Shapley effects plus sigma^2.

    Invariants for exact constructions: main[j] <= shapley[j] <= total[j] and
    sum(shapley) == sigma2 up to accumulation rounding. A main, total or
    Shapley value or sigma2 that is not finite, such as the overflow of a
    closed form at huge parameters, raises ParameterError.
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
        for name in ("main", "total", "shapley"):
            for j, value in enumerate(getattr(self, name)):
                require_finite(f"{name} of variable {j + 1}", value)
        require_finite("sigma2", self.sigma2)


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
            value = require_finite(f"subset variance for {sorted(u)}", value)
            if value < 0:
                raise ParameterError(f"negative subset variance for {sorted(u)}: {value}")
            norm[u] = value
        self.subset_variances = norm

    @property
    def sigma2(self) -> float:
        return math.fsum(self.subset_variances.values())


def _per_variable(anova: AnovaDecomposition, terms) -> np.ndarray:
    """Per variable j, the math.fsum of the values of the (u, value) pairs
    in `terms` whose subset u holds j; 0.0 where there are none."""
    parts: list[list[float]] = [[] for _ in range(anova.d)]
    for u, value in terms:
        for j in u:
            parts[j].append(value)
    return np.array([math.fsum(p) for p in parts])


def shapley_from_anova(anova: AnovaDecomposition) -> np.ndarray:
    """Shapley effects from subset variances: each sigma_u^2 splits |u| ways."""
    return _per_variable(anova, ((u, var / len(u)) for u, var in anova.subset_variances.items()))


def main_total_from_anova(anova: AnovaDecomposition) -> tuple[np.ndarray, np.ndarray]:
    """Main effects (singleton variances) and totals (all subsets touching j)."""
    variances = anova.subset_variances.items()
    main = _per_variable(anova, ((u, var) for u, var in variances if len(u) == 1))
    return main, _per_variable(anova, variances)


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
    members' c_j. Main and total effects and sigma^2 have product formulas.
    The Shapley effects are Owen's multilinear-extension integrals,
    phi_j = c_j * int_0^1 prod_{l != j} (1 + c_l t) dt: the coefficient of
    t^k sums the variances of the subsets of k others joined with j, and
    integrating t^k gives the 1/(k + 1) share. O(d^2) work per variable.
    """
    c = _sobol_g_c(a)
    d = c.size
    log1p_c = np.log1p(c)
    sigma2 = math.expm1(math.fsum(log1p_c))
    main = c.copy()
    # total_j = c_j * prod_{l != j} (1 + c_l), via the log-domain leave-one-out.
    total = c * np.exp(math.fsum(log1p_c) - log1p_c)

    # Expanding c_j * prod_{l != j} (1 + c_l t) from c_j, not 1, rounds
    # the sum once instead of twice.
    shapley = []
    for j in range(d):
        coef = c[j:j + 1]
        for c_l in np.delete(c, j):
            coef = np.convolve(coef, (1.0, c_l))
        shapley.append(math.fsum((coef / np.arange(1, d + 1)).tolist()))

    return SensitivityIndices(
        d=d,
        main=tuple(main.tolist()),
        total=tuple(total.tolist()),
        shapley=tuple(shapley),
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
        if not (isinstance(bounds, (list, tuple)) and len(bounds) == 2):
            raise ParameterError(f"truncation bounds must be a (lo, hi) pair, got {bounds!r}")
        lo, hi = (require_finite("truncation bound", b) for b in bounds)
        if not lo < hi:
            raise ParameterError(f"truncation bounds must satisfy lo < hi, got ({lo}, {hi})")
    elif isinstance(marginal, Uniform):
        lo, hi = marginal.lo, marginal.hi
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


def anova_oracle(f: ModelFunction, space: InputSpace, nodes: int, *,
                 panels: int = 1, truncation=None) -> AnovaDecomposition:
    """Brute-force ANOVA decomposition by tensor-grid quadrature (d <= 4).

    With E_j the quadrature mean over axis j, each component is one
    projection, f_u = prod_{j in u} (I - E_j) prod_{j not in u} E_j f (Kuo,
    Sloan, Wasilkowski and Wozniakowski, Math. Comp. 2010), and sigma_u^2 is
    the mean of f_u^2 over the axes of u. On the grid's product measure the
    components are zero-mean and orthogonal by construction. `panels`
    selects a composite rule per axis, which matters for integrands with
    kinks: aligning a panel edge with the kink restores spectral accuracy.
    `truncation` supplies (lo, hi) bounds per axis (None entries allowed)
    for unbounded marginals.
    """
    d = space.d
    if d > 4:
        raise CapacityError(f"tensor-grid oracle is capped at d=4, got d={d}")
    nodes = require_integer("nodes", nodes)
    panels = require_integer("panels", panels)
    if nodes < 1 or panels < 1:
        raise ParameterError("nodes and panels must both be >= 1")
    if truncation is not None and not (isinstance(truncation, (list, tuple))
                                       and len(truncation) == d):
        raise ParameterError("truncation must give one (lo, hi) or None per axis")

    rules = [_axis_rule(marginal, nodes, panels, None if truncation is None else truncation[j])
             for j, marginal in enumerate(space.marginals)]
    grids = np.meshgrid(*(x for x, _ in rules), indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=1)
    values = f.evaluate_batch(points).reshape(grids[0].shape)

    def mean(g: np.ndarray, axes) -> np.ndarray:
        # E_j for each j in axes, keeping every axis so that results broadcast.
        # The last axis goes first, which keeps mu bitwise as in 0.3.1.
        for j in reversed(axes):
            g = np.expand_dims(np.tensordot(g, rules[j][1], axes=(j, 0)), j)
        return g

    variances = {}
    for r in range(1, d + 1):
        for u in itertools.combinations(range(d), r):
            f_u = mean(values, [j for j in range(d) if j not in u])
            for j in u:
                f_u = f_u - mean(f_u, [j])
            variances[frozenset(u)] = mean(f_u * f_u, u).item()
    return AnovaDecomposition(d=d, mu=mean(values, range(d)).item(), subset_variances=variances)
