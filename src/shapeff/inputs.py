"""Input model: marginal distributions, product input spaces, seeded sampling.

All randomness flows through :class:`RngStream`, a ``(seed, stream)`` pair
mapped to a PCG64 generator through ``numpy.random.SeedSequence``. Equal pairs
reproduce the same sequence bitwise; distinct stream ids yield statistically
independent streams, which the estimators use to parallelize over fixed-size
sample chunks without losing determinism.

Each marginal is a map of one standard variate: a uniform on [0, 1) for
:class:`Uniform`, a standard normal for :class:`Normal` and
:class:`LogNormal`. :meth:`InputSpace.sample` draws the columns in turn, each
as numpy's uniforms (``Generator.random``) or ziggurat normals
(``Generator.standard_normal``), and maps each in place, so no run needs an
inverse normal CDF. :meth:`MarginalDistribution.quantile` maps a uniform on
(0, 1) through the same map, by way of ``scipy.special.ndtri`` for the
normal family.

A marginal can also be given as a distribution spec, the JSON object that
configs use: ``{"kind": "uniform", "lo": ..., "hi": ...}``, ``{"kind":
"normal", "mean": ..., "sd" or "cv": ...}`` or ``{"kind": "lognormal",
"mean": ..., "cv": ...}``. :meth:`InputSpace.from_specs` parses a list of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import (ConfigError, ParameterError, _check_keys, require_finite,
                     require_integer, require_real)

# numpy's uniform draws are k / 2^53 for k uniform in [0, 2^53). A uniform
# marginal checks its map at the lowest and highest of them when it is built.
_GRID_ENDS = np.array([0.0, 1.0 - 2.0 ** -53])
# The reach of numpy's ziggurat (Marsaglia and Tsang 2000): a draw below the
# base strip's edge r is returned as is, and a tail draw is r - ln(1 - U) / r
# for a 53-bit U <= 1 - 2^-53, so |z| <= r + 53 ln 2 / r, about 13.71. A
# normal-family marginal checks its map at both ends when it is built.
_ZIGGURAT_R = 3.6541528853610088
_Z_REACH = _ZIGGURAT_R + 53.0 * math.log(2.0) / _ZIGGURAT_R
_Z_ENDS = np.array([-_Z_REACH, _Z_REACH])


class MarginalDistribution:
    """A distribution of one input, as a map of one standard variate.

    A subclass is a frozen dataclass whose fields are its real parameters. It
    defines ``pdf(x)``, ``_check_parameters()`` for its own ranges, and
    ``_map(v)``, monotone in v, which takes a uniform on [0, 1), or a standard
    normal where the class sets ``_normal = True``.
    """

    _normal = False

    def __post_init__(self):
        """Store each parameter as a finite float, then check its range and
        the draws; ParameterError names the first that fails."""
        for field in fields(self):
            object.__setattr__(self, field.name,
                               require_finite(field.name, getattr(self, field.name)))
        self._check_parameters()
        self._check_draws()

    def quantile(self, u):
        """The marginal's quantile of u, each value strictly in (0, 1); a
        normal-family marginal imports scipy.special here, on first use."""
        u = np.asarray(u, dtype=float)
        if not np.all((u > 0.0) & (u < 1.0)):
            raise ParameterError("quantile argument must lie strictly in (0, 1)")
        if self._normal:
            from scipy.special import ndtri

            u = ndtri(u)
        return self._map(u)

    def _check_draws(self) -> None:
        """ParameterError unless the map is finite at both ends of the
        variates that can be drawn; it is monotone, so then every draw is."""
        ends, where = ((_Z_ENDS, ("z = -13.71", "z = 13.71")) if self._normal
                       else (_GRID_ENDS, ("u = 0", "u = 1 - 2^-53")))
        with np.errstate(over="ignore", invalid="ignore"):
            ends = self._map(ends)
        if not np.isfinite(ends).all():
            raise ParameterError(f"{self} draws non-finite values: {ends[0]} at "
                                 f"{where[0]}, {ends[1]} at {where[1]}")


@dataclass(frozen=True)
class Uniform(MarginalDistribution):
    """Uniform distribution on [lo, hi)."""

    lo: float
    hi: float

    def _check_parameters(self):
        if not self.lo < self.hi:
            raise ParameterError(f"uniform needs lo < hi, got [{self.lo}, {self.hi}]")

    def _map(self, u):
        return self.lo + u * (self.hi - self.lo)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x >= self.lo) & (x <= self.hi)
        return np.where(inside, 1.0 / (self.hi - self.lo), 0.0)


@dataclass(frozen=True)
class Normal(MarginalDistribution):
    """Normal distribution given by mean and standard deviation.

    Configuration files and the physical test case use the coefficient of
    variation instead; build those with :meth:`from_cv` (sd = |mean| * cv).
    """

    mean: float
    sd: float
    _normal = True

    def _check_parameters(self):
        if self.sd < 0:
            raise ParameterError(f"normal sd must be >= 0, got {self.sd}")

    @classmethod
    def from_cv(cls, mean: float, cv: float) -> "Normal":
        mean = require_finite("mean", mean)
        cv = require_finite("cv", cv)
        if cv < 0:
            raise ParameterError(f"normal cv must be >= 0, got {cv}")
        if mean == 0:
            raise ParameterError("normal cv needs a non-zero mean; give sd instead")
        return cls(mean, abs(mean) * cv)

    def _map(self, z):
        return self.mean + self.sd * z

    def pdf(self, x):
        if self.sd == 0:
            raise ParameterError("degenerate normal (sd=0) has no density")
        z = (np.asarray(x, dtype=float) - self.mean) / self.sd
        return np.exp(-0.5 * z * z) / (self.sd * math.sqrt(2.0 * math.pi))


@dataclass(frozen=True)
class LogNormal(MarginalDistribution):
    """Log-normal distribution of the variable itself, given mean and CV.

    The underlying normal parameters follow by moment matching:
    sigma_ln^2 = ln(1 + cv^2), mu_ln = ln(mean) - sigma_ln^2 / 2.
    """

    mean: float
    cv: float
    _normal = True

    def _check_parameters(self):
        if self.mean <= 0:
            raise ParameterError(f"lognormal mean must be > 0, got {self.mean}")
        if self.cv <= 0:
            raise ParameterError(f"lognormal cv must be > 0, got {self.cv}")

    @property
    def sigma_ln(self) -> float:
        return math.sqrt(math.log1p(self.cv * self.cv))

    @property
    def mu_ln(self) -> float:
        return math.log(self.mean) - 0.5 * math.log1p(self.cv * self.cv)

    def _map(self, z):
        return np.exp(self.mu_ln + self.sigma_ln * z)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        pos = x > 0
        z = (np.log(x[pos]) - self.mu_ln) / self.sigma_ln
        out[pos] = np.exp(-0.5 * z * z) / (x[pos] * self.sigma_ln * math.sqrt(2.0 * math.pi))
        return out


# Each kind's keys besides "kind", in the order its constructor takes them;
# normal takes sd or cv.
_DIST_KEYS = {"uniform": ("lo", "hi"), "normal": ("mean", "sd", "cv"),
              "lognormal": ("mean", "cv")}


def _marginal_from_spec(spec, where: str) -> MarginalDistribution:
    """The marginal a distribution spec describes; ConfigError naming `where`
    for a malformed spec or invalid parameters."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{where} must be an object, got {spec!r}")
    kind = spec.get("kind")
    if kind not in _DIST_KEYS:
        raise ConfigError(f"{where}: kind must be one of {sorted(_DIST_KEYS)}, got {kind!r}")
    keys = _DIST_KEYS[kind]
    _check_keys(spec, {"kind", *keys}, where)
    if kind == "normal":
        spread = {"sd", "cv"} & set(spec)
        if len(spread) != 1:
            raise ConfigError(f"{where}: normal takes exactly one of sd or cv, got "
                              f"{' and '.join(sorted(spread)) or 'neither'}")
        keys = ("mean", *spread)
    missing = set(keys) - set(spec)
    if missing:
        raise ConfigError(f"{where}: missing key(s): {', '.join(sorted(missing))}")
    make = {"uniform": Uniform, "lognormal": LogNormal,
            "normal": Normal if "sd" in spec else Normal.from_cv}[kind]
    try:
        return make(*(require_real(key, spec[key]) for key in keys))
    except ParameterError as exc:
        raise ConfigError(f"{where}: {exc}")


@dataclass(frozen=True)
class InputSpace:
    """Product of independent marginals; one draw is a d-vector."""

    marginals: tuple[MarginalDistribution, ...]

    def __init__(self, marginals: Sequence[MarginalDistribution]):
        marginals = tuple(marginals)
        if len(marginals) == 0:
            raise ParameterError("input space needs at least one marginal")
        for i, marginal in enumerate(marginals):
            if not isinstance(marginal, MarginalDistribution):
                raise ParameterError(f"marginal {i} is not a MarginalDistribution: {marginal!r}")
        object.__setattr__(self, "marginals", marginals)

    @classmethod
    def from_specs(cls, specs: Sequence[dict]) -> "InputSpace":
        """The space of a list of distribution specs, one per input; a bad
        entry raises ConfigError naming it as distributions[i]."""
        return cls([_marginal_from_spec(spec, f"distributions[{i}]")
                    for i, spec in enumerate(specs)])

    @property
    def d(self) -> int:
        return len(self.marginals)

    def sample(self, n: int, gen: np.random.Generator) -> np.ndarray:
        """Draw an (n, d) matrix of independent rows from the product density.

        Column j is drawn in turn, straight into row j of a C-ordered (d, n)
        buffer: n uniforms on [0, 1) (gen.random), checked to lie there, or
        n standard normals (gen.standard_normal) for a normal-family marginal.
        Each row then goes through its marginal's map. The transpose is
        returned, so the matrix is column-major and each variable's column
        X[:, j] is contiguous.
        """
        n = require_integer("sample size", n)
        if n < 1:
            raise ParameterError(f"sample size must be >= 1, got {n}")
        if not isinstance(gen, np.random.Generator):
            raise ParameterError(f"gen must be a numpy.random.Generator, got {gen!r}")
        x = np.empty((self.d, n))
        for row, marginal in zip(x, self.marginals):
            if marginal._normal:
                gen.standard_normal(out=row)
            else:
                gen.random(out=row)
                if not (row.min() >= 0.0 and row.max() < 1.0):
                    raise ParameterError("uniform draws must lie in [0, 1)")
            row[:] = marginal._map(row)
        return x.T


@dataclass(frozen=True)
class RngStream:
    """A reproducible random stream identified by (seed, stream id).

    The seed is an integer in [0, 2^64) and the stream id one in [0, 2^32);
    this constructor is where the package checks every seed. A single stream
    must not be shared across threads; hand each worker its own stream id
    instead.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        seed = require_integer("seed", self.seed)
        if seed < 0:
            raise ParameterError(f"seed must be >= 0, got {seed}")
        if seed >= 1 << 64:
            raise ParameterError(f"seed must be < 2^64, got {seed}")
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "stream", require_integer("stream id", self.stream))
        if not 0 <= self.stream < (1 << 32):
            raise ParameterError(f"stream id must be in [0, 2^32), got {self.stream}")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.PCG64(ss))


def permutation_rows(gen: np.random.Generator, n: int, d: int) -> np.ndarray:
    """n independent uniform permutations of 0..d-1, one per row."""
    rows = np.tile(np.arange(d), (n, 1))
    gen.permuted(rows, axis=1, out=rows)
    return rows
