"""Input model: marginal distributions, product input spaces, seeded sampling.

All randomness flows through :class:`RngStream`, a ``(seed, stream)`` pair
mapped to a PCG64 generator through ``numpy.random.SeedSequence``. Equal pairs
reproduce the same sequence bitwise; distinct stream ids yield statistically
independent streams, which the estimators use to parallelize over fixed-size
sample chunks without losing determinism.

Sampling is inverse-transform throughout: one matrix of uniforms is drawn
and each column is overwritten with its marginal's quantiles.

A marginal can also be given as a distribution spec, the JSON object that
configs use: ``{"kind": "uniform", "lo": ..., "hi": ...}``, ``{"kind":
"normal", "mean": ..., "sd" or "cv": ...}`` or ``{"kind": "lognormal",
"mean": ..., "cv": ...}``. :meth:`InputSpace.from_specs` parses a list of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import (ConfigError, ParameterError, _check_keys, _require_number,
                     require_finite, require_integer)

# Uniform draws are (k + 0.5) / 2^53 for k uniform in [0, 2^53), except that
# the top point (2^53 - 0.5) / 2^53 rounds to exactly 1.0 and is drawn as
# 1 - 2^-53 instead. Every draw is strictly inside (0, 1), so quantile
# transforms of unbounded marginals never produce infinities.
_U53 = 1 << 53
_BELOW_ONE = 1.0 - 2.0 ** -53


def _ndtri(u):
    """Standard normal quantile of u.

    scipy.special is imported here, on the first normal or lognormal draw,
    rather than with the package: it takes longer to import than a small run
    takes to compute, and uniform inputs never need it.
    """
    from scipy.special import ndtri

    return ndtri(u)


@dataclass(frozen=True)
class Uniform:
    """Uniform distribution on [lo, hi)."""

    lo: float
    hi: float

    def __post_init__(self):
        lo = require_finite("lo", self.lo)
        hi = require_finite("hi", self.hi)
        if not lo < hi:
            raise ParameterError(f"uniform needs lo < hi, got [{lo}, {hi}]")

    def quantile(self, u):
        _check_unit_open(u)
        return self._transform(np.asarray(u, dtype=float))

    def _transform(self, u):
        return self.lo + u * (self.hi - self.lo)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x >= self.lo) & (x <= self.hi)
        return np.where(inside, 1.0 / (self.hi - self.lo), 0.0)

    @property
    def support(self) -> tuple[float, float]:
        return (self.lo, self.hi)

    @property
    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)


@dataclass(frozen=True)
class Normal:
    """Normal distribution given by mean and standard deviation.

    Configuration files and the physical test case use the coefficient of
    variation instead; build those with :meth:`from_cv` (sd = |mean| * cv).
    """

    mean: float
    sd: float

    def __post_init__(self):
        require_finite("mean", self.mean)
        sd = require_finite("sd", self.sd)
        if sd < 0:
            raise ParameterError(f"normal sd must be >= 0, got {sd}")

    @classmethod
    def from_cv(cls, mean: float, cv: float) -> "Normal":
        mean = require_finite("mean", mean)
        cv = require_finite("cv", cv)
        if cv < 0:
            raise ParameterError(f"normal cv must be >= 0, got {cv}")
        if mean == 0:
            raise ParameterError("normal cv needs a non-zero mean; give sd instead")
        return cls(mean, abs(mean) * cv)

    def quantile(self, u):
        _check_unit_open(u)
        return self._transform(np.asarray(u, dtype=float))

    def _transform(self, u):
        return self.mean + self.sd * _ndtri(u)

    def pdf(self, x):
        if self.sd == 0:
            raise ParameterError("degenerate normal (sd=0) has no density")
        z = (np.asarray(x, dtype=float) - self.mean) / self.sd
        return np.exp(-0.5 * z * z) / (self.sd * math.sqrt(2.0 * math.pi))

    @property
    def support(self) -> tuple[float, float]:
        return (-math.inf, math.inf)


@dataclass(frozen=True)
class LogNormal:
    """Log-normal distribution of the variable itself, given mean and CV.

    The underlying normal parameters follow by moment matching:
    sigma_ln^2 = ln(1 + cv^2), mu_ln = ln(mean) - sigma_ln^2 / 2.
    """

    mean: float
    cv: float

    def __post_init__(self):
        mean = require_finite("mean", self.mean)
        cv = require_finite("cv", self.cv)
        if mean <= 0:
            raise ParameterError(f"lognormal mean must be > 0, got {mean}")
        if cv <= 0:
            raise ParameterError(f"lognormal cv must be > 0, got {cv}")

    @property
    def sigma_ln(self) -> float:
        return math.sqrt(math.log1p(self.cv * self.cv))

    @property
    def mu_ln(self) -> float:
        return math.log(self.mean) - 0.5 * math.log1p(self.cv * self.cv)

    def quantile(self, u):
        _check_unit_open(u)
        return self._transform(np.asarray(u, dtype=float))

    def _transform(self, u):
        return np.exp(self.mu_ln + self.sigma_ln * _ndtri(u))

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        pos = x > 0
        z = (np.log(x[pos]) - self.mu_ln) / self.sigma_ln
        out[pos] = np.exp(-0.5 * z * z) / (x[pos] * self.sigma_ln * math.sqrt(2.0 * math.pi))
        return out

    @property
    def support(self) -> tuple[float, float]:
        return (0.0, math.inf)


MarginalDistribution = Union[Uniform, Normal, LogNormal]

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
    values = [_require_number(spec, key, where) for key in keys]
    make = {"uniform": Uniform, "lognormal": LogNormal,
            "normal": Normal if "sd" in spec else Normal.from_cv}[kind]
    try:
        return make(*values)
    except ParameterError as exc:
        raise ConfigError(f"{where}: {exc}")


def _check_unit_open(u) -> None:
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise ParameterError("quantile argument must lie strictly in (0, 1)")


def _unit_draws(gen: np.random.Generator, n: int, d: int) -> np.ndarray:
    """A column-major (n, d) matrix of grid uniforms (k + 0.5) / 2^53, checked
    to lie in (0, 1).

    gen.random draws k / 2^53 with k = next_uint64 >> 11, the same k that
    gen.integers(0, 2^53) draws, and adding 2^-54 rounds exactly as
    (k + 0.5) / 2^53 does, since scaling by a power of two commutes with
    rounding. The draws fill the rows in turn, one point after another; the
    shift is added while they are copied into column-major order.
    """
    u = np.empty((n, d), order="F")
    np.add(gen.random((n, d)), 0.5 / _U53, out=u)
    lo, hi = u.min(), u.max()
    if hi == 1.0:
        np.minimum(u, _BELOW_ONE, out=u)
        hi = _BELOW_ONE
    if not (lo > 0.0 and hi < 1.0):
        raise ParameterError("uniform draws must lie strictly in (0, 1)")
    return u


@dataclass(frozen=True)
class InputSpace:
    """Product of independent marginals; one draw is a d-vector."""

    marginals: tuple[MarginalDistribution, ...]

    def __init__(self, marginals: Sequence[MarginalDistribution]):
        marginals = tuple(marginals)
        if len(marginals) == 0:
            raise ParameterError("input space needs at least one marginal")
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

        The matrix is column-major, so each variable's column X[:, j] is
        contiguous in memory.
        """
        n = require_integer("sample size", n)
        if n < 1:
            raise ParameterError(f"sample size must be >= 1, got {n}")
        u = _unit_draws(gen, n, self.d)
        if all(type(m) is Uniform for m in self.marginals):
            # lo + u * (hi - lo) for every column at once.
            lo = np.array([m.lo for m in self.marginals])
            u *= np.array([m.hi for m in self.marginals]) - lo
            u += lo
        else:
            for j, marginal in enumerate(self.marginals):
                u[:, j] = marginal._transform(u[:, j])
        return u


@dataclass(frozen=True)
class RngStream:
    """A reproducible random stream identified by (seed, stream id).

    A single stream must not be shared across threads; hand each worker its
    own stream id instead.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        object.__setattr__(self, "seed", require_integer("seed", self.seed))
        object.__setattr__(self, "stream", require_integer("stream id", self.stream))
        if not 0 <= self.stream < (1 << 32):
            raise ParameterError(f"stream id must be in [0, 2^32), got {self.stream}")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed % (1 << 64), spawn_key=(self.stream,))
        return np.random.Generator(np.random.PCG64(ss))


def permutation_rows(gen: np.random.Generator, n: int, d: int) -> np.ndarray:
    """n independent uniform permutations of 0..d-1, one per row."""
    rows = np.tile(np.arange(d), (n, 1))
    gen.permuted(rows, axis=1, out=rows)
    return rows
