"""Monte Carlo estimators for Shapley, main, and total effects.

The Shapley estimator walks, per sample, a random permutation of the variable
indices, replacing coordinates of one draw x by a second draw y one at a time
and crediting each step's pick-freeze increment to the variable just swapped.
Sharing a single permutation across all variables keeps the cost at (d+1)N
model evaluations while leaving every per-variable estimate unbiased; the
per-sample increments also yield an unbiased estimate of each estimator's
variance and hence confidence intervals.

All estimators partition the N samples into fixed-size chunks, give chunk k
the RNG stream id k, and merge per-chunk moments in ascending chunk order, so
reports are bitwise identical for any worker count. Each worker thread
allocates one chunk-sized workspace and reuses it for every chunk it runs,
so memory per call does not grow with N.

Every chunk matrix is column-major: the sampled points, the walks' points,
the main and total effects' work matrix and the per-sample terms. Models
read contiguous columns, and a walk step moves one coordinate of every
sample through a single flat index, perm * count + row.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, ParameterError, require_integer
from .inputs import InputSpace, RngStream, permutation_rows
from .models import ModelFunction

_CHUNK = 4096


@dataclass(frozen=True)
class EstimatorConfig:
    """Sample size, seed, worker count, and CI multiplier for one run."""

    n: int
    seed: int
    workers: int = 1
    ci_z: float = 1.96

    def __post_init__(self):
        for name in ("n", "seed", "workers"):
            object.__setattr__(self, name, require_integer(name, getattr(self, name)))
        if self.n < 2:
            raise ParameterError(f"sample size must be >= 2, got {self.n}")
        if self.workers < 1:
            raise ParameterError(f"worker count must be >= 1, got {self.workers}")
        if not (self.ci_z > 0 and math.isfinite(self.ci_z)):
            raise ParameterError(f"ci multiplier must be finite and > 0, got {self.ci_z}")


@dataclass(frozen=True)
class ShapleyReport:
    """Per-variable Shapley estimates with variances and confidence bounds.

    variance_of_estimator / ci_low / ci_high are None for the winding-stairs
    variant, whose correlated samples admit no unbiased variance estimate.
    sigma2_estimate is the plain sum of the estimates; sigma2_from_pairs is
    the mean of 0.5*(f(x)-f(y))^2 over the sample pairs, equal to it up to
    rounding by the per-sample telescoping identity. Estimates may be
    negative; they are never clamped.
    """

    d: int
    n: int
    estimates: tuple[float, ...]
    variance_of_estimator: tuple[float, ...] | None
    ci_low: tuple[float, ...] | None
    ci_high: tuple[float, ...] | None
    sigma2_estimate: float
    sigma2_from_pairs: float
    eval_count: int
    seed: int


@dataclass(frozen=True)
class EffectReport:
    """Pick-freeze main or total effect estimates with per-variable variances."""

    d: int
    n: int
    values: tuple[float, ...]
    variance_of_estimator: tuple[float, ...]
    kind: str
    eval_count: int
    seed: int


def pickfreeze_increment(f_x: float, f_minus: float, f_plus: float) -> float:
    """One permutation-walk increment (F - (F- + F+)/2) * (F- - F+).

    F is the value at the base point, F- the value before the current
    variable's coordinate is swapped, F+ the value after. Algebraically equal
    to 0.5*(F - F+)^2 - 0.5*(F - F-)^2.
    """
    if not (math.isfinite(f_x) and math.isfinite(f_minus) and math.isfinite(f_plus)):
        raise EvaluationError(
            f"pick-freeze increment needs finite values, got ({f_x}, {f_minus}, {f_plus})")
    return (f_x - 0.5 * (f_minus + f_plus)) * (f_minus - f_plus)


class _Moments:
    """Running per-variable mean and sum of squared deviations (M2).

    Chunks are merged with the pairwise-update rule; merging in a fixed order
    makes the result independent of how the chunks were computed.
    """

    def __init__(self, width: int):
        self.count = 0
        self.mean = np.zeros(width)
        self.m2 = np.zeros(width)

    def merge(self, count: int, mean: np.ndarray, m2: np.ndarray) -> None:
        if count == 0:
            return
        total = self.count + count
        delta = mean - self.mean
        self.mean = self.mean + delta * (count / total)
        self.m2 = self.m2 + m2 + delta * delta * (self.count * count / total)
        self.count = total


def _flat(matrix: np.ndarray) -> np.ndarray:
    """A flat view of a column-major (count, width) matrix: element (i, j) at
    j * count + i.

    Raises for any other layout instead of returning a copy, since the walks
    write through this view.
    """
    if not matrix.flags.f_contiguous:
        raise ValueError(
            f"chunk matrix of shape {matrix.shape} and strides {matrix.strides} "
            "is not column-major")
    return matrix.ravel(order="F")


def _columns(flat: np.ndarray, count: int, width: int) -> np.ndarray:
    """The first count * width entries of a flat buffer as a column-major
    (count, width) matrix."""
    return flat[:count * width].reshape(width, count).T


def _chunk_moments(values: np.ndarray, scratch: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """Count, column means and M2 of a column-major (count, width) block.

    Each column is contiguous, so numpy sums it pairwise. The deviations are
    squared in the first count * width floats of scratch, a column-major
    float matrix the chunk no longer needs; dev * dev is bitwise
    (values - mean) ** 2.
    """
    count, width = values.shape
    mean = values.mean(axis=0)
    dev = _columns(_flat(scratch), count, width)
    np.subtract(values, mean, out=dev)
    dev *= dev
    return count, mean, dev.sum(axis=0)


class _Workspace:
    """One worker thread's chunk buffers, reused for every chunk the thread
    runs: `matrices` column-major float matrices of min(n, 4096) rows by d
    and, for the walks, the step index buffer.

    A chunk of count samples uses the first count * d floats of each buffer
    and writes every element it reads, so a short tail chunk never sees
    values left by an earlier chunk. Models are passed these buffers, so
    they must neither keep nor modify the arrays they are given.

    Each buffer is made on first use, after the thread's first chunk has
    drawn its points. The draws, which every chunk allocates and frees, then
    lie below the long-lived buffers on the heap, and glibc reuses their
    space instead of returning it to the system at the end of each chunk and
    page-faulting it back in on the next (Sobol' g, d=10, N=2^18: about 15k
    minor faults per call if the buffers come first, 400 this way).
    """

    def __init__(self, d: int, n: int, matrices: int):
        self._size = min(n, _CHUNK) * d
        self._d = d
        self._count = matrices
        self._buffers = None
        self._steps = None

    def matrices(self, count: int) -> list[np.ndarray]:
        """The column-major (count, d) float matrices."""
        if self._buffers is None:
            self._buffers = [np.empty(self._size) for _ in range(self._count)]
        return [_columns(b, count, self._d) for b in self._buffers]

    def walk_steps(self, perms: np.ndarray) -> np.ndarray:
        """Row `step` holds, for every sample, the flat index into its
        column-major (count, d) matrices of the coordinate its walk swaps at
        that step: perm * count + row."""
        if self._steps is None:
            self._steps = np.empty(self._size, dtype=np.intp)
            self._rows = np.arange(self._size // self._d, dtype=np.intp)
        count, d = perms.shape
        steps = self._steps[:d * count].reshape(d, count)
        np.multiply(perms.T, count, out=steps)
        steps += self._rows[:count]
        return steps


def _chunks(n: int) -> list[tuple[int, int, int]]:
    """(chunk index, start sample, chunk size) triples covering range(n)."""
    return [(k, s, min(s + _CHUNK, n) - s)
            for k, s in enumerate(range(0, n, _CHUNK))]


def _run_chunks(task, n: int, workers: int, workspace) -> list:
    """Evaluate task(chunk, ws) for every chunk; results in ascending chunk
    order. Each thread calls workspace() once, on its first chunk, and passes
    the result to every chunk it runs."""
    chunks = _chunks(n)
    if workers == 1 or len(chunks) == 1:
        ws = workspace()
        return [task(c, ws) for c in chunks]
    local = threading.local()

    def run(chunk):
        if not hasattr(local, "ws"):
            local.ws = workspace()
        return task(chunk, local.ws)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, chunks))


def _checked_batch(f: ModelFunction, points: np.ndarray, start: int) -> np.ndarray:
    try:
        values = f.evaluate_batch(points)
    except EvaluationError as exc:
        raise EvaluationError(
            f"evaluation failed in samples [{start}, {start + points.shape[0]}): {exc}"
        ) from exc
    if np.may_share_memory(values, points):
        # A model may return a view of its input, such as a column; the walks
        # overwrite their points in place, so keep values of their own.
        values = values.copy()
    if not np.isfinite(values).all():
        i = int(np.argmin(np.isfinite(values)))
        raise EvaluationError(
            f"non-finite model output {float(values[i])} at sample {start + i}: "
            f"x = {points[i].tolist()}")
    return values


def _require_match(f: ModelFunction, space: InputSpace) -> None:
    if f.dim != space.d:
        raise ParameterError(
            f"model dimension {f.dim} does not match input space dimension {space.d}")


def estimate_shapley_all(f: ModelFunction, space: InputSpace,
                         cfg: EstimatorConfig) -> ShapleyReport:
    """Estimate all d Shapley effects simultaneously from N permutation walks.

    Costs exactly (d+1)N model evaluations. The report carries the unbiased
    per-variable variance estimates and ci_z-sigma confidence intervals.
    """
    _require_match(f, space)
    d = space.d

    def task(chunk, ws):
        k, start, count = chunk
        gen = RngStream(cfg.seed, stream=k).generator()
        x = space.sample(count, gen)
        y = space.sample(count, gen)
        steps = ws.walk_steps(permutation_rows(gen, count, d))
        (g,) = ws.matrices(count)
        fx = _checked_batch(f, x, start)
        # The walk moves its point z from x to y in place; x is not read again.
        z = x
        z_flat, y_flat, g_flat = _flat(z), _flat(y), _flat(g)
        fprev = fx
        for idx in steps:
            z_flat[idx] = y_flat[idx]
            fz = _checked_batch(f, z, start)
            g_flat[idx] = (fx - 0.5 * (fprev + fz)) * (fprev - fz)
            fprev = fz
        pairs = 0.5 * (fx - fprev) ** 2
        # The walk is done, so z is free to hold the squared deviations.
        return _chunk_moments(g, z), _chunk_moments(pairs[:, None], z)

    before = f.eval_count
    results = _run_chunks(task, cfg.n, cfg.workers, lambda: _Workspace(d, cfg.n, 1))
    eval_count = f.eval_count - before

    g_stats = _Moments(d)
    pair_stats = _Moments(1)
    for g_part, pair_part in results:
        g_stats.merge(*g_part)
        pair_stats.merge(*pair_part)

    estimates = g_stats.mean
    variance = g_stats.m2 / (cfg.n * (cfg.n - 1))
    half = cfg.ci_z * np.sqrt(variance)
    return ShapleyReport(
        d=d,
        n=cfg.n,
        estimates=tuple(estimates.tolist()),
        variance_of_estimator=tuple(variance.tolist()),
        ci_low=tuple((estimates - half).tolist()),
        ci_high=tuple((estimates + half).tolist()),
        sigma2_estimate=math.fsum(estimates.tolist()),
        sigma2_from_pairs=float(pair_stats.mean[0]),
        eval_count=eval_count,
        seed=cfg.seed,
    )


def _winding_streams(seed: int, n: int, d: int,
                     cyclic: bool) -> tuple[np.random.Generator, np.random.Generator]:
    """Generators for winding's points and for its permutations.

    The run's draws are its n + 1 points (n when cyclic), then its n
    permutations, all from stream 0. Each uniform consumes one 64-bit output,
    so a second stream-0 generator advanced past the points' draws yields the
    permutations, and both can be drawn chunk by chunk.
    """
    point_gen = RngStream(seed, stream=0).generator()
    perm_gen = RngStream(seed, stream=0).generator()
    perm_gen.bit_generator.advance((n if cyclic else n + 1) * d)
    return point_gen, perm_gen


def estimate_shapley_winding(f: ModelFunction, space: InputSpace,
                             cfg: EstimatorConfig, *, cyclic: bool = False) -> ShapleyReport:
    """Winding-stairs Shapley estimator: pair consecutive points of one sequence.

    Reusing each walk's final value as the next pair's base value cuts the
    cost to d*N + 1 evaluations, or d*N when `cyclic` closes the sequence by
    pairing the last point with the first (the run is then not extensible in
    N). The pairs overlap, so no unbiased variance estimate exists and the
    variance and CI fields are None. The run is single-stream and sequential;
    cfg.workers is ignored. Points and permutations are drawn chunk by chunk,
    so memory does not grow with N.
    """
    _require_match(f, space)
    d = space.d
    n = cfg.n
    point_gen, perm_gen = _winding_streams(cfg.seed, n, d, cyclic)
    ws = _Workspace(d, n, 3)
    first_pt = space.sample(1, point_gen)
    base_pt = first_pt.copy()

    before = f.eval_count
    first = float(_checked_batch(f, first_pt, 0)[0])
    carry = first

    # One chunk of walks. Its draws are freed when it returns, before the
    # next chunk draws its own.
    def task(chunk):
        nonlocal carry
        _, start, count = chunk
        closing = cyclic and start + count == n
        # nxt[i] is point start + i + 1; a cyclic run's last walk ends at point 0.
        if not closing:
            nxt = space.sample(count, point_gen)
        elif count > 1:
            nxt = np.asfortranarray(np.vstack([space.sample(count - 1, point_gen), first_pt]))
        else:
            nxt = first_pt.copy()
        z, fstep, g = ws.matrices(count)
        z[0] = base_pt[0]
        z[1:] = nxt[:-1]
        steps = ws.walk_steps(permutation_rows(perm_gen, count, d))
        z_flat, nxt_flat = _flat(z), _flat(nxt)
        for step, idx in enumerate(steps):
            z_flat[idx] = nxt_flat[idx]
            if closing and step == d - 1:
                # The final walk ends at the first point; reuse its cached value.
                if count > 1:
                    fstep[:-1, step] = _checked_batch(f, z[:-1], start)
                fstep[-1, step] = first
            else:
                fstep[:, step] = _checked_batch(f, z, start)
        fbase = np.empty(count)
        fbase[0] = carry
        fbase[1:] = fstep[:-1, d - 1]
        carry = float(fstep[-1, d - 1])
        base_pt[0] = nxt[-1]

        g_flat = _flat(g)
        fprev = fbase
        for step, idx in enumerate(steps):
            fz = fstep[:, step]
            g_flat[idx] = (fbase - 0.5 * (fprev + fz)) * (fprev - fz)
            fprev = fz
        pairs = 0.5 * (fbase - fstep[:, d - 1]) ** 2
        return _chunk_moments(g, z), _chunk_moments(pairs[:, None], z)

    g_stats = _Moments(d)
    pair_stats = _Moments(1)
    for chunk in _chunks(n):
        g_part, pair_part = task(chunk)
        g_stats.merge(*g_part)
        pair_stats.merge(*pair_part)

    eval_count = f.eval_count - before
    estimates = g_stats.mean
    return ShapleyReport(
        d=d,
        n=n,
        estimates=tuple(estimates.tolist()),
        variance_of_estimator=None,
        ci_low=None,
        ci_high=None,
        sigma2_estimate=math.fsum(estimates.tolist()),
        sigma2_from_pairs=float(pair_stats.mean[0]),
        eval_count=eval_count,
        seed=cfg.seed,
    )


def estimate_main_effects(f: ModelFunction, space: InputSpace,
                          cfg: EstimatorConfig) -> EffectReport:
    """Pick-freeze main effects: mean of f(x) * (f(x_j, y_-j) - f(y)) per j.

    Pairing the mu^2 correction f(x)f(y) with each sample keeps the whole
    estimator one sample mean, so the same per-term variance estimate applies.
    Costs (d+2)N evaluations.
    """
    _require_match(f, space)
    d = space.d

    def task(chunk, ws):
        k, start, count = chunk
        gen = RngStream(cfg.seed, stream=k).generator()
        x = space.sample(count, gen)
        y = space.sample(count, gen)
        w, terms = ws.matrices(count)
        fx = _checked_batch(f, x, start)
        fy = _checked_batch(f, y, start)
        np.copyto(w, y)
        for j in range(d):
            w[:, j] = x[:, j]
            fw = _checked_batch(f, w, start)
            terms[:, j] = fx * (fw - fy)
            w[:, j] = y[:, j]
        return _chunk_moments(terms, w)

    before = f.eval_count
    results = _run_chunks(task, cfg.n, cfg.workers, lambda: _Workspace(d, cfg.n, 2))
    eval_count = f.eval_count - before

    stats = _Moments(d)
    for part in results:
        stats.merge(*part)
    variance = stats.m2 / (cfg.n * (cfg.n - 1))
    return EffectReport(
        d=d,
        n=cfg.n,
        values=tuple(stats.mean.tolist()),
        variance_of_estimator=tuple(variance.tolist()),
        kind="main",
        eval_count=eval_count,
        seed=cfg.seed,
    )


def estimate_total_effects(f: ModelFunction, space: InputSpace,
                           cfg: EstimatorConfig) -> EffectReport:
    """Pick-freeze total effects: mean of 0.5 * (f(x) - f(y_j, x_-j))^2 per j.

    Costs (d+1)N evaluations; values are non-negative by construction.
    """
    _require_match(f, space)
    d = space.d

    def task(chunk, ws):
        k, start, count = chunk
        gen = RngStream(cfg.seed, stream=k).generator()
        x = space.sample(count, gen)
        y = space.sample(count, gen)
        v, terms = ws.matrices(count)
        fx = _checked_batch(f, x, start)
        np.copyto(v, x)
        for j in range(d):
            v[:, j] = y[:, j]
            fv = _checked_batch(f, v, start)
            terms[:, j] = 0.5 * (fx - fv) ** 2
            v[:, j] = x[:, j]
        return _chunk_moments(terms, v)

    before = f.eval_count
    results = _run_chunks(task, cfg.n, cfg.workers, lambda: _Workspace(d, cfg.n, 2))
    eval_count = f.eval_count - before

    stats = _Moments(d)
    for part in results:
        stats.merge(*part)
    variance = stats.m2 / (cfg.n * (cfg.n - 1))
    return EffectReport(
        d=d,
        n=cfg.n,
        values=tuple(stats.mean.tolist()),
        variance_of_estimator=tuple(variance.tolist()),
        kind="total",
        eval_count=eval_count,
        seed=cfg.seed,
    )
