"""Monte Carlo estimators for Shapley, main, and total effects.

The Shapley estimator walks, per sample, a random permutation of the variable
indices, replacing coordinates of one draw x by a second draw y one at a time
and crediting each step's pick-freeze increment to the variable just swapped.
Sharing a single permutation across all variables keeps the cost at (d+1)N
model evaluations while leaving every per-variable estimate unbiased; the
per-sample increments also yield an unbiased estimate of each estimator's
variance and hence confidence intervals.

Both Shapley estimators share one walk. A chunk evaluates f at its walks'
two ends first, f(x) and then f(y), and then at the d-1 points between; the
last step ends at y and reuses f(y). Winding stairs is the same walk with
each walk starting where the one before ended, so a chunk evaluates its new
points first and takes each walk's start value from the previous point.

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

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, ParameterError, require_finite, require_integer
from .inputs import InputSpace, RngStream, permutation_rows
from .models import ModelFunction

_CHUNK = 4096

ESTIMATOR_KINDS = ("shapley", "shapley-winding", "main", "total")


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
        ci_z = require_finite("ci multiplier", self.ci_z)
        if ci_z <= 0:
            raise ParameterError(f"ci multiplier must be finite and > 0, got {ci_z}")
        object.__setattr__(self, "ci_z", ci_z)


@dataclass(frozen=True)
class Report:
    """One estimator run: per-variable estimates with variances and bounds.

    kind is the estimator's name in ESTIMATOR_KINDS. variance_of_estimator,
    ci_low and ci_high are None for shapley-winding, whose correlated samples
    admit no unbiased variance estimate. For the two Shapley kinds
    sigma2_estimate is the plain sum of the estimates and sigma2_from_pairs
    the mean of 0.5*(f(x)-f(y))^2 over the sample pairs, equal to it up to
    rounding by the per-sample telescoping identity; both are None for main
    and total. Estimates may be negative; they are never clamped.
    """

    kind: str
    d: int
    n: int
    estimates: tuple[float, ...]
    variance_of_estimator: tuple[float, ...] | None
    ci_low: tuple[float, ...] | None
    ci_high: tuple[float, ...] | None
    sigma2_estimate: float | None
    sigma2_from_pairs: float | None
    eval_count: int
    seed: int

    @property
    def values(self) -> tuple[float, ...]:
        """Alias of estimates, for callers that read main and total effects'
        `values` field of versions before 0.3.0."""
        return self.estimates


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
    # Imported here: it loads logging, which no serial run needs.
    from concurrent.futures import ThreadPoolExecutor
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


def _report(kind: str, cfg: EstimatorConfig, d: int, eval_count: int,
            parts: list) -> Report:
    """Merge per-chunk moments in chunk order and build the report of `kind`.

    Each part holds a chunk's term moments and, for the Shapley walks, the
    moments of its per-sample 0.5 * (f(x) - f(y))^2, or None. Winding's
    samples overlap, so its report carries no variance or CI.
    """
    terms, pairs = _Moments(d), _Moments(1)
    for term_part, pair_part in parts:
        terms.merge(*term_part)
        if pair_part is not None:
            pairs.merge(*pair_part)
    estimates = terms.mean
    variance = low = high = sigma2 = from_pairs = None
    if kind != "shapley-winding":
        var = terms.m2 / (cfg.n * (cfg.n - 1))
        half = cfg.ci_z * np.sqrt(var)
        variance, low, high = (tuple(v.tolist()) for v in (var, estimates - half, estimates + half))
    if pairs.count:
        sigma2, from_pairs = math.fsum(estimates.tolist()), float(pairs.mean[0])
    return Report(kind=kind, d=d, n=cfg.n, estimates=tuple(estimates.tolist()),
                  variance_of_estimator=variance, ci_low=low, ci_high=high,
                  sigma2_estimate=sigma2, sigma2_from_pairs=from_pairs,
                  eval_count=eval_count, seed=cfg.seed)


def _sampled(kind: str, f: ModelFunction, space: InputSpace, cfg: EstimatorConfig,
             matrices: int, design) -> Report:
    """Run `design` on every chunk of cfg.n samples and report the merged moments.

    Chunk k draws from RngStream(seed, k): x, then y, then what the design
    draws itself. design(f, x, y, gen, ws, start) evaluates the chunk and
    returns its part for `_report`; ws is the worker's workspace of
    `matrices` column-major matrices.
    """
    _require_match(f, space)

    def task(chunk, ws):
        k, start, count = chunk
        gen = RngStream(cfg.seed, stream=k).generator()
        x = space.sample(count, gen)
        y = space.sample(count, gen)
        return design(f, x, y, gen, ws, start)

    before = f.eval_count
    parts = _run_chunks(task, cfg.n, cfg.workers,
                        lambda: _Workspace(space.d, cfg.n, matrices))
    return _report(kind, cfg, space.d, f.eval_count - before, parts)


def _walk(f: ModelFunction, fx: np.ndarray, fy: np.ndarray, z: np.ndarray, y: np.ndarray,
          steps: np.ndarray, g: np.ndarray, start: int):
    """Walk each row of z to the same row of y in place, one coordinate per
    row of steps, crediting each step's increment to the variable it swaps.

    fx and fy are f at the walks' two ends. Each step but the last evaluates
    f at the walks' new points; the last step ends at y and takes fy. Returns
    the chunk's part for `_report`; g receives the increments.
    """
    z_flat, y_flat, g_flat = _flat(z), _flat(y), _flat(g)
    last = len(steps) - 1
    fprev = fx
    for step, idx in enumerate(steps):
        z_flat[idx] = y_flat[idx]
        fz = fy if step == last else _checked_batch(f, z, start)
        g_flat[idx] = (fx - 0.5 * (fprev + fz)) * (fprev - fz)
        fprev = fz
    pairs = 0.5 * (fx - fy) ** 2
    # The walk is done, so z is free to hold the squared deviations.
    return _chunk_moments(g, z), _chunk_moments(pairs[:, None], z)


def _shapley(f: ModelFunction, x: np.ndarray, y: np.ndarray, gen: np.random.Generator,
             ws: _Workspace, start: int):
    """The Shapley design: f(x), f(y), then walk each sample from x to y
    along a random permutation."""
    count, d = x.shape
    steps = ws.walk_steps(permutation_rows(gen, count, d))
    (g,) = ws.matrices(count)
    fx = _checked_batch(f, x, start)
    fy = _checked_batch(f, y, start)
    # The walk moves x to y in place; x is not read again.
    return _walk(f, fx, fy, x, y, steps, g, start)


def _pick_freeze(f: ModelFunction, x: np.ndarray, y: np.ndarray, gen: np.random.Generator,
                 ws: _Workspace, start: int, *, main: bool):
    """The main and total effects' design: for each variable j, evaluate a
    base matrix with its column j taken from the other draw.

    Main's base is y and its term f(x) * (f(x_j, y_-j) - f(y)); total's base
    is x and its term 0.5 * (f(x) - f(y_j, x_-j))^2.
    """
    count, d = x.shape
    base, swap = (y, x) if main else (x, y)
    w, terms = ws.matrices(count)
    fx = _checked_batch(f, x, start)
    fy = _checked_batch(f, y, start) if main else None
    np.copyto(w, base)
    for j in range(d):
        w[:, j] = swap[:, j]
        fw = _checked_batch(f, w, start)
        terms[:, j] = fx * (fw - fy) if main else 0.5 * (fx - fw) ** 2
        w[:, j] = base[:, j]
    return _chunk_moments(terms, w), None


def estimate_shapley_all(f: ModelFunction, space: InputSpace,
                         cfg: EstimatorConfig) -> Report:
    """Estimate all d Shapley effects simultaneously from N permutation walks.

    Costs exactly (d+1)N model evaluations. The report carries the unbiased
    per-variable variance estimates and ci_z-sigma confidence intervals.
    """
    return _sampled("shapley", f, space, cfg, 1, _shapley)


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
                             cfg: EstimatorConfig, *, cyclic: bool = False) -> Report:
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
    ws = _Workspace(d, n, 2)
    first_pt = space.sample(1, point_gen)
    base_pt = first_pt.copy()

    before = f.eval_count
    first = float(_checked_batch(f, first_pt, 0)[0])
    carry = first

    # One chunk of walks: f at the chunk's new points, then the walks from
    # each point to the next. Its draws are freed when it returns, before
    # the next chunk draws its own.
    def task(chunk):
        nonlocal carry
        _, start, count = chunk
        # y[i] is point start + i + 1.
        if not (cyclic and start + count == n):
            y = space.sample(count, point_gen)
            fy = _checked_batch(f, y, start)
        else:
            # A cyclic run's last walk ends at point 0, whose value is cached.
            y, fy = first_pt, np.array([first])
            if count > 1:
                fresh = space.sample(count - 1, point_gen)
                y = np.asfortranarray(np.vstack([fresh, first_pt]))
                fy = np.append(_checked_batch(f, fresh, start), first)
        z, g = ws.matrices(count)
        z[0] = base_pt[0]
        z[1:] = y[:-1]
        fx = np.concatenate(([carry], fy[:-1]))
        carry = float(fy[-1])
        base_pt[0] = y[-1]
        steps = ws.walk_steps(permutation_rows(perm_gen, count, d))
        return _walk(f, fx, fy, z, y, steps, g, start)

    parts = [task(chunk) for chunk in _chunks(n)]
    return _report("shapley-winding", cfg, d, f.eval_count - before, parts)


def estimate_main_effects(f: ModelFunction, space: InputSpace,
                          cfg: EstimatorConfig) -> Report:
    """Pick-freeze main effects: mean of f(x) * (f(x_j, y_-j) - f(y)) per j.

    Pairing the mu^2 correction f(x)f(y) with each sample keeps the whole
    estimator one sample mean, so the same per-term variance estimate applies.
    Costs (d+2)N evaluations.
    """
    return _sampled("main", f, space, cfg, 2, functools.partial(_pick_freeze, main=True))


def estimate_total_effects(f: ModelFunction, space: InputSpace,
                           cfg: EstimatorConfig) -> Report:
    """Pick-freeze total effects: mean of 0.5 * (f(x) - f(y_j, x_-j))^2 per j.

    Costs (d+1)N evaluations; estimates are non-negative by construction.
    """
    return _sampled("total", f, space, cfg, 2, functools.partial(_pick_freeze, main=False))
