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

Every estimator is a design run by one driver, `_report`. The driver
partitions the N samples into fixed-size chunks and hands chunk k the RNG
stream id k; the design draws the chunk's points, evaluates them and fills
one block of per-sample terms (the Shapley walks put 0.5 * (f(x) - f(y))^2
in its column d), which the driver alone reduces to moments and merges in
ascending chunk order, so reports are bitwise identical for any worker
count. The calling thread runs chunks too, with workers - 1 helper threads;
each thread allocates one chunk-sized workspace and reuses it for every
chunk it runs, so memory per call does not grow with N.

Every chunk matrix is column-major: the sampled points, winding's walk
points and the term block. Models read contiguous columns, and a walk step
moves one coordinate of every sample through a single flat index,
perm * count + row.
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
    """Sample size, seed, worker count, and CI multiplier for one run, each
    checked when the config is built; RngStream checks the seed."""

    n: int
    seed: int
    workers: int = 1
    ci_z: float = 1.96

    def __post_init__(self):
        object.__setattr__(self, "n", require_integer("n", self.n))
        object.__setattr__(self, "seed", RngStream(self.seed).seed)
        object.__setattr__(self, "workers", require_integer("workers", self.workers))
        if self.n < 2:
            raise ParameterError(f"n must be >= 2, got {self.n}")
        if self.n > _CHUNK << 32:
            raise ParameterError(f"sample size must be <= 2^44 (2^32 chunk streams of "
                                 f"{_CHUNK} samples), got {self.n}")
        if self.workers < 1:
            raise ParameterError(f"workers must be >= 1, got {self.workers}")
        ci_z = require_finite("ci_z", self.ci_z)
        if ci_z <= 0:
            raise ParameterError(f"ci_z must be > 0, got {ci_z}")
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
    """Running column means and sums of squared deviations (M2) of a term
    block of any width; the first merge sets the width.

    Chunks are merged with the pairwise-update rule; merging in a fixed order
    makes the result independent of how the chunks were computed.
    """

    def __init__(self):
        self.count = 0
        self.mean = self.m2 = 0.0

    def merge(self, count: int, mean: np.ndarray, m2: np.ndarray) -> None:
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


def _chunk_moments(values: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """Count, column means and M2 of a column-major (count, width) block.

    Each column is contiguous, so numpy sums it pairwise. The deviations are
    squared in place in the block, which the chunk no longer needs; d * d is
    bitwise d ** 2.
    """
    mean = values.mean(axis=0)
    values -= mean
    values *= values
    return values.shape[0], mean, values.sum(axis=0)


class _Workspace:
    """One thread's chunk buffers of min(n, 4096) * (d + 1) floats, reused
    for every chunk the thread runs: one for the term block and, for
    winding, one for the walk points.

    A chunk of count samples takes the first count * width floats of a
    buffer as a (count, width) matrix and writes every element it reads, so
    a short tail chunk never sees values left by an earlier chunk. Models
    are passed these buffers, so they must neither keep nor modify the
    arrays they are given.

    Each buffer is made on first request, after the thread's first chunk has
    drawn its points. The draws, which every chunk allocates and frees, then
    lie below the long-lived buffers on the heap, and glibc reuses their
    space instead of returning it to the system at the end of each chunk and
    page-faulting it back in on the next (Sobol' g, d=10, N=2^18: about 15k
    minor faults per call if the buffers come first, 400 this way). That
    holds for the calling thread. A helper thread that a later call starts
    still has its heap trimmed and regrown: at workers=2 it took 0-5,320
    faults per Shapley call, in a range that varies by process (measured as
    README's Reproducibility section says).
    """

    def __init__(self, d: int, n: int):
        self._size = min(n, _CHUNK) * (d + 1)
        self._buffers = []

    def matrices(self, count: int, *widths: int) -> list[np.ndarray]:
        """One column-major (count, width) float matrix per width, each from
        its own buffer, in order; a width is at most d + 1."""
        while len(self._buffers) < len(widths):
            self._buffers.append(np.empty(self._size))
        return [b[:count * w].reshape(w, count).T for b, w in zip(self._buffers, widths)]


def _run_chunks(task, merge, n: int, workers: int, d: int) -> None:
    """Run task(k, count, ws) on every chunk k of count samples and pass
    the results to merge in ascending chunk order.

    The caller and min(workers, chunks) - 1 helpers run one loop, each with
    its own `_Workspace(d, n)`: under the lock, take the next chunk while
    fewer than 2 * workers are taken and not merged, run it without the
    lock, and merge every result next in chunk order. numpy's overflow and
    invalid warnings are off on every thread, as `_report` checks every
    field. A failure, interrupts included, stops new chunks at once; the
    first in chunk order is raised once every started helper is joined."""
    total = -(-n // _CHUNK)
    cond = threading.Condition()
    done = {}
    taken = merged = 0
    failure = None

    def work():
        nonlocal taken, merged, failure
        ws = _Workspace(d, n)
        with cond, np.errstate(over="ignore", invalid="ignore"):
            while taken < total:
                if taken - merged == 2 * workers:
                    cond.wait()
                    continue
                k = taken
                taken += 1
                cond.release()
                try:
                    result = task(k, min(n - k * _CHUNK, _CHUNK), ws), None
                except BaseException as exc:
                    result = None, exc
                cond.acquire()
                done[k] = result
                while failure is None and merged in done:
                    value, failure = done.pop(merged)
                    merged += 1
                    if failure is None:
                        try:
                            merge(value)
                        except BaseException as exc:
                            failure = exc
                if result[1] is not None or failure is not None:
                    taken = total
                cond.notify_all()

    helpers = []
    try:
        for _ in range(min(workers, total) - 1):
            thread = threading.Thread(target=work)
            thread.start()
            helpers.append(thread)
        work()
    finally:
        with cond:
            taken = total
            cond.notify_all()
        for thread in helpers:
            thread.join()
    if failure is not None:
        raise failure


def _finite(kind: str, name: str, values: np.ndarray,
            variables: bool = True) -> tuple[float, ...]:
    """A report field's values as a tuple; EvaluationError naming the field
    and, for a per-variable field, the first variable that is not finite."""
    finite = np.isfinite(values)
    if not finite.all():
        j = int(np.argmin(finite))
        of = f" for variable {j + 1}" if variables else ""
        raise EvaluationError(
            f"{kind} report: {name} is {float(values[j])}{of}, not a finite number")
    return tuple(values.tolist())


class _ChunkModel:
    """f as one chunk sees it: evaluate_batch passes each batch on to f and
    tallies its points, so a run counts its own evaluations even while other
    runs share f and its lifetime counter."""

    def __init__(self, f: ModelFunction):
        self._f = f
        self.points = 0

    def evaluate_batch(self, points: np.ndarray) -> np.ndarray:
        self.points += len(points)
        return self._f.evaluate_batch(points)


def _report(kind: str, f: ModelFunction, space: InputSpace, cfg: EstimatorConfig, design,
            chain: bool = False) -> Report:
    """Run `design` on every chunk of cfg.n samples and build the report of
    `kind` from the merged moments of its term blocks.

    f.dim must equal space.d, or ParameterError is raised before any
    evaluation. Chunk k of count samples runs, through `_run_chunks`,
    design(model, space, count, gen, ws): gen is RngStream(seed, k)'s
    generator, from which the design draws the chunk, model is f as a
    `_ChunkModel`, on which it evaluates it, and ws is the thread's
    `_Workspace`, from which it takes the matrices it writes. An
    EvaluationError there is raised again naming the chunk's samples.

    A design returns the chunk's term block, which the task reduces with
    `_chunk_moments`; `merge` adds those moments and the chunk's evaluations
    to the run's totals in chunk order. Columns 0..d-1 give the estimates,
    variances and CIs, and column d, if any, sigma2_from_pairs. A `chain`
    design carries a sample from each chunk to the next, so its chunks run
    in order on the calling thread and its report carries no variance or CI.
    Finite model values can still overflow in the merge or the CI, so
    numpy's warnings are off there and every field is checked instead.
    """
    if f.dim != space.d:
        raise ParameterError(
            f"model dimension {f.dim} does not match input space dimension {space.d}")
    d = space.d

    def task(k, count, ws):
        model = _ChunkModel(f)
        try:
            block = design(model, space, count, RngStream(cfg.seed, stream=k).generator(), ws)
        except EvaluationError as exc:
            raise EvaluationError(f"evaluation failed in samples "
                                  f"[{k * _CHUNK}, {k * _CHUNK + count}): {exc}") from exc
        return model.points, _chunk_moments(block)

    evals = 0
    terms = _Moments()

    def merge(result):
        nonlocal evals
        points, moments = result
        evals += points
        terms.merge(*moments)

    _run_chunks(task, merge, cfg.n, 1 if chain else cfg.workers, d)
    mean, m2, pairs = terms.mean[:d], terms.m2[:d], terms.mean[d:]
    variance = low = high = sigma2 = from_pairs = None
    with np.errstate(over="ignore", invalid="ignore"):
        estimates = _finite(kind, "estimates", mean)
        if not chain:
            var = m2 / (cfg.n * (cfg.n - 1))
            half = cfg.ci_z * np.sqrt(var)
            variance, low, high = (_finite(kind, name, v) for name, v in zip(
                ("variance_of_estimator", "ci_low", "ci_high"),
                (var, mean - half, mean + half)))
        if len(pairs):
            # The exact sum of finite estimates is finite, or fsum raises.
            sigma2 = math.fsum(estimates)
            (from_pairs,) = _finite(kind, "sigma2_from_pairs", pairs, variables=False)
    return Report(kind=kind, d=d, n=cfg.n, estimates=estimates,
                  variance_of_estimator=variance, ci_low=low, ci_high=high,
                  sigma2_estimate=sigma2, sigma2_from_pairs=from_pairs,
                  eval_count=evals, seed=cfg.seed)


def _walk(f: ModelFunction, fx: np.ndarray, fy: np.ndarray, z: np.ndarray, y: np.ndarray,
          perms: np.ndarray, g: np.ndarray):
    """Walk each row of z towards the same row of y in place, swapping at
    step s the coordinate perms[:, s], and credit each step's increment to
    the variable it swaps.

    fx and fy are f at the walks' two ends. Each step but the last evaluates
    f at the walks' new points; the last step ends at y and takes fy, so z
    is not moved there. Returns g, the chunk's (count, d + 1) term block:
    column j receives variable j's increments and column d 0.5 * (fx - fy)^2.
    """
    z_flat, y_flat, g_flat = _flat(z), _flat(y), _flat(g)
    count, d = perms.shape
    rows = np.arange(count)
    fprev = fx
    for step in range(d):
        idx = perms[:, step] * count
        idx += rows
        if step == d - 1:
            fz = fy
        else:
            z_flat[idx] = y_flat[idx]
            fz = f.evaluate_batch(z)
        g_flat[idx] = (fx - 0.5 * (fprev + fz)) * (fprev - fz)
        fprev = fz
    g[:, d] = 0.5 * (fx - fy) ** 2
    return g


def _shapley(f: ModelFunction, space: InputSpace, count: int, gen: np.random.Generator,
             ws: _Workspace):
    """The Shapley design: draw x, y and the permutations, evaluate f(x)
    and f(y), then walk each sample from x to y along its permutation."""
    x = space.sample(count, gen)
    y = space.sample(count, gen)
    perms = permutation_rows(gen, count, space.d)
    (g,) = ws.matrices(count, space.d + 1)
    fx = f.evaluate_batch(x)
    fy = f.evaluate_batch(y)
    # The walk moves x towards y in place; x is not read again.
    return _walk(f, fx, fy, x, y, perms, g)


def _pick_freeze(f: ModelFunction, space: InputSpace, count: int, gen: np.random.Generator,
                 ws: _Workspace, *, main: bool):
    """The main and total effects' design: draw x and y, then for each
    variable j evaluate a base draw with its column j taken from the other
    draw, and put the column back.

    Main's base is y and its term f(x) * (f(x_j, y_-j) - f(y)); total's base
    is x and its term 0.5 * (f(x) - f(y_j, x_-j))^2. Column j of terms holds
    base's column j while the swapped base is evaluated.
    """
    x = space.sample(count, gen)
    y = space.sample(count, gen)
    base, swap = (y, x) if main else (x, y)
    (terms,) = ws.matrices(count, space.d)
    fx = f.evaluate_batch(x)
    fy = f.evaluate_batch(y) if main else None
    for j in range(space.d):
        terms[:, j] = base[:, j]
        base[:, j] = swap[:, j]
        fw = f.evaluate_batch(base)
        base[:, j] = terms[:, j]
        terms[:, j] = fx * (fw - fy) if main else 0.5 * (fx - fw) ** 2
    return terms


def estimate_shapley_all(f: ModelFunction, space: InputSpace,
                         cfg: EstimatorConfig) -> Report:
    """Estimate all d Shapley effects simultaneously from N permutation walks.

    Costs exactly (d+1)N model evaluations. The report carries the unbiased
    per-variable variance estimates and ci_z-sigma confidence intervals.
    """
    return _report("shapley", f, space, cfg, _shapley)


def estimate_shapley_winding(f: ModelFunction, space: InputSpace,
                             cfg: EstimatorConfig) -> Report:
    """Winding-stairs Shapley estimator: pair consecutive points of one sequence.

    Reusing each walk's final value as the next pair's base value cuts the
    cost to d*N + 1 evaluations. The pairs overlap, so no unbiased variance
    estimate exists and the variance and CI fields are None. Each chunk
    walks on from the last point of the one before, so the chunks run as a
    `chain`, whatever cfg.workers. Chunk k draws from RngStream(seed, k):
    point 0 (chunk 0 only), then its points, then its permutations.
    """
    carry = None

    # One chunk of walks: f at the chunk's new points, then the walks from
    # each point to the next. The first chunk finds no carried point, so it
    # draws and evaluates point 0 first. The carried point is a copy, so the
    # chunk's draws are freed when it returns, before the next chunk draws
    # its own.
    def design(model, space, count, gen, ws):
        nonlocal carry
        if carry is None:
            point = space.sample(1, gen)
            carry = point[0], float(model.evaluate_batch(point)[0])
        base_pt, base_f = carry
        # Walk i runs from the chunk's point i to y[i], its point i + 1. The
        # permutations are drawn before the workspace is made, as in
        # `_shapley`, so on a thread's first chunk they too lie below it.
        y = space.sample(count, gen)
        perms = permutation_rows(gen, count, space.d)
        fy = model.evaluate_batch(y)
        z, g = ws.matrices(count, space.d, space.d + 1)
        z[0] = base_pt
        z[1:] = y[:-1]
        fx = np.concatenate(([base_f], fy[:-1]))
        carry = y[-1].copy(), float(fy[-1])
        return _walk(model, fx, fy, z, y, perms, g)

    return _report("shapley-winding", f, space, cfg, design, chain=True)


def estimate_main_effects(f: ModelFunction, space: InputSpace,
                          cfg: EstimatorConfig) -> Report:
    """Pick-freeze main effects: mean of f(x) * (f(x_j, y_-j) - f(y)) per j.

    Pairing the mu^2 correction f(x)f(y) with each sample keeps the whole
    estimator one sample mean, so the same per-term variance estimate applies.
    Costs (d+2)N evaluations.
    """
    return _report("main", f, space, cfg, functools.partial(_pick_freeze, main=True))


def estimate_total_effects(f: ModelFunction, space: InputSpace,
                           cfg: EstimatorConfig) -> Report:
    """Pick-freeze total effects: mean of 0.5 * (f(x) - f(y_j, x_-j))^2 per j.

    Costs (d+1)N evaluations; estimates are non-negative by construction.
    """
    return _report("total", f, space, cfg, functools.partial(_pick_freeze, main=False))
