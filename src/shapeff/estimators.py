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

Every estimator is a design run by one chunk loop, `_run_chunks`, and
reported by `_report`. The loop partitions the N samples into fixed-size
chunks and hands chunk k the RNG stream id k; the design draws the chunk's
points, evaluates them and fills one block of per-sample terms (the Shapley
walks put 0.5 * (f(x) - f(y))^2 in its column d), which the loop alone
reduces to moments and merges in ascending chunk order, so reports are
bitwise identical for any worker count. The calling thread runs chunks too,
with workers - 1 helper threads; each thread allocates one chunk-sized
workspace and reuses it for every chunk it runs, so memory per call does
not grow with N.

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
    ci_low and ci_high are None for shapley-winding: the per-sample iid
    variance formula does not hold for its overlapping walks. For the two
    Shapley kinds sigma2_estimate is the plain sum of the estimates and
    sigma2_from_pairs the mean of 0.5*(f(x)-f(y))^2 over the sample pairs,
    equal to it up to rounding by the per-sample telescoping identity; both
    are None for main and total. Estimates may be negative; they are never
    clamped.
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
        """Alias of estimates, kept only because perfbench's checks.py and
        workloads.py read it (a test pins it); ROADMAP item 7 deletes it."""
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
    page-faulting it back in on the next.
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


class _Stopped(Exception):
    """Raised by a chunk's model in place of a batch once a chunk before it
    has failed; the run raises that failure instead, never this."""


class _ChunkModel:
    """f as one chunk sees it: evaluate_batch passes each batch on to f and
    tallies its points, so a run counts its own evaluations even while other
    runs share f and its lifetime counter. Once stopped() is true it raises
    `_Stopped` instead, and f sees no further batch of the chunk."""

    def __init__(self, f: ModelFunction, stopped):
        self._f = f
        self._stopped = stopped
        self.points = 0

    def evaluate_batch(self, points: np.ndarray) -> np.ndarray:
        if self._stopped():
            raise _Stopped
        self.points += len(points)
        return self._f.evaluate_batch(points)


def _run_chunks(f: ModelFunction, space: InputSpace, cfg: EstimatorConfig, design,
                workers: int) -> tuple[int, _Moments]:
    """Run `design` on every chunk of cfg.n samples; return the run's
    evaluations and the moments of its term blocks, merged in ascending
    chunk order.

    Chunk k of count samples runs design(model, space, count, gen, ws): gen
    is RngStream(cfg.seed, k)'s generator, from which the design draws the
    chunk, model is f as the chunk's `_ChunkModel`, on which it evaluates
    it, and ws is the thread's `_Workspace`, from which it takes the
    matrices it writes. An EvaluationError there is raised again naming the
    chunk's samples. The design returns the chunk's term block, which
    `_chunk_moments` reduces.

    The caller and min(workers, chunks) - 1 helpers run one loop, each with
    its own `_Workspace(space.d, cfg.n)`: under the lock, take the next
    chunk while fewer than 2 * workers are taken and not merged, run it
    without the lock, count its evaluations and merge every result next in
    chunk order. numpy's overflow and invalid warnings are off on every
    thread, as `_report` checks every field.

    `stop` ends the run: it is the chunk count until a chunk's design or
    merge fails, and then the lowest such chunk. No chunk past it is taken,
    and a chunk past it that is running raises `_Stopped` at its next batch,
    before f sees it. A chunk before it runs to its end, since it may fail
    too. An exception that escapes the caller's loop, or a helper that
    cannot start, sets stop below every chunk. Once every started helper is
    joined, the run raises the lowest of its errors, which is never a
    `_Stopped`: every stopped chunk lies above a real failure.
    """
    cond = threading.Condition()
    done, errors = {}, {}
    evals, moments = 0, _Moments()
    taken = merged = 0
    stop = total = -(-cfg.n // _CHUNK)

    def work():
        nonlocal taken, merged, stop, evals
        ws = _Workspace(space.d, cfg.n)
        with cond, np.errstate(over="ignore", invalid="ignore"):
            while taken < stop:
                if taken - merged == 2 * workers:
                    cond.wait()
                    continue
                k = taken
                taken += 1
                cond.release()
                count = min(cfg.n - k * _CHUNK, _CHUNK)
                model, error = _ChunkModel(f, lambda k=k: k > stop), None
                try:
                    block = design(model, space, count, RngStream(cfg.seed, stream=k).generator(), ws)
                    result = _chunk_moments(block)
                except EvaluationError as exc:
                    error = EvaluationError(f"evaluation failed in samples "
                                            f"[{k * _CHUNK}, {k * _CHUNK + count}): {exc}")
                    error.__cause__ = exc
                except BaseException as exc:
                    error = exc
                cond.acquire()
                if error is None:
                    done[k] = result
                    evals += model.points
                else:
                    errors[k] = error
                # A merge that fails leaves its chunk popped and unmerged, so
                # no later chunk merges.
                while merged in done:
                    try:
                        moments.merge(*done.pop(merged))
                        merged += 1
                    except BaseException as exc:
                        errors[merged] = exc
                stop = min([stop, *errors])
                cond.notify_all()

    helpers = []
    try:
        for _ in range(min(workers, total) - 1):
            thread = threading.Thread(target=work)
            thread.start()
            helpers.append(thread)
        work()
    except BaseException as exc:
        with cond:
            errors[-1] = exc
            stop = -1
            cond.notify_all()
    for thread in helpers:
        thread.join()
    if errors:
        raise errors[min(errors)]
    return evals, moments


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


def _report(kind: str, f: ModelFunction, space: InputSpace, cfg: EstimatorConfig, design,
            chain: bool = False) -> Report:
    """Run `design` on every chunk of cfg.n samples through `_run_chunks`
    and build the report of `kind` from the merged moments of its term
    blocks.

    f.dim must equal space.d, or ParameterError is raised before any
    evaluation. Columns 0..d-1 of a design's term block give the estimates,
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
    evals, terms = _run_chunks(f, space, cfg, design, 1 if chain else cfg.workers)
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
    cost to d*N + 1 evaluations. The walks overlap, so the per-sample iid
    variance formula does not hold, and the variance and CI fields are None.
    Each chunk walks on from the last point of the one before, so the chunks
    run as a `chain`, whatever cfg.workers. Chunk k draws from
    RngStream(seed, k): point 0 (chunk 0 only), then its points, then its
    permutations.
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
