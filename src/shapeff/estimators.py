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
reports are bitwise identical for any worker count. The calling thread runs
chunks too, with workers - 1 helper threads; each thread allocates one
chunk-sized workspace and reuses it for every chunk it runs, so memory per
call does not grow with N.

Every chunk matrix is column-major: the sampled points, winding's walk
points and the per-sample terms. Models read contiguous columns, and a walk
step moves one coordinate of every sample through a single flat index,
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
    """One thread's chunk buffers, reused for every chunk the thread
    runs: `matrices` column-major float matrices of min(n, 4096) rows by d,
    one for the per-sample terms and, for winding, one for the walk points.

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

    def matrices(self, count: int) -> list[np.ndarray]:
        """The column-major (count, d) float matrices."""
        if self._buffers is None:
            self._buffers = [np.empty(self._size) for _ in range(self._count)]
        return [_columns(b, count, self._d) for b in self._buffers]


def _run_chunks(task, n: int, workers: int, d: int, matrices: int):
    """Yield task(chunk, ws) for every chunk, in ascending chunk order.

    The caller and min(workers, chunks) - 1 helper threads take chunks in
    ascending order, at most 2 * workers not yet yielded; the caller runs one
    whenever the next result is not ready. Each thread makes one
    `_Workspace(d, n, matrices)` for all its chunks. Tasks run with numpy's
    overflow and invalid warnings off on every thread (threads do not inherit
    np.errstate), as `_report` checks what they return.
    The first failure in chunk order is raised (an EvaluationError names its
    samples). After it, or once the consumer stops, no chunk is taken, and
    every helper is joined before this returns or raises."""
    total = -(-n // _CHUNK)
    cond = threading.Condition()
    done = {}
    taken = head = 0

    def step(ws):
        # With cond held: run the next chunk without cond, or return False
        # if none may be taken. What a chunk raises, interrupts included, the
        # caller raises; a failure or a stop sets taken to total.
        nonlocal taken
        if taken == total or taken - head == 2 * workers:
            return False
        k, start = taken, taken * _CHUNK
        taken += 1
        cond.release()
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                result = task((k, start, min(n - start, _CHUNK)), ws), None
        except BaseException as exc:
            result = None, exc
        cond.acquire()
        done[k] = result
        if result[1] is not None:
            taken = total
        cond.notify_all()
        return True

    def helper():
        ws = _Workspace(d, n, matrices)
        with cond:
            while taken < total:
                if not step(ws):
                    cond.wait()

    helpers = [threading.Thread(target=helper) for _ in range(min(workers, total) - 1)]
    for thread in helpers:
        thread.start()
    ws = _Workspace(d, n, matrices)
    try:
        for head in range(total):
            with cond:
                cond.notify_all()
                while head not in done:
                    if not step(ws):
                        cond.wait()
                value, error = done.pop(head)
            if isinstance(error, EvaluationError):
                start = head * _CHUNK
                raise EvaluationError(f"evaluation failed in samples "
                                      f"[{start}, {min(start + _CHUNK, n)}): {error}") from error
            if error is not None:
                raise error
            yield value
    finally:
        with cond:
            taken = total
            cond.notify_all()
        for thread in helpers:
            thread.join()


def _require_match(f: ModelFunction, space: InputSpace) -> None:
    if f.dim != space.d:
        raise ParameterError(
            f"model dimension {f.dim} does not match input space dimension {space.d}")


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


def _report(kind: str, f: ModelFunction, cfg: EstimatorConfig, d: int, task,
            workers: int, matrices: int) -> Report:
    """Run task(model, chunk, ws) on every chunk of cfg.n samples through
    `_run_chunks`, with workspaces of `matrices` matrices, merge the
    per-chunk moments in chunk order as they arrive and build the report of
    `kind`. Each task is given f as a `_ChunkModel`, and the report's
    evaluation count is the sum of their tallies.

    Each part holds a chunk's term moments and, for the Shapley walks, the
    moments of its per-sample 0.5 * (f(x) - f(y))^2, or None. Winding's
    samples overlap, so its report carries no variance or CI. Finite model
    values can still overflow in the merge or the CI, so numpy's warnings
    are off there and every field is checked instead.
    """
    def counted(chunk, ws):
        model = _ChunkModel(f)
        parts = task(model, chunk, ws)
        return model.points, parts

    evals = 0
    terms, pairs = _Moments(d), _Moments(1)
    for points, (term_part, pair_part) in _run_chunks(counted, cfg.n, workers, d, matrices):
        evals += points
        with np.errstate(over="ignore", invalid="ignore"):
            terms.merge(*term_part)
            if pair_part is not None:
                pairs.merge(*pair_part)
    estimates = _finite(kind, "estimates", terms.mean)
    variance = low = high = sigma2 = from_pairs = None
    if kind != "shapley-winding":
        with np.errstate(over="ignore", invalid="ignore"):
            var = terms.m2 / (cfg.n * (cfg.n - 1))
            half = cfg.ci_z * np.sqrt(var)
            variance, low, high = (_finite(kind, name, v) for name, v in zip(
                ("variance_of_estimator", "ci_low", "ci_high"),
                (var, terms.mean - half, terms.mean + half)))
    if pairs.count:
        # The exact sum of finite estimates is finite, or fsum raises.
        sigma2 = math.fsum(estimates)
        (from_pairs,) = _finite(kind, "sigma2_from_pairs", pairs.mean, variables=False)
    return Report(kind=kind, d=d, n=cfg.n, estimates=estimates,
                  variance_of_estimator=variance, ci_low=low, ci_high=high,
                  sigma2_estimate=sigma2, sigma2_from_pairs=from_pairs,
                  eval_count=evals, seed=cfg.seed)


def _sampled(kind: str, f: ModelFunction, space: InputSpace, cfg: EstimatorConfig,
             design) -> Report:
    """Run `design` on every chunk of cfg.n samples and report the merged moments.

    Chunk k draws from RngStream(seed, k): x, then y, then what the design
    draws itself. design(model, x, y, gen, ws) evaluates the chunk on the
    `_ChunkModel` it is given and returns its part for `_report`; ws is the
    thread's workspace of one column-major matrix, for the terms.
    """
    _require_match(f, space)

    def task(model, chunk, ws):
        k, _, count = chunk
        gen = RngStream(cfg.seed, stream=k).generator()
        x = space.sample(count, gen)
        y = space.sample(count, gen)
        return design(model, x, y, gen, ws)

    return _report(kind, f, cfg, space.d, task, cfg.workers, 1)


def _walk(f: ModelFunction, fx: np.ndarray, fy: np.ndarray, z: np.ndarray, y: np.ndarray,
          perms: np.ndarray, g: np.ndarray):
    """Walk each row of z towards the same row of y in place, swapping at
    step s the coordinate perms[:, s], and credit each step's increment to
    the variable it swaps.

    fx and fy are f at the walks' two ends. Each step but the last evaluates
    f at the walks' new points; the last step ends at y and takes fy, so z
    is not moved there. Returns the chunk's part for `_report`; g receives
    the increments.
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
    pairs = 0.5 * (fx - fy) ** 2
    # The walk is done, so z is free to hold the squared deviations.
    return _chunk_moments(g, z), _chunk_moments(pairs[:, None], z)


def _shapley(f: ModelFunction, x: np.ndarray, y: np.ndarray, gen: np.random.Generator,
             ws: _Workspace):
    """The Shapley design: f(x), f(y), then walk each sample from x to y
    along a random permutation."""
    count, d = x.shape
    perms = permutation_rows(gen, count, d)
    (g,) = ws.matrices(count)
    fx = f.evaluate_batch(x)
    fy = f.evaluate_batch(y)
    # The walk moves x towards y in place; x is not read again.
    return _walk(f, fx, fy, x, y, perms, g)


def _pick_freeze(f: ModelFunction, x: np.ndarray, y: np.ndarray, gen: np.random.Generator,
                 ws: _Workspace, *, main: bool):
    """The main and total effects' design: for each variable j, evaluate a
    base draw with its column j taken from the other draw, then put the
    column back.

    Main's base is y and its term f(x) * (f(x_j, y_-j) - f(y)); total's base
    is x and its term 0.5 * (f(x) - f(y_j, x_-j))^2. Column j of terms holds
    base's column j while the swapped base is evaluated.
    """
    count, d = x.shape
    base, swap = (y, x) if main else (x, y)
    (terms,) = ws.matrices(count)
    fx = f.evaluate_batch(x)
    fy = f.evaluate_batch(y) if main else None
    for j in range(d):
        terms[:, j] = base[:, j]
        base[:, j] = swap[:, j]
        fw = f.evaluate_batch(base)
        base[:, j] = terms[:, j]
        terms[:, j] = fx * (fw - fy) if main else 0.5 * (fx - fw) ** 2
    return _chunk_moments(terms, base), None


def estimate_shapley_all(f: ModelFunction, space: InputSpace,
                         cfg: EstimatorConfig) -> Report:
    """Estimate all d Shapley effects simultaneously from N permutation walks.

    Costs exactly (d+1)N model evaluations. The report carries the unbiased
    per-variable variance estimates and ci_z-sigma confidence intervals.
    """
    return _sampled("shapley", f, space, cfg, _shapley)


def estimate_shapley_winding(f: ModelFunction, space: InputSpace,
                             cfg: EstimatorConfig) -> Report:
    """Winding-stairs Shapley estimator: pair consecutive points of one sequence.

    Reusing each walk's final value as the next pair's base value cuts the
    cost to d*N + 1 evaluations. The pairs overlap, so no unbiased variance
    estimate exists and the variance and CI fields are None. The chunks run
    in order, each walking on from the last point of the one before, so
    cfg.workers is ignored. Chunk k draws from RngStream(seed, k): point 0
    (chunk 0 only), then its points, then its permutations.
    """
    _require_match(f, space)
    d = space.d
    carry = None

    # One chunk of walks: f at the chunk's new points, then the walks from
    # each point to the next. Chunk 0 draws and evaluates point 0 first. The
    # carried point is a copy, so the chunk's draws are freed when it
    # returns, before the next chunk draws its own.
    def task(model, chunk, ws):
        nonlocal carry
        k, start, count = chunk
        gen = RngStream(cfg.seed, stream=k).generator()
        if k == 0:
            point = space.sample(1, gen)
            carry = point[0], float(model.evaluate_batch(point)[0])
        base_pt, base_f = carry
        # Walk i runs from point start + i to y[i], point start + i + 1. The
        # permutations are drawn before the workspace is made, as in
        # `_shapley`, so on a thread's first chunk they too lie below it.
        y = space.sample(count, gen)
        perms = permutation_rows(gen, count, d)
        fy = model.evaluate_batch(y)
        z, g = ws.matrices(count)
        z[0] = base_pt
        z[1:] = y[:-1]
        fx = np.concatenate(([base_f], fy[:-1]))
        carry = y[-1].copy(), float(fy[-1])
        return _walk(model, fx, fy, z, y, perms, g)

    return _report("shapley-winding", f, cfg, d, task, 1, 2)


def estimate_main_effects(f: ModelFunction, space: InputSpace,
                          cfg: EstimatorConfig) -> Report:
    """Pick-freeze main effects: mean of f(x) * (f(x_j, y_-j) - f(y)) per j.

    Pairing the mu^2 correction f(x)f(y) with each sample keeps the whole
    estimator one sample mean, so the same per-term variance estimate applies.
    Costs (d+2)N evaluations.
    """
    return _sampled("main", f, space, cfg, functools.partial(_pick_freeze, main=True))


def estimate_total_effects(f: ModelFunction, space: InputSpace,
                           cfg: EstimatorConfig) -> Report:
    """Pick-freeze total effects: mean of 0.5 * (f(x) - f(y_j, x_-j))^2 per j.

    Costs (d+1)N evaluations; estimates are non-negative by construction.
    """
    return _sampled("total", f, space, cfg, functools.partial(_pick_freeze, main=False))
