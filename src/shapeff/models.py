"""Functions under analysis.

:class:`ModelFunction` wraps any scalar-valued function of a d-vector with a
thread-safe evaluation counter, so the estimators' cost contracts can be
checked for builtin and user-supplied models alike. Builtin test functions
carry vectorized implementations and canonical input spaces; external
simulators are driven over a line-based stdin/stdout protocol.
"""

from __future__ import annotations

import math
import subprocess
import threading
from typing import Callable, Sequence

import numpy as np

from .errors import EvaluationError, ParameterError, require_integer
from .inputs import InputSpace, LogNormal, Normal, Uniform


class ModelFunction:
    """A pure function f: R^d -> R with an evaluation counter.

    ``vectorized=True`` means ``func`` maps an (n, d) array to an (n,) array;
    otherwise it maps a single d-vector to a float and batches are looped.
    The counter increments by the number of points evaluated and uses a lock,
    so concurrent evaluation from several threads stays consistent.
    """

    def __init__(self, dim: int, func: Callable, *, name: str = "model",
                 vectorized: bool = False):
        dim = require_integer("model dimension", dim)
        if dim < 1:
            raise ParameterError(f"model dimension must be >= 1, got {dim}")
        self.dim = dim
        self.name = name
        self._func = func
        self._vectorized = vectorized
        self._count = 0
        self._lock = threading.Lock()

    @property
    def eval_count(self) -> int:
        return self._count

    def reset_count(self) -> None:
        with self._lock:
            self._count = 0

    def __call__(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ParameterError(
                f"{self.name} expects a vector of length {self.dim}, got shape {x.shape}")
        if self._vectorized:
            value = float(np.asarray(self._func(x[None, :]))[0])
        else:
            value = float(self._func(x))
        with self._lock:
            self._count += 1
        return value

    def evaluate_batch(self, points: np.ndarray) -> np.ndarray:
        """Evaluate f at every row of an (n, d) array; counts n evaluations."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.dim:
            raise ParameterError(
                f"{self.name} expects an (n, {self.dim}) batch, got shape {points.shape}")
        if self._vectorized:
            values = np.asarray(self._func(points), dtype=float)
        else:
            values = np.array([float(self._func(row)) for row in points])
        with self._lock:
            self._count += points.shape[0]
        return values

    def __repr__(self) -> str:
        return f"ModelFunction({self.name!r}, dim={self.dim}, eval_count={self._count})"


def ishigami(a: float = 7.0, b: float = 0.1) -> ModelFunction:
    """Three-variable benchmark (1 + b*x3^4) sin(x1) + a sin(x2)^2."""
    if not (a > 0 and b > 0):
        raise ParameterError(f"ishigami needs a > 0 and b > 0, got a={a}, b={b}")

    def f(X):
        return (1.0 + b * X[:, 2] ** 4) * np.sin(X[:, 0]) + a * np.sin(X[:, 1]) ** 2

    return ModelFunction(3, f, name="ishigami", vectorized=True)


def ishigami_space() -> InputSpace:
    return InputSpace([Uniform(-math.pi, math.pi)] * 3)


def sobol_g(a: Sequence[float]) -> ModelFunction:
    """Product benchmark prod_j (|4x_j - 2| + a_j) / (1 + a_j) on [0, 1]^d."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise ParameterError("sobol_g needs a non-empty 1-d weight vector")
    if np.any(a < 0):
        raise ParameterError("sobol_g weights must be non-negative")

    scale = 1.0 + a

    def f(X):
        # One working matrix, updated in place; multiplying its columns left to
        # right gives the same bits as np.prod(..., axis=1), in less time.
        t = 4.0 * X
        t -= 2.0
        np.abs(t, out=t)
        t += a
        t /= scale
        out = t[:, 0].copy()
        for j in range(1, t.shape[1]):
            out *= t[:, j]
        return out

    return ModelFunction(a.size, f, name="sobol-g", vectorized=True)


def sobol_g_space(d: int) -> InputSpace:
    return InputSpace([Uniform(0.0, 1.0)] * require_integer("dimension", d))


def plate_buckling() -> ModelFunction:
    """Buckling strength of a uniaxially compressed rectangular plate.

    Six inputs: width, thickness, yield stress, elastic modulus, initial
    deflection, residual stress. The first four must be positive for the
    slenderness lambda = (x1/x2) sqrt(x3/x4) to be real; non-positive draws
    raise instead of propagating NaN.
    """

    def f(X):
        if (X[:, :4] <= 0).any():
            i = int(np.argmax((X[:, :4] <= 0).any(axis=1)))
            raise EvaluationError(
                f"plate-buckling needs positive x1..x4; offending point {X[i].tolist()}")
        lam = (X[:, 0] / X[:, 1]) * np.sqrt(X[:, 2] / X[:, 3])
        return ((2.1 / lam - 0.9 / lam ** 2)
                * (1.0 - 0.75 * X[:, 4] / lam)
                * (1.0 - 2.0 * X[:, 1] * X[:, 5] / X[:, 0]))

    return ModelFunction(6, f, name="plate-buckling", vectorized=True)


def plate_buckling_space() -> InputSpace:
    """The published input model for the plate: means and CVs per variable."""
    return InputSpace([
        Normal.from_cv(23.808, 0.028),      # width
        LogNormal(0.525, 0.044),            # thickness
        LogNormal(44.2, 0.1235),            # yield stress
        Normal.from_cv(28623.0, 0.076),     # elastic modulus
        Normal.from_cv(0.35, 0.05),         # initial deflection
        Normal.from_cv(5.25, 0.07),         # residual stress
    ])


def constant_model(value: float, dim: int) -> ModelFunction:
    """f(x) = value for every x; all sensitivity indices are exactly zero."""
    value = float(value)

    def f(X):
        return np.full(X.shape[0], value)

    return ModelFunction(dim, f, name="constant", vectorized=True)


# Request lines per write. The next slice is written before the replies to the
# current one are read, so at most two slices of short replies (about 13 KB)
# ever wait in the reply pipe, well under the 64 KiB a pipe holds by default:
# the child never blocks on a reply while this process blocks on a request.
# A batch's payload is formatted a slice at a time, so it never sits whole in
# memory.
_SLICE = 256
# Bytes of the child's stderr kept for error messages.
_STDERR_TAIL = 4096


def _request_lines(points: np.ndarray) -> bytes:
    """One line per row, each value as format(v, ".17g"), space-separated."""
    row = " ".join(["%.17g"] * points.shape[1]) + "\n"
    return "".join(row % tuple(values) for values in points.tolist()).encode("ascii")


class _Child:
    """One running external process, its request line count, and its stderr tail.

    A daemon thread reads the child's stderr as it arrives and keeps the last
    ``_STDERR_TAIL`` bytes, so a chatty child never blocks on a full pipe.
    """

    def __init__(self, command: list[str]):
        try:
            self.proc = subprocess.Popen(
                command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
            )
        except OSError as exc:
            raise EvaluationError(f"cannot start external model {command}: {exc}")
        self.lines = 0
        self._tail = b""
        self._drain = threading.Thread(target=self._drain_stderr, daemon=True,
                                       name="external-model-stderr")
        self._drain.start()

    def _drain_stderr(self) -> None:
        with self.proc.stderr as err:
            while chunk := err.read1(_STDERR_TAIL):
                self._tail = (self._tail + chunk)[-_STDERR_TAIL:]

    def exchange(self, points: np.ndarray) -> np.ndarray:
        """Send one request line per row of ``points``; read the replies in order.

        Slice i + 1 is written before the replies to slice i are read, so the
        child has input to work on while this process reads.
        """
        n = points.shape[0]
        values = np.empty(n)
        sending = self._send(points[:_SLICE])
        for start in range(0, n, _SLICE):
            if sending:
                sending = self._send(points[start + _SLICE:start + 2 * _SLICE])
            self._receive(values[start:start + _SLICE], self.lines + start)
        self.lines += n
        return values

    def _send(self, points: np.ndarray) -> bool:
        """Write the request lines; False once the child has closed its input."""
        try:
            self.proc.stdin.write(_request_lines(points))
            self.proc.stdin.flush()
        except BrokenPipeError:
            # The replies the child did send are still read; the first missing
            # one is reported with the exit note.
            return False
        return True

    def _receive(self, values: np.ndarray, lines_before: int) -> None:
        stdout = self.proc.stdout
        for i in range(values.shape[0]):
            line_no = lines_before + i + 1
            reply = stdout.readline()
            if not reply:
                raise EvaluationError(
                    f"external model produced no reply for line {line_no}{self.exit_note()}")
            try:
                values[i] = float(reply)
            except ValueError:
                text = reply.strip().decode(errors="replace")
                raise EvaluationError(
                    f"external model sent a malformed reply at line {line_no}: {text!r}")

    def exit_note(self) -> str:
        """' (process exited with code c; stderr: ...)' once the process has ended."""
        try:
            code = self.proc.wait(timeout=1)
        except subprocess.TimeoutExpired:
            return ""
        self._drain.join(timeout=1)
        note = f" (process exited with code {code}"
        err = self._tail.decode(errors="replace").strip()
        if err:
            note += f"; stderr: {err}"
        return note + ")"

    def close(self) -> None:
        """Close the child's stdin and reap it; kill it if it does not exit within 5 s."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._drain.join(timeout=1)

    def kill(self) -> None:
        """End the child at once and reap it, after a failed batch.

        Closing the pipes also ends a process the command started in its turn
        (a wrapper script that does not exec), which holds them open: it sees
        EOF on its input and a broken pipe on its output.
        """
        self.proc.kill()
        self.close()


class ExternalModel:
    """Adapter for a black-box simulator speaking the line protocol.

    Each request is one line of d space-separated decimal floats; the process
    must answer one decimal float per line, in order. EOF on its stdin tells
    the process to finish. A batch goes out in one pipelined exchange, with up
    to 512 lines in flight, so the process must answer each line as it reads
    it. One batch is served at a time, so the wrapped model is safe to
    call from several threads. A failed batch ends the process; the next call
    starts a fresh one, whose line numbers start again at 1.
    """

    def __init__(self, command: Sequence[str], dim: int):
        dim = require_integer("external model dimension", dim)
        if dim < 1:
            raise ParameterError(f"external model dimension must be >= 1, got {dim}")
        self.command = list(command)
        if not self.command:
            raise ParameterError("external model command must be non-empty")
        self.dim = dim
        self._child: _Child | None = None
        self._lock = threading.Lock()

    def _ensure_started(self) -> _Child:
        if self._child is None:
            self._child = _Child(self.command)
        return self._child

    def evaluate_batch(self, points) -> np.ndarray:
        """Evaluate every row of an (n, d) array in one exchange with the process."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.dim:
            raise ParameterError(
                f"external model expects an (n, {self.dim}) batch, got shape {points.shape}")
        with self._lock:
            child = self._ensure_started()
            try:
                return child.exchange(points)
            except BaseException:
                # A half-consumed pipe must never serve the next call.
                self._child = None
                child.kill()
                raise

    def evaluate(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ParameterError(
                f"external model expects a vector of length {self.dim}, got shape {x.shape}")
        return float(self.evaluate_batch(x[None, :])[0])

    def close(self) -> None:
        child, self._child = self._child, None
        if child is not None:
            child.close()

    def as_model(self) -> ModelFunction:
        return ModelFunction(self.dim, self.evaluate_batch, name="external", vectorized=True)

    def __enter__(self) -> "ExternalModel":
        self._ensure_started()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass


def external_model(command: Sequence[str], dim: int) -> ModelFunction:
    """Wrap an external simulator; the subprocess lives as long as the adapter.

    Use :class:`ExternalModel` directly when you need explicit lifecycle
    control (it is a context manager).
    """
    return ExternalModel(command, dim).as_model()
