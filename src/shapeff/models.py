"""Functions under analysis.

:class:`ModelFunction` wraps any scalar-valued function of a d-vector with a
thread-safe evaluation counter, so the estimators' cost contracts can be
checked for builtin and user-supplied models alike. Builtin test functions
carry vectorized implementations; :data:`BUILTINS` holds, for each under its
config name, the factory, the config keys with their defaults, and the
default inputs as distribution specs. An external simulator, driven over a
line-based stdin/stdout protocol, is a ModelFunction too.
"""

from __future__ import annotations

import math
import os
import threading
import time
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (ConfigError, EvaluationError, ParameterError, _check_os_string,
                     require_finite, require_integer, require_real)
from .inputs import InputSpace


class ModelFunction:
    """A pure function f: R^d -> R with an evaluation counter.

    ``vectorized=True`` means ``func`` maps an (n, d) array to an (n,) array;
    otherwise it maps a single d-vector to a float and batches are looped.
    The counter increments by the number of points evaluated and uses a lock,
    so concurrent evaluation from several threads stays consistent.
    """

    def __init__(self, dim: int, func: Callable, *, name: str = "model",
                 vectorized: bool = False):
        dim = require_integer("dim", dim)
        if dim < 1:
            raise ParameterError(f"dim must be >= 1, got {dim}")
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
        return float(self.evaluate_batch(x[None, :])[0])

    def evaluate_batch(self, points: np.ndarray) -> np.ndarray:
        """Evaluate f at every row of an (n, d) array; counts n evaluations.

        Returns an (n,) array of finite floats of its own; EvaluationError if
        f gives any other shape or values that are not numbers, before the
        batch is counted, or a NaN or infinite value, after it is. This is
        the one place that checks what a model returns, for the estimators,
        the oracle and every other caller.
        """
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.dim:
            raise ParameterError(
                f"{self.name} expects an (n, {self.dim}) batch, got shape {points.shape}")
        if self._vectorized:
            values = self._evaluate(points)
            try:
                values = np.asarray(values, dtype=float)
            except (TypeError, ValueError, OverflowError) as exc:
                raise EvaluationError(f"{self.name} returned a {type(values).__name__} that "
                                      f"is not an array of numbers") from exc
        else:
            values = np.array([self._number(self._func(row), i)
                               for i, row in enumerate(points)])
        if values.shape != points.shape[:1]:
            raise EvaluationError(
                f"{self.name} returned shape {values.shape} for a batch of "
                f"{points.shape[0]} points; expected ({points.shape[0]},)")
        if np.may_share_memory(values, points):
            # A model may return a view of its input, such as a column; the
            # estimators overwrite their points in place, so keep values of
            # their own.
            values = values.copy()
        with self._lock:
            self._count += points.shape[0]
        if not np.isfinite(values).all():
            i = int(np.argmin(np.isfinite(values)))
            raise EvaluationError(
                f"{self.name} returned a non-finite value {float(values[i])} at row {i} "
                f"of the batch: x = {points[i].tolist()}")
        return values

    def _evaluate(self, points: np.ndarray) -> np.ndarray:
        """A vectorized model's raw values at every row of an (n, d) array."""
        return self._func(points)

    def _number(self, value, i: int) -> float:
        """A per-point function's value at point i of a batch, as a float."""
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError) as exc:
            shape = getattr(value, "shape", None)
            what = type(value).__name__ + ("" if shape is None else f" of shape {shape}")
            raise EvaluationError(
                f"{self.name} returned {what} at point {i} of the batch; "
                f"expected a number") from exc

    def __repr__(self) -> str:
        return f"ModelFunction({self.name!r}, dim={self.dim}, eval_count={self._count})"


def _check_ishigami(a: float, b: float) -> tuple[float, float]:
    """a and b as floats; ParameterError unless they are finite and > 0."""
    a, b = require_real("ishigami a", a), require_real("ishigami b", b)
    if not (0 < a < math.inf and 0 < b < math.inf):
        raise ParameterError(f"ishigami needs finite a > 0 and b > 0, got a={a}, b={b}")
    return a, b


def ishigami(a: float = 7.0, b: float = 0.1) -> ModelFunction:
    """Three-variable benchmark (1 + b*x3^4) sin(x1) + a sin(x2)^2."""
    a, b = _check_ishigami(a, b)

    def f(X):
        return (1.0 + b * X[:, 2] ** 4) * np.sin(X[:, 0]) + a * np.sin(X[:, 1]) ** 2

    return ModelFunction(3, f, name="ishigami", vectorized=True)


def ishigami_space() -> InputSpace:
    return InputSpace.from_specs(BUILTINS["ishigami"].inputs(3))


def _sobol_g_weights(a: Sequence[float]) -> np.ndarray:
    """a as a float vector; ParameterError unless it is a non-empty 1-d
    sequence of finite, non-negative real numbers."""
    a = np.asarray(a, dtype=object)
    if a.ndim != 1 or a.size == 0:
        raise ParameterError("sobol_g needs a non-empty 1-d weight vector")
    a = np.array([require_real("sobol_g weight", v) for v in a])
    if not np.all((a >= 0) & (a < math.inf)):
        raise ParameterError("sobol_g weights must be finite and non-negative")
    return a


def sobol_g(a: Sequence[float]) -> ModelFunction:
    """Product benchmark prod_j (|4x_j - 2| + a_j) / (1 + a_j) on [0, 1]^d."""
    a = _sobol_g_weights(a)
    scale = 1.0 + a

    def f(X):
        # One working matrix, updated in place.
        t = 4.0 * X
        t -= 2.0
        np.abs(t, out=t)
        t += a
        t /= scale
        return np.prod(t, axis=1)

    return ModelFunction(a.size, f, name="sobol-g", vectorized=True)


def sobol_g_space(d: int) -> InputSpace:
    return InputSpace.from_specs(BUILTINS["sobol-g"].inputs(require_integer("dimension", d)))


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
    return InputSpace.from_specs(BUILTINS["plate-buckling"].inputs(6))


def constant_model(value: float, dim: int) -> ModelFunction:
    """f(x) = value for every x; all sensitivity indices are exactly zero."""
    value = require_finite("constant model value", value)

    def f(X):
        return np.full(X.shape[0], value)

    return ModelFunction(dim, f, name="constant", vectorized=True)


def _numeric_keys(cfg: dict, keys: dict) -> dict:
    """Each key of a model config as an integer where its default is one and
    as a float otherwise, or its default where the config omits it. The
    factory checks the values."""
    return {key: default if key not in cfg
            else require_integer(key, cfg[key]) if isinstance(default, int)
            else require_real(key, cfg[key])
            for key, default in keys.items()}


def _sobol_g_keys(cfg: dict, keys: dict) -> dict:
    """The weights from a model config's `a` list, or a = 0, 1, ..., d-1."""
    a, d = cfg.get("a"), cfg.get("d")
    if d is not None:
        d = require_integer("d", d)
        if d < 1:
            raise ParameterError(f"d must be >= 1, got {d}")
    if a is None:
        return {"a": [float(j) for j in range(keys["d"] if d is None else d)]}
    if not isinstance(a, list):
        raise ConfigError(f"model.a must be a list of numbers, got {a!r}")
    a = _sobol_g_weights(a).tolist()
    if d is not None and d != len(a):
        raise ConfigError(f"model.d = {d} contradicts len(model.a) = {len(a)}")
    return {"a": a}


def _plate_inputs(d: int) -> list[dict]:
    """The published input model for the plate (d = 6): mean and CV per variable."""
    return [
        {"kind": "normal", "mean": 23.808, "cv": 0.028},     # width
        {"kind": "lognormal", "mean": 0.525, "cv": 0.044},   # thickness
        {"kind": "lognormal", "mean": 44.2, "cv": 0.1235},   # yield stress
        {"kind": "normal", "mean": 28623.0, "cv": 0.076},    # elastic modulus
        {"kind": "normal", "mean": 0.35, "cv": 0.05},        # initial deflection
        {"kind": "normal", "mean": 5.25, "cv": 0.07},        # residual stress
    ]


class _Builtin(NamedTuple):
    """A builtin model as configs name it."""

    factory: Callable[..., ModelFunction]
    # Config key -> default (None: no default of its own).
    keys: dict
    # Default distribution specs for a model of dimension d.
    inputs: Callable[[int], list[dict]]
    # (model config, keys) -> the factory's keyword arguments.
    read: Callable[[dict, dict], dict] = _numeric_keys


BUILTINS = {
    "ishigami": _Builtin(ishigami, {"a": 7.0, "b": 0.1},
                         lambda d: [{"kind": "uniform", "lo": -math.pi, "hi": math.pi}] * d),
    "sobol-g": _Builtin(sobol_g, {"a": None, "d": 10},
                        lambda d: [{"kind": "uniform", "lo": 0.0, "hi": 1.0}] * d,
                        _sobol_g_keys),
    "plate-buckling": _Builtin(plate_buckling, {}, _plate_inputs),
    "constant": _Builtin(constant_model, {"value": 1.0, "dim": 3},
                         lambda d: [{"kind": "uniform", "lo": 0.0, "hi": 1.0}] * d),
}


# Request lines formatted at a time: a batch's payload never sits whole in memory.
_SLICE = 256
# Bytes of the child's stderr kept for error messages; no reply line is longer.
_STDERR_TAIL = 4096
# Seconds a child has to exit once its stdin is closed before close() kills it.
_EXIT_GRACE = 5
_SURPLUS = "external model sent more replies than requests"


def _request_lines(points: np.ndarray) -> bytes:
    """One line per row, each value as format(v, ".17g"), space-separated;
    one % over the row-major values formats the whole slice."""
    row = " ".join(["%.17g"] * points.shape[1]) + "\n"
    return ((row * len(points)) % tuple(points.ravel().tolist())).encode("ascii")


class _Child:
    """One running external process, its request line count, and its stderr tail.

    All pipe I/O goes through :meth:`_pump`, one poll over the three
    non-blocking pipes, so neither process blocks on a full pipe while the
    other waits. A batch of n requests takes exactly n replies: no reply is
    carried from one batch to the next.
    """

    def __init__(self, command: list[str]):
        # subprocess and select are imported where they are used, so that a
        # run without an external model never loads them.
        import select
        import subprocess
        try:
            self.proc = proc = subprocess.Popen(
                command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
            )
        except OSError as exc:
            raise EvaluationError(f"cannot start external model {command}: {exc}")
        self.lines = 0
        self._tail = b""
        self._pipes = {p.fileno(): p for p in (proc.stdin, proc.stdout, proc.stderr)}
        for fd in self._pipes:
            os.set_blocking(fd, False)
        self._poll = select.poll()
        self._poll.register(proc.stdout, select.POLLIN)
        self._poll.register(proc.stderr, select.POLLIN)
        # Request bytes unwritten, slices unformatted, reply lines unread, the
        # bytes after the last newline, and whether a reply followed the last batch.
        self._pending, self._requests = memoryview(b""), iter(())
        self._replies, self._partial, self._surplus = [], b"", False

    def _pump(self, timeout: float | None) -> bool:
        """Wait up to ``timeout`` s (None: no limit) for a pipe to be ready;
        write what stdin takes, read what stdout and stderr hold, and close
        either at EOF. True if a pipe was ready."""
        events = self._poll.poll(None if timeout is None else timeout * 1000)
        for fd, _ in events:
            pipe = self._pipes[fd]
            if pipe is self.proc.stdin:
                try:
                    self._pending = (self._pending[os.write(fd, self._pending):]
                                     or memoryview(next(self._requests, b"")))
                except BlockingIOError:
                    pass
                except BrokenPipeError:
                    # Its replies are still read, up to the first missing one.
                    self._pending = memoryview(b"")
                if not self._pending:
                    self._poll.unregister(fd)
                continue
            chunk = os.read(fd, 1 << 16)
            if pipe is self.proc.stderr:
                self._tail = (self._tail + chunk)[-_STDERR_TAIL:]
            elif chunk or self._partial:
                # At EOF, a last line without a newline is a reply too.
                *lines, self._partial = (self._partial + (chunk or b"\n")).split(b"\n")
                self._replies += lines
            if not chunk:
                self._poll.unregister(fd)
                pipe.close()
        return bool(events)

    def exchange(self, points: np.ndarray) -> np.ndarray:
        """Send one request line per row of ``points``; read the replies in order."""
        import select
        n = points.shape[0]
        values = np.empty(n)
        self._requests = (_request_lines(points[s:s + _SLICE]) for s in range(0, n, _SLICE))
        self._pending = memoryview(next(self._requests, b""))
        if self._pending:
            self._poll.register(self.proc.stdin, select.POLLOUT)
        got = 0
        while True:
            # A partial line starts one more reply; no child answers a line unwritten.
            if got + len(self._replies) + bool(self._partial) > n:
                raise EvaluationError(_SURPLUS)
            for reply in self._replies:
                try:
                    values[got] = float(reply)
                except ValueError:
                    text = reply.strip().decode(errors="replace")
                    raise EvaluationError(f"external model sent a malformed reply at line "
                                          f"{self.lines + got + 1}: {text!r}")
                got += 1
            self._replies.clear()
            if len(self._partial) > _STDERR_TAIL:
                raise EvaluationError(f"external model sent a reply of over {_STDERR_TAIL} bytes "
                                      f"at line {self.lines + got + 1}")
            if got == n and not self._pending:
                self.lines += n
                return values
            if got < n and self.proc.stdout.closed:
                raise EvaluationError(f"external model produced no reply for line "
                                      f"{self.lines + got + 1}{self.exit_note()}")
            self._pump(None)

    def _wait(self, seconds: float) -> int | None:
        """Pump until the child ends or ``seconds`` pass; its exit code, or None.
        Replies are noted, not kept. Once the child has ended, only what the
        pipes hold is read, since a process it started may hold them open."""
        deadline = time.monotonic() + seconds
        while True:
            if self.proc.poll() is None:
                if (left := deadline - time.monotonic()) <= 0:
                    return None
                # Quiet pipes need not mean a running child: look every 50 ms.
                self._pump(min(left, 0.05))
            elif not self._pump(0):
                return self.proc.returncode
            self._surplus |= bool(self._replies)
            self._replies.clear()

    def exit_note(self) -> str:
        """' (process exited with code c; stderr: ...)' once the process has ended."""
        if (code := self._wait(1)) is None:
            return ""
        note = f" (process exited with code {code}"
        err = self._tail.decode(errors="replace").strip()
        if err:
            note += f"; stderr: {err}"
        return note + ")"

    def close(self, check: bool = True) -> None:
        """Close the child's stdin and reap it; kill it if it outlasts _EXIT_GRACE s.

        If ``check`` is true, a reply read after the last batch raises
        EvaluationError, even if the child was killed.
        """
        if self._pending:
            self._poll.unregister(self.proc.stdin)
        self.proc.stdin.close()
        if self._wait(_EXIT_GRACE) is None:
            self.proc.kill()
            self._wait(_EXIT_GRACE)
        self.proc.stdout.close()
        self.proc.stderr.close()
        if check and (self._surplus or self._partial):
            raise EvaluationError(_SURPLUS)

    def kill(self) -> None:
        """End the child at once and reap it, after a failed batch.

        Closing the pipes also ends a process the command started in its turn
        (a wrapper script that does not exec), which holds them open: it sees
        EOF on its input and a broken pipe on its output.
        """
        self.proc.kill()
        self.close(check=False)


class ExternalModel(ModelFunction):
    """A black-box simulator speaking the line protocol, as a ModelFunction.

    ``command`` is the program and its arguments, a non-empty list or tuple
    of str, bytes or os.PathLike that the operating system can take (no null
    character or lone surrogate); anything else raises ParameterError.
    Each request is one line of d space-separated decimal floats; the process
    must answer one decimal float per line, in order. EOF on its stdin tells
    the process to finish. The process starts on the first evaluation or on
    entering a ``with`` block. Requests go out as fast as it reads them, one
    256-line slice formatted at a time, so it must answer and flush each line
    as it reads it; its stderr is read in the same loop. One batch is served
    at a time, and close() waits for it, so the model is safe to call from
    several threads. A failed batch ends the process; the next call starts a
    fresh one, whose line numbers start again at 1. A reply beyond the
    requests raises EvaluationError, from the batch or, once the last batch
    is done, from close(), even if the process had to be killed.
    """

    def __init__(self, command: Sequence[str], dim: int):
        if not isinstance(command, (list, tuple)):
            what = "the string " if isinstance(command, (str, bytes)) else ""
            raise ParameterError(f"external model command must be a list of arguments, "
                                 f"not {what}{command!r}")
        self.command = list(command)
        if not self.command:
            raise ParameterError("external model command must be non-empty")
        for arg in self.command:
            if not isinstance(arg, (str, bytes, os.PathLike)):
                raise ParameterError(f"external model command arguments must be str, bytes "
                                     f"or os.PathLike, got {arg!r}")
            _check_os_string(arg, "external model command arguments", ParameterError)
        self._child: _Child | None = None
        self._serving = threading.Lock()
        super().__init__(dim, None, name="external", vectorized=True)

    def _ensure_started(self) -> _Child:
        if self._child is None:
            self._child = _Child(self.command)
        return self._child

    def _evaluate(self, points: np.ndarray) -> np.ndarray:
        """Evaluate every row of an (n, d) array in one exchange with the process."""
        with self._serving:
            child = self._ensure_started()
            try:
                return child.exchange(points)
            except BaseException:
                # A half-consumed pipe must never serve the next call.
                self._child = None
                child.kill()
                raise

    evaluate = ModelFunction.__call__  # for perfbench's tracer only; ROADMAP item 7 deletes it

    def close(self) -> None:
        with self._serving:
            child, self._child = self._child, None
            if child is not None:
                child.close()

    def as_model(self) -> "ExternalModel":
        return self  # only perfbench/workloads.py calls it; ROADMAP item 7 deletes it

    def __enter__(self) -> "ExternalModel":
        self._ensure_started()
        return self

    def __exit__(self, exc_type, *exc) -> None:
        """Close the process; a block that already failed keeps its own
        error instead of close()'s."""
        try:
            self.close()
        except EvaluationError:
            if exc_type is None:
                raise

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass
