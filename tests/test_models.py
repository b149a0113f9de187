"""Tests for the model wrapper, builtin test functions, and external models."""

import dataclasses
import gc
import math
import re
import signal
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from shapeff import (EstimatorConfig, EvaluationError, ExternalModel,
                     LogNormal, ModelFunction, Normal, ParameterError,
                     RngStream, Uniform, constant_model,
                     estimate_main_effects, estimate_shapley_all,
                     estimate_shapley_winding, estimate_total_effects,
                     ishigami, ishigami_exact, ishigami_space,
                     plate_buckling, plate_buckling_space, sobol_g,
                     sobol_g_exact, sobol_g_space)
from shapeff import models

ECHO_FIRST = ("import sys\n"
              "for line in sys.stdin:\n"
              "    print(line.split()[0], flush=True)\n")

ISHIGAMI_CHILD = ("import sys, math\n"
                  "for line in sys.stdin:\n"
                  "    x = [float(v) for v in line.split()]\n"
                  "    y = (1 + 0.1 * x[2]**4) * math.sin(x[0]) + 7 * math.sin(x[1])**2\n"
                  "    print(repr(y), flush=True)\n")

# Fails on line 2 with 'nope'; answers '1.0' otherwise.
MALFORMED_AT_2 = ("import sys\n"
                  "n = 0\n"
                  "for line in sys.stdin:\n"
                  "    n += 1\n"
                  "    print('nope' if n == 2 else '1.0', flush=True)\n")


def test_ishigami_point_values():
    f = ishigami()
    assert f([math.pi / 2, 0.0, 0.0]) == pytest.approx(1.0, abs=1e-12)
    assert f([0.0, math.pi / 2, 5.0]) == pytest.approx(7.0, abs=1e-12)
    assert f([math.pi / 2, math.pi / 2, 1.0]) == pytest.approx(8.1, abs=1e-12)


def test_ishigami_range_bound():
    f = ishigami()
    space = ishigami_space()
    x = space.sample(5000, RngStream(3).generator())
    values = f.evaluate_batch(x)
    bound = 1.0 + 0.1 * math.pi ** 4
    assert np.all(values >= -bound - 1e-12)
    assert np.all(values <= bound + 7.0 + 1e-12)


def test_sobol_g_point_values():
    assert sobol_g([0.0])([0.0]) == pytest.approx(2.0, abs=1e-15)
    f = sobol_g([0.0, 1.0, 2.0, 3.0])
    assert f([0.25, 0.75, 0.25, 0.75]) == pytest.approx(1.0, abs=1e-15)
    g10 = sobol_g([float(j) for j in range(10)])
    assert g10([0.5] * 10) == 0.0


def test_sobol_g_nonnegative_and_validated():
    f = sobol_g([0.0, 1.0])
    x = sobol_g_space(2).sample(2000, RngStream(4).generator())
    assert np.all(f.evaluate_batch(x) >= 0)
    with pytest.raises(ParameterError):
        sobol_g([])
    with pytest.raises(ParameterError):
        sobol_g([-0.5])


@pytest.mark.parametrize("order", ["C", "F"])
def test_sobol_g_kernel_is_bitwise_the_column_product_loop(order):
    rng = np.random.default_rng(3)
    for d in (1, 2, 3, 10, 31):
        a = np.arange(d, dtype=float)
        x = np.asarray(rng.random((4097, d)), order=order)
        t = (np.abs(4.0 * x - 2.0) + a) / (1.0 + a)
        product = t[:, 0].copy()
        for j in range(1, d):
            product *= t[:, j]
        assert sobol_g(a).evaluate_batch(x).tobytes() == product.tobytes(), d


def test_plate_buckling_at_published_means():
    f = plate_buckling()
    x = [23.808, 0.525, 44.2, 28623.0, 0.35, 5.25]
    lam = (x[0] / x[1]) * math.sqrt(x[2] / x[3])
    assert lam == pytest.approx(1.7820388584027946, rel=1e-12)
    assert f(x) == pytest.approx(0.5864740143062183, rel=1e-12)


def test_plate_buckling_middle_factor_annihilates():
    f = plate_buckling()
    x = [23.808, 0.525, 44.2, 28623.0, 0.35, 5.25]
    lam = (x[0] / x[1]) * math.sqrt(x[2] / x[3])
    x5 = lam / 0.75
    assert f([x[0], x[1], x[2], x[3], x5, x[5]]) == pytest.approx(0.0, abs=1e-15)


def test_plate_buckling_scale_invariance_in_x3_x4():
    f = plate_buckling()
    x = [23.808, 0.525, 44.2, 28623.0, 0.35, 5.25]
    doubled = [x[0], x[1], 2 * x[2], 2 * x[3], x[4], x[5]]
    assert f(doubled) == pytest.approx(f(x), rel=1e-14)


def test_plate_buckling_rejects_nonpositive_core_inputs():
    f = plate_buckling()
    with pytest.raises(EvaluationError):
        f([-1.0, 0.525, 44.2, 28623.0, 0.35, 5.25])
    with pytest.raises(EvaluationError):
        f([23.808, 0.525, 0.0, 28623.0, 0.35, 5.25])


def test_plate_buckling_names_the_first_offending_point():
    good = [23.808, 0.525, 44.2, 28623.0, 0.35, 5.25]
    batch = np.array([good, good, [23.808, 0.525, 44.2, -1.0, 0.35, 5.25], good,
                      [0.0, 0.525, 44.2, 28623.0, 0.35, 5.25]])
    with pytest.raises(EvaluationError, match=r"offending point \[23\.808, 0\.525, 44\.2, -1\.0,"):
        plate_buckling().evaluate_batch(batch)


def test_plate_space_means_roughly_match_table():
    space = plate_buckling_space()
    x = space.sample(200000, RngStream(6).generator())
    means = x.mean(axis=0)
    targets = [23.808, 0.525, 44.2, 28623.0, 0.35, 5.25]
    for got, want in zip(means, targets):
        assert got == pytest.approx(want, rel=0.01)


def test_eval_count_tracks_calls_and_batches():
    f = ishigami()
    assert f.eval_count == 0
    f([1.0, 2.0, 3.0])
    assert f.eval_count == 1
    f.evaluate_batch(np.zeros((7, 3)))
    assert f.eval_count == 8
    f.reset_count()
    assert f.eval_count == 0


def test_eval_count_is_thread_safe():
    f = constant_model(1.0, 2)
    batch = np.zeros((100, 2))

    def work():
        for _ in range(50):
            f.evaluate_batch(batch)

    threads = [threading.Thread(target=work) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert f.eval_count == 8 * 50 * 100


@pytest.mark.parametrize("func, vectorized, counted, match", [
    (lambda X: 1.0, True, 0, r"returned shape \(\) for a batch of 4 points"),
    (lambda X: X[:, :1], True, 0, r"returned shape \(4, 1\) for a batch of 4 points"),
    (lambda X: np.array(["a"] * len(X)), True, 0, "returned a ndarray that is not an array"),
    (lambda x: "a", False, 0, "returned str at point 0 of the batch"),
    (lambda X: np.where(X[:, 0] > 0.5, np.inf, 1.0), True, 4, "non-finite value inf at row 2"),
], ids=["scalar", "column", "strings", "per-point-string", "inf"])
def test_only_a_batch_that_reaches_the_finiteness_check_is_counted(func, vectorized,
                                                                     counted, match):
    # A misshapen batch or one holding non-numbers raises before it is
    # counted; one holding a non-finite value is counted and then raises.
    f = ModelFunction(2, func, name="bad", vectorized=vectorized)
    with pytest.raises(EvaluationError, match=match):
        f.evaluate_batch(np.array([[0.1, 0.0], [0.2, 0.0], [0.9, 0.0], [0.3, 0.0]]))
    assert f.eval_count == counted


def test_model_purity_and_shape_checks():
    f = ishigami()
    x = [0.3, -0.7, 2.0]
    assert f(x) == f(x)
    with pytest.raises(ParameterError):
        f([1.0, 2.0])
    with pytest.raises(ParameterError):
        f.evaluate_batch(np.zeros((4, 2)))
    with pytest.raises(ParameterError):
        ModelFunction(0, lambda x: 0.0)
    # An external model is checked the same way, before its process starts.
    with pytest.raises(ParameterError, match=r"external expects an \(n, 3\) batch"):
        ExternalModel(["true"], 3).evaluate_batch(np.zeros((4, 2)))
    with pytest.raises(ParameterError, match="dim must be >= 1, got 0"):
        ExternalModel(["true"], 0)


@pytest.mark.parametrize("command, match", [
    ("python3", "must be a list of arguments, not the string 'python3'"),
    (b"python3", "must be a list of arguments, not the string b'python3'"),
    ([], "must be non-empty"),
    ([1, 2], r"must be str, bytes or os.PathLike, got 1"),
    (["python3", None], r"must be str, bytes or os.PathLike, got None"),
    *((command, "^external model command must be a list of arguments, not "
       + re.escape(repr(command)) + "$") for command in (True, None, 5, 3.5, {"a": 1})),
], ids=["str", "bytes", "empty", "int", "none", "true", "none-command", "int-command",
        "float-command", "dict-command"])
def test_external_model_command_must_be_a_non_empty_list(command, match):
    with pytest.raises(ParameterError, match=match):
        ExternalModel(command, 1)


@pytest.mark.parametrize("sequence", [list, tuple])
def test_external_model_command_may_hold_paths_and_bytes(sequence):
    with ExternalModel(sequence([Path(sys.executable), b"-c", ECHO_FIRST]), 2) as ext:
        assert ext.evaluate_batch(np.array([[0.25, 9.0]])).tolist() == [0.25]


def test_nonvectorized_wrapper_batches_by_looping():
    f = ModelFunction(2, lambda x: float(x[0] - x[1]), name="diff")
    out = f.evaluate_batch(np.array([[3.0, 1.0], [5.0, 9.0]]))
    assert out.tolist() == [2.0, -4.0]
    assert f.eval_count == 2


def test_external_model_echoes_first_coordinate():
    with ExternalModel([sys.executable, "-c", ECHO_FIRST], dim=2) as ext:
        assert ext.evaluate([0.3, 0.9]) == pytest.approx(0.3, abs=1e-15)
        assert ext.evaluate([0.7, 0.1]) == pytest.approx(0.7, abs=1e-15)


def test_external_model_constant_process():
    code = "import sys\nfor _ in sys.stdin:\n    print(2.5, flush=True)\n"
    f = ExternalModel([sys.executable, "-c", code], dim=3)
    assert isinstance(f, ModelFunction)
    assert f.as_model() is f
    assert f([1.0, 2.0, 3.0]) == 2.5
    assert f.evaluate([1.0, 2.0, 3.0]) == 2.5
    assert f.evaluate_batch(np.zeros((4, 3))).tolist() == [2.5] * 4
    assert f.eval_count == 6
    f.close()


def test_dropped_external_model_ends_its_process():
    # Dropping the last reference closes the process at once, with no
    # garbage collection in between.
    f = ExternalModel([sys.executable, "-c", ECHO_FIRST], dim=2)
    assert f([0.25, 0.5]) == 0.25
    proc = f._child.proc
    gc.disable()
    try:
        del f
        assert proc.returncode == 0
    finally:
        gc.enable()


def test_external_model_matches_builtin_ishigami():
    f = ExternalModel([sys.executable, "-c", ISHIGAMI_CHILD], dim=3)
    assert f([math.pi / 2, math.pi / 2, 1.0]) == pytest.approx(8.1, rel=1e-12)
    assert f([0.4, -1.2, 2.2]) == pytest.approx(ishigami()([0.4, -1.2, 2.2]), rel=1e-12)


def test_external_model_malformed_reply_carries_line_number():
    with ExternalModel([sys.executable, "-c", MALFORMED_AT_2], dim=1) as ext:
        ext.evaluate([0.5])
        with pytest.raises(EvaluationError) as err:
            ext.evaluate([0.5])
    assert "line 2" in str(err.value)


def test_external_model_non_text_reply_is_malformed():
    code = ("import sys\n"
            "sys.stdin.readline()\n"
            "sys.stdout.buffer.write(b'\\xff\\xfe\\n')\n"
            "sys.stdout.flush()\n"
            "sys.stdin.readline()\n")
    with ExternalModel([sys.executable, "-c", code], dim=1) as ext:
        with pytest.raises(EvaluationError, match="malformed reply at line 1"):
            ext.evaluate([0.5])


def test_external_model_process_exit_is_reported():
    code = "import sys\nsys.stdin.readline()\nsys.exit(4)\n"
    with ExternalModel([sys.executable, "-c", code], dim=1) as ext:
        with pytest.raises(EvaluationError):
            ext.evaluate([0.5])


def run_with_timeout(call, seconds=60):
    """Run ``call`` in a daemon thread; fail if it has not returned in time."""
    outcome = []
    caller = threading.Thread(target=lambda: outcome.append(call()), daemon=True)
    caller.start()
    caller.join(timeout=seconds)
    assert not caller.is_alive(), f"still running after {seconds} s"
    return outcome[0]


def test_external_model_request_text_is_the_line_protocol(tmp_path):
    # The process sees format(v, ".17g") per value, one line per point, in
    # order, across slices and across batches, for models of 1 to 3 inputs.
    # Every special value appears in every column.
    for dim in (1, 2, 3):
        log = tmp_path / f"requests-{dim}.txt"
        code = ("import sys\n"
                f"with open({str(log)!r}, 'w') as log:\n"
                "    for line in sys.stdin:\n"
                "        log.write(line)\n"
                "        print(0.0, flush=True)\n")
        special = np.resize([0.0, -0.0, 0.1, 1e-310, 5e-324, 1.7976931348623157e308,
                             -math.pi, 1.0 / 3.0], (8, dim))
        points = np.vstack([special, RngStream(9).generator().normal(size=(1000, dim))])
        with ExternalModel([sys.executable, "-c", code], dim=dim) as ext:
            assert ext.evaluate_batch(points).tolist() == [0.0] * len(points)
            ext.evaluate(points[0])
        expected = ["".join(" ".join(format(v, ".17g") for v in row) + "\n"
                            for row in points)]
        expected.append(" ".join(format(v, ".17g") for v in points[0]) + "\n")
        assert log.read_text() == "".join(expected)


def test_external_model_failed_batch_leaves_nothing_behind():
    # The batch is far larger than the pipes hold, so most of it is unsent
    # when the malformed reply to line 2 arrives.
    with ExternalModel([sys.executable, "-c", MALFORMED_AT_2], dim=8) as ext:
        old = ext._child
        with pytest.raises(EvaluationError, match="line 2: 'nope'"):
            ext.evaluate_batch(np.full((20000, 8), 0.5))
        assert old.proc.returncode is not None
        assert not old._drain.is_alive()
        assert ext.evaluate(np.zeros(8)) == 1.0
        assert ext._child is not old


def test_external_model_failed_batch_through_a_wrapper_does_not_hang(tmp_path):
    # The shell does not exec the simulator, so killing the shell leaves the
    # simulator running with both pipes open; the failed batch must still end.
    script = tmp_path / "malformed.py"
    script.write_text(MALFORMED_AT_2)
    command = ["sh", "-c", '"$0" "$1"; exit 0', sys.executable, str(script)]

    def call():
        with ExternalModel(command, dim=8) as ext:
            old = ext._child
            with pytest.raises(EvaluationError, match="line 2: 'nope'"):
                ext.evaluate_batch(np.full((20000, 8), 0.5))
            assert old.proc.returncode is not None
            return ext.evaluate(np.zeros(8))

    assert run_with_timeout(call) == 1.0


def test_external_model_exit_mid_batch_quotes_exit_code_and_stderr():
    code = ("import sys\n"
            "for _ in range(2):\n"
            "    sys.stdin.readline()\n"
            "    print(1.0, flush=True)\n"
            "sys.stderr.write('x' * 10000 + 'simulator gave up\\n')\n"
            "sys.exit(4)\n")
    with ExternalModel([sys.executable, "-c", code], dim=3) as ext:
        old = ext._child.proc
        with pytest.raises(EvaluationError) as err:
            ext.evaluate_batch(np.zeros((5000, 3)))
    message = str(err.value)
    assert "no reply for line 3" in message
    assert "exited with code 4" in message
    assert "simulator gave up" in message
    assert len(message) < 4096 + 200
    assert old.returncode == 4


def test_external_model_that_closes_its_input_mid_batch_is_reported():
    # The child reads one line and exits. A slice of 200-value lines is more
    # than a pipe holds, so the write meets the closed pipe; the report still
    # names the first line left unanswered.
    code = ("import os, sys\n"
            "sys.stdin.readline()\n"
            "print(1.0, flush=True)\n"
            "os.close(0)\n"
            "sys.exit(5)\n")

    def call():
        with ExternalModel([sys.executable, "-c", code], dim=200) as ext:
            with pytest.raises(EvaluationError) as err:
                ext.evaluate_batch(np.zeros((2000, 200)))
        return str(err.value)

    message = run_with_timeout(call)
    assert "no reply for line 2" in message
    assert "exited with code 5" in message


def test_closing_a_child_that_ignores_eof_kills_and_reaps_it(monkeypatch):
    # The child never reads its input, so closing it does not end it; close()
    # must kill it once the grace period is over, and must not hang.
    monkeypatch.setattr(models, "_EXIT_GRACE", 0.5)
    child = models._Child([sys.executable, "-c", "import time; time.sleep(30)"])
    start = time.monotonic()
    run_with_timeout(child.close, seconds=10)
    assert time.monotonic() - start < 10
    assert child.proc.returncode == -signal.SIGKILL


def test_a_child_that_closes_its_output_but_runs_on_is_killed_and_reaped():
    # The reply pipe reaches EOF while the process still runs, so the error
    # has no exit note; the failed batch then kills and reaps the process.
    code = "import os, time\nos.close(1)\ntime.sleep(30)\n"

    def call():
        ext = ExternalModel([sys.executable, "-c", code], dim=1)
        child = ext._ensure_started()
        with pytest.raises(EvaluationError) as err:
            ext.evaluate_batch(np.zeros((1, 1)))
        return ext, child, str(err.value)

    ext, child, message = run_with_timeout(call)
    assert message == "external model produced no reply for line 1"
    assert ext._child is None
    assert child.proc.returncode == -signal.SIGKILL


def test_external_model_serves_concurrent_batches_in_order():
    # More threads than cores, switching often: every caller must get the
    # replies to its own requests, in its own order.
    results = {}

    def work(k):
        points = np.column_stack([k * 1000.0 + np.arange(600.0), np.zeros(600)])
        results[k] = ext.evaluate_batch(points).tolist() == points[:, 0].tolist()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ExternalModel([sys.executable, "-c", ECHO_FIRST], dim=2) as ext:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert results == {k: True for k in range(8)}


def report_bits(report):
    """Every field of a report, floats as their exact hex form."""
    def bits(value):
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, tuple):
            return tuple(bits(v) for v in value)
        return value
    return {k: bits(v) for k, v in dataclasses.asdict(report).items()}


GOLDEN_N = 4100   # one full 4096-sample chunk and a short tail chunk


GOLDEN_RUNS = {
    "shapley": (estimate_shapley_all, lambda d, n: (d + 1) * n),
    "main": (estimate_main_effects, lambda d, n: (d + 2) * n),
    "total": (estimate_total_effects, lambda d, n: (d + 1) * n),
    "winding": (estimate_shapley_winding, lambda d, n: d * n + 1),
}


@pytest.mark.parametrize("kind, workers", [
    ("shapley", 1), ("shapley", 2), ("main", 1), ("main", 2),
    ("total", 1), ("total", 2), ("winding", 1)])
def test_external_batches_match_the_per_point_view(kind, workers):
    estimator, cost = GOLDEN_RUNS[kind]
    cfg = EstimatorConfig(n=GOLDEN_N, seed=20, workers=workers)
    space = ishigami_space()
    with ExternalModel([sys.executable, "-c", ISHIGAMI_CHILD], dim=3) as ext:
        batched = estimator(ext.as_model(), space, cfg)
        per_point = estimator(ModelFunction(ext.dim, ext.evaluate), space, cfg)
    assert report_bits(batched) == report_bits(per_point)
    assert batched.eval_count == cost(3, GOLDEN_N)


def test_constant_model_value():
    f = constant_model(-3.25, 4)
    assert f([0.0, 1.0, 2.0, 3.0]) == -3.25


@pytest.mark.parametrize("make", [
    lambda: ModelFunction(2.5, lambda X: X[:, 0], vectorized=True),
    lambda: ModelFunction(True, lambda X: X[:, 0], vectorized=True),
    lambda: ModelFunction(np.float64(2.0), lambda X: X[:, 0], vectorized=True),
    lambda: ExternalModel(["true"], 3.7),
    lambda: constant_model(1.0, 2.9),
    lambda: sobol_g_space(2.0),
], ids=["model-float", "model-bool", "model-numpy-float", "external-float",
        "constant-float", "sobol-g-space-float"])
def test_model_dimensions_must_be_integers(make):
    with pytest.raises(ParameterError, match="must be an integer"):
        make()


@pytest.mark.parametrize("make", [
    lambda: Uniform("0", "1"),
    lambda: Uniform(0.0, None),
    lambda: Normal(True, 1.0),
    lambda: Normal.from_cv(1.0, "0.1"),
    lambda: LogNormal("1", 0.1),
    lambda: constant_model("2", 2),
    lambda: constant_model(None, 2),
    lambda: ishigami(a="7"),
    lambda: ishigami(b=True),
    lambda: ishigami_exact(a="7"),
    lambda: sobol_g(["x"]),
    lambda: sobol_g([1.0, True]),
    lambda: sobol_g([None, 1.0]),
    lambda: sobol_g_exact(["1"]),
], ids=["uniform-str", "uniform-none", "normal-bool", "normal-cv-str", "lognormal-str",
        "constant-str", "constant-none", "ishigami-str", "ishigami-bool",
        "ishigami-exact-str", "sobol-g-str", "sobol-g-bool", "sobol-g-none",
        "sobol-g-exact-str"])
def test_non_numeric_parameters_raise_parameter_error(make):
    with pytest.raises(ParameterError, match="must be a number"):
        make()



HUGE = 10 ** 400


@pytest.mark.parametrize("make", [
    lambda: Uniform(0, HUGE),
    lambda: Normal(HUGE, 1.0),
    lambda: Normal.from_cv(1.0, HUGE),
    lambda: LogNormal(HUGE, 0.1),
    lambda: constant_model(HUGE, 2),
    lambda: ishigami(a=HUGE),
    lambda: ishigami_exact(b=HUGE),
    lambda: sobol_g([1.0, HUGE]),
    lambda: sobol_g_exact([HUGE]),
    lambda: EstimatorConfig(n=16, seed=0, ci_z=HUGE),
], ids=["uniform", "normal", "normal-cv", "lognormal", "constant", "ishigami",
        "ishigami-exact", "sobol-g", "sobol-g-exact", "ci-z"])
def test_integers_too_large_for_a_float_raise_parameter_error(make):
    with pytest.raises(ParameterError, match="is too large for a float"):
        make()
