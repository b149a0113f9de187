"""What the tier-1 test modules share; pytest collects no test from here.

It holds one checker per estimator contract, which returns the problems it
found, each a line of text: a unit test asserts that the list is empty, and
an acceptance criterion prints PASS or FAIL from the same call. The cost,
telescoping and worker checkers judge reports that a test has run, and each
*_contract_problems sweep runs them on the cases that the unit tests and the
acceptance criteria share; zero_problems runs its own cases.
"""

import dataclasses
import itertools
import os
import subprocess
import sys
import threading
from pathlib import Path
from typing import Callable, NamedTuple

import shapeff
from shapeff import (EstimatorConfig, InputSpace, ModelFunction, RngStream, Uniform,
                     constant_model, ishigami, ishigami_space, plate_buckling,
                     plate_buckling_space, sobol_g, sobol_g_space)
from shapeff.analysis import run_estimator

ECHO_FIRST = ("import sys\n"
              "for line in sys.stdin:\n"
              "    print(line.split()[0], flush=True)\n")

ISHIGAMI_CHILD = ("import sys, math\n"
                  "for line in sys.stdin:\n"
                  "    x = [float(v) for v in line.split()]\n"
                  "    y = (1 + 0.1 * x[2]**4) * math.sin(x[0]) + 7 * math.sin(x[1])**2\n"
                  "    print(repr(y), flush=True)\n")

# Answers 0.0 first and then each request one line late, so it never has
# more replies out than requests read; the last comes once its input ends.
ONE_LATE = ("import sys\n"
            "last = '0.0'\n"
            "for line in sys.stdin:\n"
            "    print(last, flush=True)\n"
            "    last = line.split()[0]\n"
            "print(last, flush=True)\n")

# Answers every request with 1000 replies, which overfill the reply pipe
# many times over; it stops reading its input while it waits to write them.
FLOOD = ("import sys\n"
         "for line in sys.stdin:\n"
         "    sys.stdout.write('1.0\\n' * 1000)\n"
         "    sys.stdout.flush()\n")

GOLDEN_N = 4100   # one full 4096-sample chunk and a short tail chunk


class Kind(NamedTuple):
    estimator: str                   # its name in ESTIMATOR_KINDS
    cost: Callable[[int, int], int]  # its model evaluations at (d, N)


# Every estimator kind once, keyed by its name in the goldens.
KIND_TABLE = {
    "shapley": Kind("shapley", lambda d, n: (d + 1) * n),
    "main": Kind("main", lambda d, n: (d + 2) * n),
    "total": Kind("total", lambda d, n: (d + 1) * n),
    "winding": Kind("shapley-winding", lambda d, n: d * n + 1),
}


def run_kind(kind, f, space, cfg):
    """The report of `kind`, a KIND_TABLE key, through the dispatch that the
    CLI and convergence_study use."""
    return run_estimator(KIND_TABLE[kind].estimator, f, space, cfg)


def report_bits(report):
    """Every field of a report, floats as their exact hex form."""
    def bits(value):
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, tuple):
            return tuple(bits(v) for v in value)
        return value
    return {k: bits(v) for k, v in dataclasses.asdict(report).items()}


def run_with_timeout(call, seconds=60):
    """Run ``call`` in a daemon thread; fail if it has not returned in time."""
    outcome = []
    caller = threading.Thread(target=lambda: outcome.append(call()), daemon=True)
    caller.start()
    caller.join(timeout=seconds)
    assert not caller.is_alive(), f"still running after {seconds} s"
    return outcome[0]


def run_python(*args, timeout=120):
    """``python *args`` in a new interpreter whose PYTHONPATH is led by the
    directory of the imported ``shapeff``, so that it imports the same one,
    with its output captured as text; fails after `timeout` seconds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(shapeff.__file__).parents[1]), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=timeout)


def unit_square(d: int) -> InputSpace:
    return InputSpace([Uniform(0, 1)] * d)


def coordinate_model(dim: int, index: int = 0) -> ModelFunction:
    return ModelFunction(dim, lambda x: x[:, index], name=f"x{index + 1}", vectorized=True)


def chunk_of_first_draws(space, seed, chunks, draws=1):
    """{value: k} for each chunk k < `chunks` of a run at `seed`: the value is
    x[0, 0] of each of the first `draws` samples of 4096 points that chunk k
    draws from RngStream(seed, k), so a batch that starts with it is chunk
    k's (its x, then its y)."""
    chunk_of = {}
    for k in range(chunks):
        gen = RngStream(seed, stream=k).generator()
        for _ in range(draws):
            chunk_of[space.sample(4096, gen)[0, 0]] = k
    return chunk_of


def cost_problems(report, *models):
    """How the run that gave `report` breaks its kind's cost contract: the
    report, and each of `models`, must count exactly cost(d, N) evaluations."""
    (cost,) = [kind.cost(report.d, report.n) for kind in KIND_TABLE.values()
               if kind.estimator == report.kind]
    return [f"{report.kind} at d={report.d}, N={report.n} counted {count} evaluations, "
            f"not {cost}" for count in [report.eval_count, *(f.eval_count for f in models)]
            if count != cost]


def telescoping_problems(report, rel=1e-10, atol=0.0):
    """How a Shapley report breaks the telescoping identity: sigma2_estimate,
    the sum of its estimates, must equal sigma2_from_pairs, the mean of each
    walk's 0.5 (f(x) - f(y))^2, within rel of it plus atol; so exactly where
    that mean is 0 and atol is 0."""
    total, pairs = report.sigma2_estimate, report.sigma2_from_pairs
    if abs(total - pairs) <= rel * abs(pairs) + atol:
        return []
    return [f"{report.kind} at d={report.d}, N={report.n}, seed {report.seed}: "
            f"sigma2_estimate {total!r}, sigma2_from_pairs {pairs!r}"]


def worker_problems(reports):
    """How reports of one run at several worker counts, {workers: report},
    differ from the first one: every field must be bitwise equal."""
    (first, report), *others = reports.items()
    base = report_bits(report)
    return [f"{other.kind} at N={other.n}: {name} at workers={workers} differs from "
            f"workers={first}" for workers, other in others
            for name, bits in report_bits(other).items() if bits != base[name]]


def cost_contract_problems(kinds):
    """cost_problems of each of `kinds` at N = 2 and 100, seed 1, on models
    of 1, 3 and 10 inputs, counted by the report and by the model."""
    cases = [(coordinate_model(1), unit_square(1)), (ishigami(), ishigami_space()),
             (sobol_g([float(j) for j in range(10)]), sobol_g_space(10))]
    problems = []
    for (f, space), kind, n in itertools.product(cases, kinds, (2, 100)):
        f.reset_count()
        problems += cost_problems(run_kind(kind, f, space, EstimatorConfig(n=n, seed=1)), f)
    return problems


def telescoping_contract_problems(kinds):
    """telescoping_problems of each of `kinds` at N = 2^10, seed 5, on every
    builtin model: Ishigami, Sobol' g of 3 and 10 inputs, the plate and a
    constant."""
    cases = [(ishigami(), ishigami_space()), (sobol_g([0.0, 1.0, 2.0]), sobol_g_space(3)),
             (sobol_g([float(j) for j in range(10)]), sobol_g_space(10)),
             (plate_buckling(), plate_buckling_space()), (constant_model(2.0, 3), unit_square(3))]
    return [problem for (f, space), kind in itertools.product(cases, kinds)
            for problem in telescoping_problems(
                run_kind(kind, f, space, EstimatorConfig(n=2 ** 10, seed=5)))]


# Models on [0, 1]^d, the variables each never reads, and its run's N and seed.
ZERO_CASES = {
    "constant": (lambda: constant_model(7.5, 4), [0, 1, 2, 3], 64, 0),
    "x1-of-2": (lambda: coordinate_model(2, 0), [1], 256, 3),
    "x2-of-3": (lambda: coordinate_model(3, 1), [0, 2], 256, 3),
}


def zero_problems(kinds, cases=tuple(ZERO_CASES)):
    """How runs of `kinds` on `cases`, ZERO_CASES keys, break exact zeros:
    each per-variable field of a variable the model never reads must be
    exactly 0, and so must sigma2_estimate and sigma2_from_pairs if it reads
    none."""
    problems = []
    for case, kind in itertools.product(cases, kinds):
        make, ignored, n, seed = ZERO_CASES[case]
        f = make()
        report = run_kind(kind, f, unit_square(f.dim), EstimatorConfig(n=n, seed=seed))
        fields = {name: value for name, value in dataclasses.asdict(report).items()
                  if value is not None}
        values = {f"{name}[{j}]": fields[name][j] for j in ignored for name in
                  ("estimates", "variance_of_estimator", "ci_low", "ci_high") if name in fields}
        if len(ignored) == f.dim:
            values |= {name: fields[name] for name in ("sigma2_estimate", "sigma2_from_pairs")
                       if name in fields}
        problems += [f"{kind} on {case}: {name} is {value!r}" for name, value in values.items()
                     if value != 0.0]
    return problems


def worker_contract_problems(kinds, ns=(3 * 4096 + 5, 3 * 4096 + 17), seed=9,
                             workers=(1, 2, 3, 4, 5)):
    """worker_problems of each of `kinds` on Ishigami at each of `ns`, run at
    each worker count in `workers`."""
    f, space = ishigami(), ishigami_space()
    return [problem for kind, n in itertools.product(kinds, ns)
            for problem in worker_problems({w: run_kind(kind, f, space, EstimatorConfig(
                n=n, seed=seed, workers=w)) for w in workers})]
