"""Bitwise goldens for the in-process path and for the command line.

``golden_inproc.json`` holds, as ``float.hex``, the reports of every estimator
on Sobol' g (d=10, a = 0..9) and on the plate at N = 4100 (one full chunk and a
short tail chunk), the winding reports, cyclic and not, at the edge sizes
N = 2 and N = 4097 (whose last chunk holds a single walk), an Ishigami-space
sample, and the Sobol' g and plate kernels on a fixed 4100-row batch. Any change to the sampling grid, the
quantile transforms, the permutation walks, the moment reduction or the
kernels' arithmetic shows here as a changed bit; a change that means to alter
outputs must re-record the file and bump ``__version__``.

``golden_cli.json`` holds the exit code, stdout and stderr of a fixed matrix
of CLI invocations: ``analyze`` for every builtin model, estimator and
format, ``exact`` for every builtin name and an unknown one, an unknown model
in ``analyze``, and ``convergence`` on Ishigami and the plate. The run time
is the one value that differs between runs, so ``elapsed_seconds`` is cut out
(the JSON key and the CSV line) before the comparison.

Re-record both files with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from shapeff import (EstimatorConfig, RngStream, estimate_main_effects,
                     estimate_shapley_all, estimate_shapley_winding,
                     estimate_total_effects, ishigami_space, plate_buckling,
                     plate_buckling_space, sobol_g, sobol_g_space)
from shapeff.cli import main
from test_models import GOLDEN_N, report_bits

HERE = Path(__file__).parent

SEED = 4100
MODELS = {
    "sobol-g": (lambda: sobol_g([float(j) for j in range(10)]), lambda: sobol_g_space(10)),
    "plate": (plate_buckling, plate_buckling_space),
}
ESTIMATORS = {
    "shapley": estimate_shapley_all,
    "main": estimate_main_effects,
    "total": estimate_total_effects,
}


WINDING_KINDS = ["winding", "winding-cyclic"]
WINDING_EDGE_NS = [2, 4097]


def run_report(model: str, kind: str, workers: int = 1, n: int = GOLDEN_N) -> dict:
    make_f, make_space = MODELS[model]
    cfg = EstimatorConfig(n=n, seed=SEED, workers=workers)
    if kind.startswith("winding"):
        report = estimate_shapley_winding(make_f(), make_space(), cfg,
                                          cyclic=kind == "winding-cyclic")
    else:
        report = ESTIMATORS[kind](make_f(), make_space(), cfg)
    return json.loads(json.dumps(report_bits(report)))


def hex_rows(matrix) -> list:
    return [[v.hex() for v in row] for row in matrix.tolist()]


def ishigami_sample() -> list:
    return hex_rows(ishigami_space().sample(1024, RngStream(SEED, stream=3).generator()))


def kernel_values(model: str) -> list:
    make_f, make_space = MODELS[model]
    batch = make_space().sample(GOLDEN_N, RngStream(SEED, stream=5).generator())
    return [v.hex() for v in make_f().evaluate_batch(batch).tolist()]


def golden_outputs() -> dict:
    return {
        "reports": {model: {kind: run_report(model, kind)
                            for kind in [*ESTIMATORS, *WINDING_KINDS]}
                    for model in MODELS},
        "ishigami_sample": ishigami_sample(),
        "kernels": {model: kernel_values(model) for model in MODELS},
        "winding_edges": {model: {f"{kind}-{n}": run_report(model, kind, n=n)
                                  for kind in WINDING_KINDS for n in WINDING_EDGE_NS}
                          for model in MODELS},
    }


BUILTINS = ["ishigami", "sobol-g", "plate-buckling", "constant"]
CLI_CASES = {
    **{f"analyze-{model}-{estimator}-{fmt}": [
        "analyze", "--model", model, "--estimator", estimator, "--format", fmt,
        "--n", "300", "--seed", "5"]
       for model in BUILTINS
       for estimator in ["shapley", "shapley-winding", "main", "total"]
       for fmt in ["json", "csv"]},
    **{f"exact-{model}-json": ["exact", "--model", model] for model in [*BUILTINS, "nope"]},
    **{f"exact-{model}-csv": ["exact", "--model", model, "--format", "csv"]
       for model in ["ishigami", "sobol-g"]},
    "analyze-nope": ["analyze", "--model", "nope", "--n", "300"],
    **{f"convergence-{model}-{fmt}": [
        "convergence", "--model", model, "--ns", "64,128", "--trials", "3",
        "--format", fmt]
       for model in ["ishigami", "plate-buckling"] for fmt in ["json", "csv"]},
}
_ELAPSED = re.compile(r',\n  "elapsed_seconds": [^\n]*|#elapsed_seconds,[^\n]*\n')


def cli_output(argv: list) -> dict:
    """Exit code, stdout and stderr of one CLI run, with elapsed_seconds cut."""
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    return {"code": code, "stdout": _ELAPSED.sub("", out.getvalue()),
            "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads((HERE / "golden_inproc.json").read_text())


@pytest.fixture(scope="module")
def golden_cli() -> dict:
    return json.loads((HERE / "golden_cli.json").read_text())


@pytest.mark.parametrize("model", list(MODELS))
@pytest.mark.parametrize("kind, workers", [
    (kind, workers) for kind in ESTIMATORS for workers in (1, 2)])
def test_report_matches_its_golden(golden, model, kind, workers):
    assert run_report(model, kind, workers) == golden["reports"][model][kind]


@pytest.mark.parametrize("model", list(MODELS))
@pytest.mark.parametrize("kind", WINDING_KINDS)
def test_winding_report_matches_its_golden(golden, model, kind):
    assert run_report(model, kind) == golden["reports"][model][kind]


@pytest.mark.parametrize("model", list(MODELS))
@pytest.mark.parametrize("kind", WINDING_KINDS)
@pytest.mark.parametrize("n", WINDING_EDGE_NS)
def test_winding_edge_report_matches_its_golden(golden, model, kind, n):
    assert run_report(model, kind, n=n) == golden["winding_edges"][model][f"{kind}-{n}"]


def test_ishigami_sample_matches_its_golden(golden):
    assert ishigami_sample() == golden["ishigami_sample"]


@pytest.mark.parametrize("model", list(MODELS))
def test_kernel_matches_its_golden(golden, model):
    assert kernel_values(model) == golden["kernels"][model]


@pytest.mark.parametrize("case", list(CLI_CASES))
def test_cli_output_matches_its_golden(golden_cli, case):
    assert cli_output(CLI_CASES[case]) == golden_cli[case]


if __name__ == "__main__":
    (HERE / "golden_inproc.json").write_text(json.dumps(golden_outputs(), indent=1) + "\n")
    (HERE / "golden_cli.json").write_text(json.dumps(
        {case: cli_output(argv) for case, argv in CLI_CASES.items()}, indent=1) + "\n")
