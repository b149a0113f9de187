"""Bitwise goldens for the in-process path: sampling, builtin kernels, estimators.

``golden_inproc.json`` holds, as ``float.hex``, the reports of every estimator
on Sobol' g (d=10, a = 0..9) and on the plate at N = 4100 (one full chunk and a
short tail chunk), an Ishigami-space sample, and the Sobol' g and plate
kernels on a fixed 4100-row batch. Any change to the sampling grid, the
quantile transforms, the permutation walks, the moment reduction or the
kernels' arithmetic shows here as a changed bit; a change that means to alter
outputs must re-record the file and bump ``__version__``.

Re-record with ``PYTHONPATH=src python tests/test_golden.py > tests/golden_inproc.json``.
"""

import json
from pathlib import Path

import pytest

from shapeff import (EstimatorConfig, RngStream, estimate_main_effects,
                     estimate_shapley_all, estimate_shapley_winding,
                     estimate_total_effects, ishigami_space, plate_buckling,
                     plate_buckling_space, sobol_g, sobol_g_space)
from test_models import GOLDEN_N, report_bits

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


def run_report(model: str, kind: str, workers: int = 1) -> dict:
    make_f, make_space = MODELS[model]
    cfg = EstimatorConfig(n=GOLDEN_N, seed=SEED, workers=workers)
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
                            for kind in [*ESTIMATORS, "winding", "winding-cyclic"]}
                    for model in MODELS},
        "ishigami_sample": ishigami_sample(),
        "kernels": {model: kernel_values(model) for model in MODELS},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(Path(__file__).with_name("golden_inproc.json").read_text())


@pytest.mark.parametrize("model", list(MODELS))
@pytest.mark.parametrize("kind, workers", [
    (kind, workers) for kind in ESTIMATORS for workers in (1, 2)])
def test_report_matches_its_golden(golden, model, kind, workers):
    assert run_report(model, kind, workers) == golden["reports"][model][kind]


@pytest.mark.parametrize("model", list(MODELS))
@pytest.mark.parametrize("kind", ["winding", "winding-cyclic"])
def test_winding_report_matches_its_golden(golden, model, kind):
    assert run_report(model, kind) == golden["reports"][model][kind]


def test_ishigami_sample_matches_its_golden(golden):
    assert ishigami_sample() == golden["ishigami_sample"]


@pytest.mark.parametrize("model", list(MODELS))
def test_kernel_matches_its_golden(golden, model):
    assert kernel_values(model) == golden["kernels"][model]


if __name__ == "__main__":
    print(json.dumps(golden_outputs(), indent=1))
