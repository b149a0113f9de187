"""Bitwise goldens for the in-process path and for the command line.

``golden_inproc.json`` holds, as ``float.hex``, the reports of every estimator
on Sobol' g (d=10, a = 0..9) and on the plate at N = 4100 (one full chunk and a
short tail chunk), the winding reports at the edge sizes N = 2 and N = 4097
(whose last chunk holds a single walk), an Ishigami-space sample, a short
plate-space sample (whose normal and lognormal columns pin numpy's ziggurat
draws), and the Sobol' g and plate kernels on a fixed 4100-row batch. Any
change to the order or kind of the draws, the marginals' maps, the
permutation walks, the moment reduction or the kernels' arithmetic shows
here as a changed bit; a change that means to alter outputs must re-record
the file and bump ``__version__``. Under ``external`` it holds the same
reports for Ishigami computed by a child process over the line protocol
(N = 4100, seed 20), and the convergence CSV lines of that model; the
child's command is built from ``sys.executable`` at run time.

``golden_cli.json`` holds the exit code, stdout and stderr of a fixed matrix
of CLI invocations: ``analyze`` for every builtin model, estimator and
format, ``exact`` for every builtin name and an unknown one, an unknown model
in ``analyze``, ``convergence`` on Ishigami and the plate, an empty
``--output``, a non-integer ``--ns``, the ``--cyclic`` flag that 0.4.0
removed, and the run-setting flags of ``convergence``. Its ``config-`` cases
run a subcommand with ``--config`` on a JSON payload written to a temporary
file: valid settings of every kind,
each setting with a wrong type or an out-of-range value, missing keys and
unknown keys (among them the ``cyclic`` key of configs before 0.4.0), a
payload that is not an object, an external command that cannot start, and
flags given after ``--config`` that override the file. The run time is the one
value that differs between runs, so ``elapsed_seconds`` is cut out (the JSON
key and the CSV line) before the comparison, and the temporary file's path
reads as ``CONFIG``. An argument that argparse refuses ends the run with
``SystemExit``, whose code is recorded; the terminal width is fixed at 80
columns so that argparse's usage text wraps the same everywhere. The file
holds exactly the listed cases.

Re-record both files with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from shapeff import (EstimatorConfig, ExternalModel, RngStream, convergence_csv_lines,
                     convergence_study, ishigami_exact, ishigami_space,
                     plate_buckling, plate_buckling_space, sobol_g, sobol_g_space)
from shapeff.cli import main
from support import GOLDEN_N, ISHIGAMI_CHILD, KIND_TABLE, report_bits, run_kind

HERE = Path(__file__).parent

SEED = 4100
MODELS = {
    "sobol-g": (lambda: sobol_g([float(j) for j in range(10)]), lambda: sobol_g_space(10)),
    "plate": (plate_buckling, plate_buckling_space),
}
# Winding runs its chunks in order on the calling thread, so its goldens are
# checked at one worker count only.
WINDING_KINDS = ["winding"]
PARALLEL_KINDS = [kind for kind in KIND_TABLE if kind not in WINDING_KINDS]
WINDING_EDGE_NS = [2, 4097]


def run_report(model: str, kind: str, workers: int = 1, n: int = GOLDEN_N) -> dict:
    make_f, make_space = MODELS[model]
    cfg = EstimatorConfig(n=n, seed=SEED, workers=workers)
    report = run_kind(kind, make_f(), make_space(), cfg)
    return json.loads(json.dumps(report_bits(report)))


EXTERNAL_SEED = 20


def external_ishigami() -> ExternalModel:
    return ExternalModel([sys.executable, "-c", ISHIGAMI_CHILD], 3)


def external_report(kind: str, workers: int = 1) -> dict:
    cfg = EstimatorConfig(n=GOLDEN_N, seed=EXTERNAL_SEED, workers=workers)
    with external_ishigami() as ext:
        report = run_kind(kind, ext, ishigami_space(), cfg)
    return json.loads(json.dumps(report_bits(report)))


def external_convergence() -> list:
    with external_ishigami() as ext:
        study = convergence_study(ext, ishigami_space(), "shapley", [64, 128],
                                  3, EXTERNAL_SEED, exact=ishigami_exact())
    return convergence_csv_lines(study)


def hex_rows(matrix) -> list:
    return [[v.hex() for v in row] for row in matrix.tolist()]


def ishigami_sample() -> list:
    return hex_rows(ishigami_space().sample(1024, RngStream(SEED, stream=3).generator()))


def plate_sample() -> list:
    return hex_rows(plate_buckling_space().sample(6, RngStream(SEED, stream=9).generator()))


def kernel_values(model: str) -> list:
    make_f, make_space = MODELS[model]
    batch = make_space().sample(GOLDEN_N, RngStream(SEED, stream=5).generator())
    return [v.hex() for v in make_f().evaluate_batch(batch).tolist()]


def golden_outputs() -> dict:
    return {
        "reports": {model: {kind: run_report(model, kind) for kind in KIND_TABLE}
                    for model in MODELS},
        "ishigami_sample": ishigami_sample(),
        "plate_sample": plate_sample(),
        "kernels": {model: kernel_values(model) for model in MODELS},
        "winding_edges": {model: {f"{kind}-{n}": run_report(model, kind, n=n)
                                  for kind in WINDING_KINDS for n in WINDING_EDGE_NS}
                          for model in MODELS},
        "external": {**{kind: external_report(kind) for kind in KIND_TABLE},
                     "convergence": external_convergence()},
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
    "analyze-output-empty": ["analyze", "--model", "ishigami", "--n", "300", "--output", ""],
    "convergence-ns-not-int": ["convergence", "--model", "ishigami", "--ns", "64,x"],
    **{f"convergence-{model}-{fmt}": [
        "convergence", "--model", model, "--ns", "64,128", "--trials", "3",
        "--format", fmt]
       for model in ["ishigami", "plate-buckling"] for fmt in ["json", "csv"]},
    "convergence-flags": ["convergence", "--model", "ishigami", "--ns", "64,128", "--trials", "3",
                          "--estimator", "total", "--workers", "2", "--seed", "3"],
    "convergence-trials-1": ["convergence", "--model", "ishigami", "--ns", "64", "--trials", "1"],
    "analyze-workers-0": ["analyze", "--model", "ishigami", "--n", "300", "--workers", "0"],
    # 0.4.0 removed the --cyclic flag: argparse refuses it for every estimator.
    "analyze-cyclic-flag-winding": ["analyze", "--model", "ishigami", "--estimator",
                                    "shapley-winding", "--cyclic", "--n", "300", "--seed", "5"],
    "analyze-cyclic-flag-shapley": ["analyze", "--model", "ishigami", "--estimator", "shapley",
                                    "--cyclic", "--n", "300", "--seed", "5"],
}
UNIFORM01 = {"kind": "uniform", "lo": 0.0, "hi": 1.0}
ISHIGAMI = {"model": {"name": "ishigami"}, "n": 300, "seed": 5}
SOBOL_G3 = {"model": {"name": "sobol-g", "d": 3}, "ns": [64, 128], "trials": 3}
EXTERNAL = {"command": ["true"], "dim": 2}
NO_SUCH_EXTERNAL = {"model": {"command": ["shapeff-no-such-simulator"], "dim": 2},
                    "distributions": [UNIFORM01] * 2}
# Case name -> (subcommand, config payload[, flags given after --config]).
CONFIG_CASES = {
    # Valid settings.
    "config-distributions": ("analyze", {**ISHIGAMI, "distributions": [
        {"kind": "normal", "mean": 0.5, "sd": 1.0}, {"kind": "normal", "mean": 2.0, "cv": 0.25},
        {"kind": "lognormal", "mean": 1.0, "cv": 0.2}]}),
    "config-sobol-g-a": ("analyze", {"model": {"name": "sobol-g", "a": [0, 1.0, 4.5, 99]},
                                     "n": 300, "estimator": "main"}),
    "config-sobol-g-a-d": ("analyze", {"model": {"name": "sobol-g", "a": [0.5, 2.0], "d": 2},
                                       "n": 300, "format": "csv"}),
    "config-constant": ("analyze", {"model": {"name": "constant", "value": -2.5, "dim": 2},
                                    "n": 300, "estimator": "total"}),
    "config-ishigami-params": ("analyze", {**ISHIGAMI, "model": {"name": "ishigami",
                                                                 "a": 5, "b": 0.2}}),
    "config-ci-z": ("analyze", {**ISHIGAMI, "ci_z": 3}),
    "config-workers-2": ("analyze", {**ISHIGAMI, "n": 4100, "workers": 2}),
    "config-output-null": ("analyze", {**ISHIGAMI, "output": None}),
    "config-convergence": ("convergence", {**SOBOL_G3, "estimator": "total", "seed": 2,
                                           "workers": 2, "format": "json"}),
    "config-convergence-distributions": ("convergence", {
        **SOBOL_G3, "model": {"name": "constant", "dim": 2}, "distributions": [UNIFORM01] * 2}),
    "config-exact-sobol-g-a": ("exact", {"model": {"name": "sobol-g", "a": [0, 1, 9]},
                                         "format": "csv"}),
    "config-exact-ishigami-params": ("exact", {"model": {"name": "ishigami", "a": 5, "b": 0.2}}),
    "config-exact-sobol-g-d-26": ("exact", {"model": {"name": "sobol-g", "d": 26}}),
    "config-convergence-sobol-g-d-30": ("convergence", {**SOBOL_G3, "model": {
        "name": "sobol-g", "d": 30}, "trials": 2}),
    # Flags over a config file.
    "config-flag-n": ("analyze", ISHIGAMI, ["--n", "500"]),
    "config-flag-seed": ("analyze", ISHIGAMI, ["--seed", "9"]),
    "config-flag-estimator": ("analyze", {**ISHIGAMI, "estimator": "main"},
                              ["--estimator", "total"]),
    "config-flag-workers": ("analyze", {**ISHIGAMI, "n": 4100, "workers": 1},
                            ["--workers", "2"]),
    "config-flag-format": ("analyze", {**ISHIGAMI, "format": "json"}, ["--format", "csv"]),
    "config-flag-model": ("analyze", {**ISHIGAMI, "model": {"name": "sobol-g", "d": 3}},
                          ["--model", "ishigami"]),
    "config-flag-cyclic": ("analyze", {**ISHIGAMI, "estimator": "shapley-winding",
                                       "cyclic": False}, ["--cyclic"]),
    "config-convergence-flags": ("convergence", SOBOL_G3,
                                 ["--ns", "32,64", "--trials", "2", "--format", "json"]),
    # Wrong types and out-of-range values.
    **{f"config-bad-{key}-{label}": ("analyze", {**ISHIGAMI, key: value})
       for key, label, value in [
           ("n", "str", "300"), ("n", "float", 300.0), ("n", "bool", True), ("n", "1", 1),
           ("seed", "str", "5"), ("seed", "negative", -1), ("seed", "float", 5.5),
           ("seed", "2-64", 2 ** 64),
           ("workers", "0", 0), ("workers", "str", "2"), ("workers", "null", None),
           ("ci_z", "0", 0), ("ci_z", "negative", -1.0), ("ci_z", "str", "1.96"),
           ("ci_z", "bool", True), ("ci_z", "null", None),
           ("format", "xml", "xml"), ("format", "int", 1),
           ("estimator", "magic", "magic"), ("estimator", "int", 3),
           ("distributions", "object", {"kind": "uniform"}),
           ("distributions", "short", [UNIFORM01]),
           ("distributions", "kind", [{"kind": "beta"}] * 3),
           ("distributions", "not-object", [1, 2, 3]),
           ("distributions", "lo-hi", [{"kind": "uniform", "lo": 1.0, "hi": 0.0}] * 3),
           ("distributions", "str-bound", [{"kind": "uniform", "lo": "0", "hi": 1.0}] * 3),
           ("distributions", "unknown-key", [{**UNIFORM01, "high": 2.0}] * 3),
           ("distributions", "missing-key", [{"kind": "uniform", "lo": 0.0}] * 3),
           ("distributions", "normal-sd", [{"kind": "normal", "mean": 0.0, "sd": -1.0}] * 3),
           ("distributions", "lognormal-mean",
            [{"kind": "lognormal", "mean": -1.0, "cv": 0.1}] * 3),
           ("model", "str", "ishigami"), ("model", "list", ["ishigami"]),
           ("model", "unknown-name", {"name": "nope"}), ("model", "no-name", {}),
           ("model", "ishigami-a-str", {"name": "ishigami", "a": "7"}),
           ("model", "ishigami-b-0", {"name": "ishigami", "b": 0}),
           ("model", "ishigami-key", {"name": "ishigami", "c": 1.0}),
           ("model", "sobol-g-d-0", {"name": "sobol-g", "d": 0}),
           ("model", "sobol-g-d-str", {"name": "sobol-g", "d": "3"}),
           ("model", "sobol-g-a-str", {"name": "sobol-g", "a": "0,1"}),
           ("model", "sobol-g-a-bool", {"name": "sobol-g", "a": [1.0, True]}),
           ("model", "sobol-g-a-negative", {"name": "sobol-g", "a": [1.0, -1.0]}),
           ("model", "sobol-g-a-empty", {"name": "sobol-g", "a": []}),
           ("model", "sobol-g-a-d", {"name": "sobol-g", "a": [1.0], "d": 3}),
           ("model", "constant-dim-0", {"name": "constant", "dim": 0}),
           ("model", "constant-value-str", {"name": "constant", "value": "1"}),
           ("model", "plate-key", {"name": "plate-buckling", "dim": 6}),
           ("model", "external-command-str", {"command": "true", "dim": 2}),
           ("model", "external-command-empty", {"command": [], "dim": 2}),
           ("model", "external-command-int", {"command": ["true", 1], "dim": 2}),
           ("model", "external-command-true", {"command": True, "dim": 2}),
           ("model", "external-dim-0", {**EXTERNAL, "dim": 0}),
           ("model", "external-dim-str", {**EXTERNAL, "dim": "2"}),
           ("model", "external-key", {**EXTERNAL, "name": "x"}),
           ("model", "external-no-distributions", EXTERNAL),
       ]},
    "config-bad-external-n": ("analyze", {"model": EXTERNAL, "distributions": [UNIFORM01] * 2,
                                          "n": 1}),
    "config-bad-output-int": ("analyze", {**ISHIGAMI, "output": 5}),
    "config-bad-array": ("analyze", [ISHIGAMI]),
    "config-external-cannot-start": ("analyze", {**NO_SUCH_EXTERNAL, "n": 300}),
    "config-convergence-external-cannot-start": ("convergence", {
        **NO_SUCH_EXTERNAL, "ns": [64, 128], "trials": 3}),
    **{f"config-{label}-external-cannot-start": ("analyze", {
        **NO_SUCH_EXTERNAL, "n": 300, "estimator": estimator, **extra})
       for label, estimator, extra in [
           ("winding", "shapley-winding", {}),
           ("winding-cyclic", "shapley-winding", {"cyclic": True}),
           ("main", "main", {}), ("total", "total", {})]},
    **{f"config-bad-convergence-{key}-{label}": ("convergence", {**SOBOL_G3, key: value})
       for key, label, value in [
           ("ns", "str", "64,128"), ("ns", "mixed", [64, "128"]), ("ns", "bool", [True, 64]),
           ("ns", "descending", [128, 64]), ("ns", "empty", []), ("ns", "1", [1, 2]),
           ("trials", "1", 1), ("trials", "str", "3"),
           ("estimator", "magic", "magic"), ("seed", "negative", -1), ("seed", "2-64", 2 ** 64),
           ("workers", "0", 0),
           ("format", "xml", "xml"),
       ]},
    "config-bad-exact-model": ("exact", {"model": {"name": "plate-buckling"}}),
    "config-bad-exact-model-str": ("exact", {"model": "ishigami"}),
    "config-bad-exact-param": ("exact", {"model": {"name": "ishigami", "a": -1.0}}),
    "config-bad-exact-format": ("exact", {"model": {"name": "ishigami"}, "format": "xml"}),
    # Missing and unknown keys.
    "config-missing-model": ("analyze", {"n": 300}),
    "config-missing-n": ("analyze", {"model": {"name": "ishigami"}}),
    "config-missing-ns": ("convergence", {"model": {"name": "ishigami"}, "trials": 3}),
    "config-missing-exact-model": ("exact", {}),
    "config-unknown-key": ("analyze", {**ISHIGAMI, "sedd": 1}),
    "config-unknown-keys": ("analyze", {**ISHIGAMI, "zeta": 1, "alpha": 2}),
    "config-unknown-convergence-key": ("convergence", {**SOBOL_G3, "ci_z": 2.0}),
    "config-unknown-exact-key": ("exact", {"model": {"name": "ishigami"}, "n": 300}),
    "config-unknown-exact-distributions": ("exact", {"model": {"name": "ishigami"},
                                                     "distributions": [UNIFORM01] * 3}),
    # The cyclic cases of 0.3.x, valid or not then: 0.4.0 removed the key.
    "config-cyclic-winding": ("analyze", {**ISHIGAMI, "estimator": "shapley-winding",
                                          "cyclic": True}),
    "config-cyclic-false": ("analyze", {**ISHIGAMI, "cyclic": False}),
    "config-bad-cyclic-str": ("analyze", {**ISHIGAMI, "cyclic": "yes"}),
    "config-bad-cyclic-int": ("analyze", {**ISHIGAMI, "cyclic": 1}),
    "config-bad-cyclic-shapley": ("analyze", {**ISHIGAMI, "cyclic": True}),
    "config-bad-cyclic-zero-total": ("analyze", {**ISHIGAMI, "estimator": "total", "cyclic": 0}),
}
_ELAPSED = re.compile(r',\n  "elapsed_seconds": [^\n]*|#elapsed_seconds,[^\n]*\n')


def cli_output(argv: list) -> dict:
    """Exit code, stdout and stderr of one CLI run, with elapsed_seconds cut."""
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err, \
            mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"code": code, "stdout": _ELAPSED.sub("", out.getvalue()),
            "stderr": err.getvalue()}


def config_output(command: str, payload, flags: tuple = ()) -> dict:
    """cli_output of `command --config FILE *flags`, where FILE holds payload
    as JSON; FILE's temporary path reads as CONFIG in the output."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(payload))
        output = cli_output([command, "--config", str(path), *flags])
    return {key: value.replace(str(path), "CONFIG") if isinstance(value, str) else value
            for key, value in output.items()}


def cli_outputs() -> dict:
    return {**{case: cli_output(argv) for case, argv in CLI_CASES.items()},
            **{case: config_output(*spec) for case, spec in CONFIG_CASES.items()}}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads((HERE / "golden_inproc.json").read_text())


@pytest.fixture(scope="module")
def golden_cli() -> dict:
    return json.loads((HERE / "golden_cli.json").read_text())


@pytest.mark.parametrize("model", list(MODELS))
@pytest.mark.parametrize("kind, workers", [
    (kind, workers) for kind in PARALLEL_KINDS for workers in (1, 2)])
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


def test_plate_sample_matches_its_golden(golden):
    assert plate_sample() == golden["plate_sample"]


@pytest.mark.parametrize("model", list(MODELS))
def test_kernel_matches_its_golden(golden, model):
    assert kernel_values(model) == golden["kernels"][model]


@pytest.mark.parametrize("kind, workers", [
    (kind, workers) for kind in PARALLEL_KINDS for workers in (1, 2)] + [("winding", 1)])
def test_external_report_matches_its_golden(golden, kind, workers):
    assert external_report(kind, workers) == golden["external"][kind]


def test_external_convergence_matches_its_golden(golden):
    lines = external_convergence()
    assert lines[1].startswith("external,shapley,64,1,")
    assert lines == golden["external"]["convergence"]


def test_golden_cli_holds_exactly_the_listed_cases(golden_cli):
    assert set(golden_cli) == set(CLI_CASES) | set(CONFIG_CASES)


@pytest.mark.parametrize("case", list(CLI_CASES))
def test_cli_output_matches_its_golden(golden_cli, case):
    assert cli_output(CLI_CASES[case]) == golden_cli[case]


@pytest.mark.parametrize("case", list(CONFIG_CASES))
def test_cli_config_output_matches_its_golden(golden_cli, case):
    assert config_output(*CONFIG_CASES[case]) == golden_cli[case]


if __name__ == "__main__":
    (HERE / "golden_inproc.json").write_text(json.dumps(golden_outputs(), indent=1) + "\n")
    (HERE / "golden_cli.json").write_text(json.dumps(cli_outputs(), indent=1) + "\n")
