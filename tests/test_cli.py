"""Integration tests for the analyze / convergence / exact subcommands."""

import importlib.metadata
import json
import math
import os
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import jsonschema
import pytest

import shapeff
from shapeff import InputSpace, cli, convergence_study, ishigami, ishigami_exact
from shapeff.cli import (CONVERGENCE_SCHEMA, EXACT_SCHEMA, REPORT_SCHEMA, main)
from shapeff.models import BUILTINS
from support import ECHO_FIRST, FLOOD, ONE_LATE, run_python

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
# run_python(*CLI, ...) runs the CLI in a new process; a bad output setting
# may close the process's own stdout or stderr.
CLI = ("-m", "shapeff.cli")


def run(args):
    return main(args)


def read_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def config(tmp_path, payload, name="cfg.json"):
    """The path of a new config file in tmp_path that holds `payload` as JSON."""
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def test_analyze_ishigami_report_schema_and_cost(tmp_path):
    out = tmp_path / "report.json"
    code = run(["analyze", "--model", "ishigami", "--n", str(2 ** 14),
                "--seed", "1", "--output", str(out)])
    assert code == 0
    report = read_json(out)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["eval_count"] == 4 * 2 ** 14
    assert len(report["results"]) == 3
    assert report["results"][0]["variable"] == 1
    assert report["config"]["model"] == {"name": "ishigami", "a": 7.0, "b": 0.1}


def test_analyze_sobol_g_default_dimension(tmp_path):
    out = tmp_path / "report.json"
    assert run(["analyze", "--model", "sobol-g", "--n", "16384",
                "--seed", "0", "--output", str(out)]) == 0
    report = read_json(out)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["eval_count"] == 11 * 16384
    assert len(report["results"]) == 10


def test_analyze_all_estimators_validate_schema(tmp_path):
    for estimator in ("shapley", "shapley-winding", "main", "total"):
        out = tmp_path / f"{estimator}.json"
        cfg = {"model": {"name": "ishigami"}, "estimator": estimator,
               "n": 64, "seed": 3, "output": str(out)}
        path = config(tmp_path, cfg, f"{estimator}-cfg.json")
        assert run(["analyze", "--config", str(path)]) == 0
        report = read_json(out)
        jsonschema.validate(report, REPORT_SCHEMA)
        if estimator == "shapley-winding":
            assert all(r["variance"] is None for r in report["results"])
        if estimator in ("main", "total"):
            assert report["sigma2_estimate"] is None
            assert all(r["ci_low"] <= r["estimate"] <= r["ci_high"] for r in report["results"])


def test_analyze_csv_format(tmp_path):
    out = tmp_path / "report.csv"
    assert run(["analyze", "--model", "ishigami", "--n", "64", "--seed", "2",
                "--format", "csv", "--output", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "variable,estimate,variance,ci_low,ci_high"
    assert len([l for l in lines if not l.startswith("#")]) == 4
    assert any(l.startswith("#eval_count,") for l in lines)


def test_analyze_round_trip_is_bitwise(tmp_path):
    first = tmp_path / "first.json"
    assert run(["analyze", "--model", "plate-buckling", "--n", "2048",
                "--seed", "7", "--output", str(first)]) == 0
    report = read_json(first)
    rerun_cfg = config(tmp_path, report["config"], "rerun.json")
    second = tmp_path / "second.json"
    assert run(["analyze", "--config", str(rerun_cfg), "--output", str(second)]) == 0
    report2 = read_json(second)
    assert [r["estimate"] for r in report["results"]] == \
        [r["estimate"] for r in report2["results"]]
    assert [r["variance"] for r in report["results"]] == \
        [r["variance"] for r in report2["results"]]


def test_package_and_reports_carry_the_declared_version(tmp_path):
    assert shapeff.__version__ == read_pyproject()["project"]["version"]
    out = tmp_path / "report.json"
    assert run(["analyze", "--model", "ishigami", "--n", "64", "--seed", "1",
                "--output", str(out)]) == 0
    assert read_json(out)["version"] == shapeff.__version__


# The public names of 0.6.0 in the order of its __all__, which the package
# derives from its imports.
PUBLIC_NAMES = [
    "__version__", "AnovaDecomposition", "CapacityError", "ConfigError", "ConvergenceStudy",
    "EstimatorConfig", "EvaluationError", "ExternalModel", "InputSpace", "LogNormal",
    "ModelFunction", "Normal", "ParameterError", "Report", "RngStream", "SensitivityError",
    "SensitivityIndices", "Uniform", "anova_oracle", "constant_model",
    "convergence_csv_lines", "convergence_study", "estimate_main_effects",
    "estimate_shapley_all", "estimate_shapley_winding", "estimate_total_effects",
    "indices_from_anova", "ishigami", "ishigami_anova", "ishigami_exact", "ishigami_space",
    "main_total_from_anova", "plate_buckling", "plate_buckling_space", "shapley_from_anova",
    "sobol_g", "sobol_g_anova", "sobol_g_exact", "sobol_g_space", "sse_exact",
    "sse_samplemean", "trial_seed",
]


def test_package_exports_the_public_names_and_no_module():
    assert shapeff.__all__ == PUBLIC_NAMES
    assert not [name for name in shapeff.__all__
                if isinstance(getattr(shapeff, name), types.ModuleType)]


def test_analyze_flag_overrides_config(tmp_path):
    cfg = config(tmp_path, {"model": {"name": "ishigami"}, "n": 32, "seed": 5})
    out = tmp_path / "out.json"
    assert run(["analyze", "--config", str(cfg), "--n", "64",
                "--output", str(out)]) == 0
    assert read_json(out)["config"]["n"] == 64


def test_analyze_external_model(tmp_path):
    cfg = config(tmp_path, {
        "model": {"command": [sys.executable, "-c", ECHO_FIRST], "dim": 2},
        "distributions": [{"kind": "uniform", "lo": 0.0, "hi": 1.0},
                          {"kind": "uniform", "lo": 0.0, "hi": 1.0}],
        "n": 16, "seed": 4,
    })
    out = tmp_path / "out.json"
    assert run(["analyze", "--config", str(cfg), "--output", str(out)]) == 0
    report = read_json(out)
    jsonschema.validate(report, REPORT_SCHEMA)
    # The second coordinate never enters the output: exactly zero, per sample.
    assert report["results"][1]["estimate"] == 0.0
    assert report["results"][1]["variance"] == 0.0
    assert report["results"][0]["estimate"] == pytest.approx(1 / 12, rel=0.5)


def test_external_model_protocol_violation_exits_3(tmp_path, capsys):
    bad = ("import sys\n"
           "n = 0\n"
           "for line in sys.stdin:\n"
           "    n += 1\n"
           "    print('junk' if n >= 3 else '1.0', flush=True)\n")
    cfg = config(tmp_path, {
        "model": {"command": [sys.executable, "-c", bad], "dim": 1},
        "distributions": [{"kind": "uniform", "lo": 0.0, "hi": 1.0}],
        "n": 8, "seed": 0,
    })
    assert run(["analyze", "--config", str(cfg)]) == 3
    assert "line 3" in capsys.readouterr().err


def test_external_model_that_sends_more_replies_than_requests_exits_3(tmp_path, capsys):
    # Every reply after the first answers the wrong line although each
    # parses. The last comes only once the child's input ends, so closing
    # the model finds it, before any report is written.
    cfg = config(tmp_path, {"model": {"command": [sys.executable, "-c", ONE_LATE], "dim": 1},
                            "distributions": UNIT_INTERVAL, "n": 16, "seed": 1})
    assert run(["analyze", "--config", str(cfg)]) == 3
    assert capsys.readouterr() == (
        "", "error: external model sent more replies than requests\n")


def run_external_analyze(tmp_path, child, dim, n):
    """``analyze`` of an external child in a new process, seed 1, bounded by
    a timeout: a child that breaks the protocol must not hang the run."""
    cfg = config(tmp_path, {"model": {"command": [sys.executable, "-c", child], "dim": dim},
                            "distributions": UNIT_INTERVAL * dim, "n": n, "seed": 1})
    return run_python(*CLI, "analyze", "--config", str(cfg), timeout=60)


def test_external_model_whose_surplus_replies_outgrow_the_pipes_exits_3(tmp_path):
    # Each request gets two replies. At n=1024 the batch of 4096 requests
    # outgrows the pipes, so the child answers half of them while the rest
    # are unsent: the batch fails as soon as its replies outnumber them.
    twice = ("import math, sys\n"
             "for line in sys.stdin:\n"
             "    x1, x2, x3 = (float(v) for v in line.split())\n"
             "    y = repr((1 + 0.1 * x3 ** 4) * math.sin(x1) + 7 * math.sin(x2) ** 2)\n"
             "    print(y)\n"
             "    print(y, flush=True)\n")
    result = run_external_analyze(tmp_path, twice, 3, 1024)
    assert (result.returncode, result.stdout, result.stderr) == (
        3, "", "error: evaluation failed in samples [0, 1024): "
               "external model sent more replies than requests\n")


def test_external_model_that_floods_its_replies_exits_3(tmp_path):
    # The child never reads its input again once its output is full, so
    # writing requests alone would wait forever.
    result = run_external_analyze(tmp_path, FLOOD, 1, 4096)
    assert (result.returncode, result.stdout, result.stderr) == (
        3, "", "error: evaluation failed in samples [0, 4096): "
               "external model sent more replies than requests\n")


def test_external_model_flooding_stderr_finishes(tmp_path):
    # 1 KiB of stderr per reply overfills an undrained stderr pipe within
    # a few dozen replies, after which the child blocks and the run hangs.
    chatty = ("import sys\n"
              "for line in sys.stdin:\n"
              "    sys.stderr.write('x' * 1023 + '\\n')\n"
              "    sys.stderr.flush()\n"
              "    print(line.split()[0], flush=True)\n")
    result = run_external_analyze(tmp_path, chatty, 2, 200)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["eval_count"] == 3 * 200


UNIT_INTERVAL = [{"kind": "uniform", "lo": 0.0, "hi": 1.0}]
# A model that fails on its first evaluation shows whether one ran.
FAILING_MODEL = {"command": [sys.executable, "-c", "import sys; sys.exit(7)"], "dim": 1}
OUTPUT_CONFIGS = {
    "analyze": {"model": FAILING_MODEL, "distributions": UNIT_INTERVAL, "n": 16},
    "convergence": {"model": FAILING_MODEL, "distributions": UNIT_INTERVAL, "ns": [16, 32]},
    "exact": {"model": {"name": "ishigami"}},
}


@pytest.mark.parametrize("output", [["a"], 2, True, 1.5, {"path": "a"}],
                         ids=["list", "fd-2", "true", "float", "object"])
@pytest.mark.parametrize("command", list(OUTPUT_CONFIGS))
def test_non_string_output_exits_2_before_any_evaluation(tmp_path, output, command):
    cfg = config(tmp_path, {**OUTPUT_CONFIGS[command], "output": output})
    result = run_python(*CLI, command, "--config", str(cfg))
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == f"error: output must be a file path, got {output!r}\n"


@pytest.mark.parametrize("bad, problem", [("\0", "a null character"),
                                          ("\ud800", "a lone surrogate")],
                         ids=["null", "surrogate"])
@pytest.mark.parametrize("field", ["command", "output"])
def test_a_string_the_os_cannot_take_exits_2_before_the_model_starts(tmp_path, field, bad,
                                                                   problem):
    # JSON holds both, and no command argument or file name can. The model's
    # process writes a marker as it starts.
    marker = tmp_path / "started"
    command = [sys.executable, "-c", f"open({str(marker)!r}, 'w').close()\n" + ECHO_FIRST]
    payload = {"model": {"command": command, "dim": 1}, "distributions": UNIT_INTERVAL, "n": 16}
    if field == "command":
        value, what = f"a{bad}", "model: external model command arguments"
        command.append(value)
    else:
        value, what = str(tmp_path / f"report{bad}.json"), "output"
        payload["output"] = value
    cfg = config(tmp_path, payload)
    result = run_python(*CLI, "analyze", "--config", str(cfg))
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == f"error: {what} must not hold {problem}, got {value!r}\n"
    assert not marker.exists()


@pytest.mark.parametrize("command", [
    ["analyze", "--model", "ishigami", "--n", "16"],
    ["convergence", "--model", "ishigami", "--ns", "16,32", "--trials", "2"],
    ["exact", "--model", "ishigami"]], ids=["analyze", "convergence", "exact"])
def test_unwritable_output_exits_2(tmp_path, command):
    target = tmp_path / "missing" / "report.json"
    result = run_python(*CLI, *command, "--output", str(target))
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith(f"error: cannot write report to {target}: ")
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("output", ["missing/report.json", "."],
                         ids=["missing-directory", "directory"])
def test_unwritable_output_exits_2_before_starting_the_model(tmp_path, capsys, output):
    # The model's process writes a marker as it starts.
    marker = tmp_path / "started"
    echo = f"open({str(marker)!r}, 'w').close()\n" + ECHO_FIRST
    target = tmp_path / output
    cfg = config(tmp_path, {"model": {"command": [sys.executable, "-c", echo], "dim": 1},
                            "distributions": UNIT_INTERVAL, "ns": [16, 32], "trials": 2,
                            "output": str(target)})
    assert run(["convergence", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write report to {target}: ")
    assert not marker.exists()


# Root passes os.access whatever a file's mode, so the chmod tests below run
# only as another user. The monkeypatched test after them runs for everyone.
AS_ROOT = not hasattr(os, "geteuid") or os.geteuid() == 0
needs_non_root = pytest.mark.skipif(AS_ROOT, reason="root passes every write check")


@pytest.fixture
def read_only_dir(tmp_path):
    """A directory this user cannot write to, with one writable file in it."""
    directory = tmp_path / "locked"
    directory.mkdir()
    (directory / "writable.json").write_text("")
    directory.chmod(0o555)
    yield directory
    directory.chmod(0o755)


@needs_non_root
def test_an_existing_read_only_output_file_exits_2(tmp_path, capsys):
    target = tmp_path / "report.json"
    target.write_text("")
    target.chmod(0o444)
    assert run(["exact", "--model", "ishigami", "--output", str(target)]) == 2
    assert capsys.readouterr().err == f"error: cannot write report to {target}: permission denied\n"
    assert target.read_text() == ""


@needs_non_root
def test_a_new_output_file_in_a_read_only_directory_exits_2(read_only_dir, capsys):
    target = read_only_dir / "report.json"
    assert run(["exact", "--model", "ishigami", "--output", str(target)]) == 2
    assert capsys.readouterr().err == f"error: cannot write report to {target}: permission denied\n"
    assert not target.exists()


@needs_non_root
def test_an_existing_writable_output_file_in_a_read_only_directory_is_written(read_only_dir):
    # Only a file that does not exist yet needs a writable directory.
    target = read_only_dir / "writable.json"
    assert run(["exact", "--model", "ishigami", "--output", str(target)]) == 0
    jsonschema.validate(read_json(target), EXACT_SCHEMA)


def test_a_report_can_go_to_the_null_device(capsys):
    # Its directory is not writable for a user other than root.
    assert run(["exact", "--model", "ishigami", "--output", os.devnull]) == 0
    assert capsys.readouterr() == ("", "")


def test_output_write_access_is_asked_of_the_file_if_it_exists(tmp_path, monkeypatch, capsys):
    # The same rule for every user: os.access denies the directory, so only
    # a file that is already there can take the report.
    access = os.access
    monkeypatch.setattr(cli.os, "access",
                        lambda path, mode: path != str(tmp_path) and access(path, mode))
    existing = tmp_path / "existing.json"
    existing.write_text("")
    assert run(["exact", "--model", "ishigami", "--output", str(existing)]) == 0
    jsonschema.validate(read_json(existing), EXACT_SCHEMA)
    new = tmp_path / "new.json"
    assert run(["exact", "--model", "ishigami", "--output", str(new)]) == 2
    assert capsys.readouterr().err == f"error: cannot write report to {new}: permission denied\n"
    assert not new.exists()


def test_external_model_without_dim_exits_2_before_starting_it(tmp_path, capsys):
    marker = tmp_path / "started"
    cfg = config(tmp_path, {"model": {"command": [sys.executable, "-c",
                                                  f"open({str(marker)!r}, 'w')"]},
                            "n": 16, "distributions": UNIT_INTERVAL})
    assert run(["analyze", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: model.dim is required\n"
    assert not marker.exists()


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = config(tmp_path, {"model": {"name": "ishigami"}, "n": 16, "sedd": 1})
    assert run(["analyze", "--config", str(cfg)]) == 2
    assert "sedd" in capsys.readouterr().err


@pytest.mark.parametrize("text, repeated", [
    ('{"model": {"name": "ishigami"}, "n": 64, "n": 128, "seed": 1}', "n"),
    ('{"model": {"name": "sobol-g", "a": [0, 1], "a": [0, 1, 2]}, "n": 16}', "a"),
    ('{"model": {"name": "constant", "dim": 1}, "n": 16, "distributions": '
     '[{"kind": "uniform", "lo": 0, "lo": 1, "hi": 2}]}', "lo"),
    ('{"seed": 1, "model": {"name": "ishigami"}, "n": 16, "seed": 1, "n": 16}', "n, seed"),
], ids=["top-level", "model", "distribution", "two-keys-same-values"])
def test_repeated_config_key_exits_2(tmp_path, capsys, monkeypatch, text, repeated):
    # json keeps the last of repeated keys, so the first config would run
    # at n = 128 unless the CLI refused it.
    monkeypatch.setattr(cli, "run_estimator", None)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert run(["analyze", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: repeated key(s) in config: {repeated}\n"


def test_unknown_distribution_key_exits_2(tmp_path):
    cfg = config(tmp_path, {
        "model": {"name": "constant", "dim": 1},
        "distributions": [{"kind": "uniform", "lo": 0.0, "hi": 1.0, "high": 2.0}],
        "n": 16,
    })
    assert run(["analyze", "--config", str(cfg)]) == 2


def test_normal_spec_takes_sd_or_cv_and_reruns_from_its_config(tmp_path):
    uniform = {"kind": "uniform", "lo": -math.pi, "hi": math.pi}
    results = {}
    for spread in ({"sd": 0.5}, {"cv": 0.25}):
        spec = {"kind": "normal", "mean": 2.0, **spread}
        cfg = config(tmp_path, {"model": {"name": "ishigami"},
                                "distributions": [spec, uniform, uniform], "n": 64, "seed": 3})
        out = tmp_path / "out.json"
        assert run(["analyze", "--config", str(cfg), "--output", str(out)]) == 0
        report = read_json(out)
        assert report["config"]["distributions"][0] == spec
        rerun_cfg = config(tmp_path, report["config"], "rerun.json")
        rerun = tmp_path / "rerun_out.json"
        assert run(["analyze", "--config", str(rerun_cfg), "--output", str(rerun)]) == 0
        assert read_json(rerun)["results"] == report["results"]
        results[next(iter(spread))] = report["results"]
    # sd = |mean| * cv exactly here, so both specs give the same input space.
    assert results["sd"] == results["cv"]


@pytest.mark.parametrize("spread, given", [({"sd": 0.5, "cv": 0.25}, "cv and sd"),
                                           ({}, "neither")], ids=["both", "neither"])
def test_normal_spec_needs_exactly_one_of_sd_or_cv(tmp_path, capsys, spread, given):
    cfg = config(tmp_path, {"model": {"name": "constant", "dim": 1},
                            "distributions": [{"kind": "normal", "mean": 2.0, **spread}], "n": 16})
    assert run(["analyze", "--config", str(cfg)]) == 2
    assert ("distributions[0]: normal takes exactly one of sd or cv, got " + given
            in capsys.readouterr().err)


def test_normal_spec_with_cv_needs_a_non_zero_mean(tmp_path, capsys):
    for spread, code in (({"mean": 0, "cv": 0.1}, 2), ({"mean": 0.0, "cv": 0.1}, 2),
                         ({"mean": -1.0, "cv": 0.1}, 0), ({"mean": 0, "sd": 0.1}, 0)):
        cfg = config(tmp_path, {"model": {"name": "constant", "dim": 1},
                                "distributions": [{"kind": "normal", **spread}], "n": 16})
        assert run(["analyze", "--config", str(cfg)]) == code, spread
    assert "distributions[0]: normal cv needs a non-zero mean" in capsys.readouterr().err


@pytest.mark.parametrize("model, spec", [
    ({"name": "constant", "dim": 2}, {"kind": "uniform", "lo": -1e308, "hi": 1e308}),
    ({"name": "ishigami"}, {"kind": "uniform", "lo": -1e308, "hi": 1e308}),
    ({"name": "constant", "dim": 2}, {"kind": "normal", "mean": 0.0, "sd": 1e308}),
    ({"name": "constant", "dim": 2}, {"kind": "lognormal", "mean": 1e307, "cv": 10.0}),
], ids=["uniform-constant", "uniform-ishigami", "normal", "lognormal"])
def test_distribution_whose_draws_overflow_exits_2(tmp_path, capsys, model, spec):
    uniform = {"kind": "uniform", "lo": 0.0, "hi": 1.0}
    dim = model.get("dim", 3)
    cfg = config(tmp_path, {"model": model,
                            "distributions": [uniform, spec] + [uniform] * (dim - 2), "n": 16})
    assert run(["analyze", "--config", str(cfg)]) == 2
    assert re.search(r"^error: distributions\[1\]: \w+\(.*\) draws non-finite values: ",
                     capsys.readouterr().err)


ISHIGAMI_N16 = {"model": {"name": "ishigami"}, "n": 16}


@pytest.mark.parametrize("command, payload, message", [
    ("analyze", {**ISHIGAMI_N16, "distributions": [{"kind": "uniform", "lo": 0, "hi": 10 ** 400}]
                 + [{"kind": "uniform", "lo": 0, "hi": 1}] * 2},
     "distributions[0]: hi is too large for a float"),
    ("analyze", {**ISHIGAMI_N16, "ci_z": 10 ** 400}, "config: ci_z is too large for a float"),
    ("analyze", {**ISHIGAMI_N16, "model": {"name": "ishigami", "a": 10 ** 400}},
     "model: a is too large for a float"),
    ("analyze", {**ISHIGAMI_N16, "model": {"name": "sobol-g", "a": [1, 10 ** 400]}},
     "model: sobol_g weight is too large for a float"),
    ("analyze", {**ISHIGAMI_N16, "model": {"name": "constant", "value": 10 ** 400}},
     "model: value is too large for a float"),
    ("exact", {"model": {"name": "ishigami", "b": 10 ** 400}}, "model: b is too large for a float"),
], ids=["uniform-hi", "ci-z", "ishigami-a", "sobol-g-a", "constant-value", "exact-ishigami-b"])
def test_integers_too_large_for_a_float_exit_2(tmp_path, capsys, command, payload, message):
    cfg = config(tmp_path, payload)
    assert run([command, "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err


def test_integer_literal_too_long_to_read_exits_2(tmp_path, capsys):
    # Python reads at most 4300 digits of an integer literal.
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"model": {"name": "ishigami"}, "n": ' + "1" * 5000 + "}")
    assert run(["analyze", "--config", str(cfg)]) == 2
    assert "is not valid JSON: Exceeds the limit" in capsys.readouterr().err


def test_config_nested_deeper_than_the_recursion_limit_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"model": ' + "[" * 100000 + "]" * 100000 + "}")
    assert run(["analyze", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: config {cfg} is nested too deeply to read\n"


def test_config_validation_errors_exit_2(tmp_path):
    bad_configs = [
        {"model": {"name": "nope"}, "n": 16},
        {"model": {"name": "ishigami"}},
        {"model": {"name": "ishigami"}, "n": 1},
        {"model": {"name": "ishigami"}, "n": 16, "estimator": "magic"},
        {"model": {"name": "sobol-g", "a": [1.0], "d": 3}, "n": 16},
        {"model": {"name": "ishigami"}, "n": 16,
         "distributions": [{"kind": "uniform", "lo": 0.0, "hi": 1.0}]},
        {"model": {"command": ["true"], "dim": 2}, "n": 16},
    ]
    for i, payload in enumerate(bad_configs):
        cfg = config(tmp_path, payload, f"bad{i}.json")
        assert run(["analyze", "--config", str(cfg)]) == 2, payload


@pytest.mark.parametrize("estimator", ["shapley", "shapley-winding", "main", "total"])
def test_the_cyclic_flag_exits_2_before_any_evaluation(monkeypatch, capsys, estimator):
    # 0.4.0 removed cyclic winding stairs, so argparse refuses the flag.
    monkeypatch.setattr(cli, "run_estimator", None)
    with pytest.raises(SystemExit) as exc:
        run(["analyze", "--model", "ishigami", "--n", "64", "--estimator", estimator,
             "--cyclic"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("error: unrecognized arguments: --cyclic\n")


def test_readme_lists_every_builtin_model_with_its_keys_and_defaults():
    readme = (PYPROJECT.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("Built-in models and their keys:\n\n", 1)[1].split("\n\n", 1)[0]
    documented = {}
    for line in table.splitlines()[2:]:
        name, keys, _ = (cell.strip() for cell in line.strip("|").split("|"))
        if name.startswith("`"):
            documented[name.strip("`")] = {
                key: default or None
                for key, default in re.findall(r"`(\w+)`(?: list)?(?: \(([^)]*)\))?", keys)}
    assert documented == {
        name: {key: None if default is None else str(default)
               for key, default in builtin.keys.items()}
        for name, builtin in BUILTINS.items()}


def test_readme_lists_every_run_setting_with_its_flag_and_defaults():
    readme = (PYPROJECT.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("does not take the setting):\n\n", 1)[1].split("\n\n", 1)[0]
    header, _, *lines = table.splitlines()
    commands = [cell.strip().strip("`") for cell in header.strip("|").split("|")][2:]
    assert commands == list(cli._SETTINGS)
    documented = {}
    for line in lines:
        key, flag, *defaults = (cell.strip() for cell in line.strip("|").split("|"))
        documented[key.strip("`")] = [flag, *defaults]

    def cell(command, key):
        if key not in cli._SETTINGS[command]:
            return "-"
        default = cli._SETTINGS[command][key]
        return "required" if default == cli._REQUIRED else f"`{json.dumps(default)}`"

    keys = {key for settings in cli._SETTINGS.values() for key in settings}
    assert documented == {
        key: [f"`--{key}`" if key in cli._FLAGS else "none",
              *(cell(command, key) for command in commands)]
        for key in keys}


@pytest.mark.parametrize("model", [
    {"name": "ishigami", "a": math.inf}, {"name": "ishigami", "b": math.nan},
    {"name": "sobol-g", "a": [math.nan, 1.0]}, {"name": "sobol-g", "a": [1.0, math.inf]},
    {"name": "constant", "value": math.inf}],
    ids=["ishigami-a-inf", "ishigami-b-nan", "sobol-g-nan", "sobol-g-inf", "constant-inf"])
def test_non_finite_model_parameters_are_rejected(tmp_path, capsys, model):
    params = {k: v for k, v in model.items() if k != "name"}
    factory, reference = {
        "ishigami": (shapeff.ishigami, shapeff.ishigami_exact),
        "sobol-g": (shapeff.sobol_g, shapeff.sobol_g_exact),
        "constant": (lambda value: shapeff.constant_model(value, 3), None),
    }[model["name"]]
    for make in filter(None, (factory, reference)):
        with pytest.raises(shapeff.ParameterError, match="finite"):
            make(**params)
    for command in ("analyze", "exact") if reference else ("analyze",):
        sizes = {"n": 64} if command == "analyze" else {}
        path = config(tmp_path, {"model": model, **sizes}, f"{command}.json")
        assert run([command, "--config", str(path)]) == 2
        assert "finite" in capsys.readouterr().err


def test_confidence_bounds_that_overflow_exit_3_with_no_report(tmp_path, capsys):
    path = config(tmp_path, {"model": {"name": "ishigami", "a": 1000}, "n": 4, "ci_z": 1e308})
    assert run(["analyze", "--config", str(path)]) == 3
    assert capsys.readouterr() == (
        "", "error: shapley report: ci_low is -inf for variable 1, not a finite number\n")


@pytest.mark.parametrize("estimator", ["shapley", "shapley-winding", "main", "total"])
def test_estimates_that_overflow_exit_3_with_no_report(tmp_path, estimator):
    # A new process, without the test suite's warning filters, so a numpy
    # overflow warning would print to stderr ahead of the error.
    path = config(tmp_path, {"model": {"name": "ishigami", "a": 1e200}, "n": 64,
                             "estimator": estimator})
    result = run_python(*CLI, "analyze", "--config", str(path))
    assert result.returncode == 3
    assert result.stdout == ""
    assert re.fullmatch(rf"error: {estimator} report: estimates is (-?inf|nan) for variable \d, "
                        r"not a finite number\n", result.stderr), result.stderr


@pytest.mark.parametrize("command, sizes", [("analyze", {"n": 2 ** 44 + 1}),
                                            ("convergence", {"ns": [16, 2 ** 44 + 1]})])
def test_sample_size_past_the_chunk_streams_exits_2_before_any_evaluation(
        tmp_path, capsys, command, sizes):
    cfg = config(tmp_path, {"model": FAILING_MODEL, "distributions": UNIT_INTERVAL, **sizes})
    assert run([command, "--config", str(cfg)]) == 2
    assert capsys.readouterr() == ("", "error: config: sample size must be <= 2^44 (2^32 chunk "
                                       "streams of 4096 samples), got 17592186044417\n")


# A bad value of each run setting that the library checks, not the CLI.
LIBRARY_CHECKED = [("n", 1), ("ns", [1, 16]), ("ns", [32, 16]), ("workers", 0), ("ci_z", 0),
                   ("trials", 1), ("seed", -1), ("seed", 2 ** 64), ("estimator", "magic")]


@pytest.mark.parametrize("command, key, value", [
    pytest.param(command, key, value, id=f"{command}-{key}-{json.dumps(value)}")
    for command in ("analyze", "convergence")
    for key, value in LIBRARY_CHECKED if key in cli._SETTINGS[command]])
def test_settings_the_library_checks_exit_2_before_any_evaluation(
        tmp_path, capsys, command, key, value):
    cfg = config(tmp_path, {**OUTPUT_CONFIGS[command], key: value})
    assert run([command, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: config: ")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_report_never_holds_nan_or_infinity(monkeypatch, capsys, fmt):
    # A CSV report is written only if the same report is valid JSON.
    nan = (math.nan,)
    report = shapeff.Report(kind="main", d=1, n=4, estimates=nan, variance_of_estimator=nan,
                            ci_low=nan, ci_high=nan, sigma2_estimate=None,
                            sigma2_from_pairs=None, eval_count=12, seed=0)
    monkeypatch.setattr(cli, "run_estimator", lambda *args, **kwargs: report)
    assert run(["analyze", "--model", "constant", "--n", "4", "--estimator", "main",
                "--format", fmt]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the report holds a number JSON cannot represent")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_write_that_fails_after_the_run_exits_2(capsys):
    # /dev/full is an existing writable file, so it passes the check made
    # before the run; every write to it then fails.
    assert run(["exact", "--model", "ishigami", "--output", "/dev/full"]) == 2
    assert capsys.readouterr() == ("", "error: cannot write report to /dev/full: "
                                       "[Errno 28] No space left on device\n")


def test_malformed_json_exits_2(tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    assert run(["analyze", "--config", str(cfg)]) == 2
    assert run(["analyze", "--config", str(tmp_path / "missing.json")]) == 2


def test_exact_ishigami(tmp_path):
    out = tmp_path / "exact.json"
    assert run(["exact", "--model", "ishigami", "--output", str(out)]) == 0
    report = read_json(out)
    jsonschema.validate(report, EXACT_SCHEMA)
    assert report["sigma2"] == pytest.approx(13.844587940719254, rel=1e-12)
    assert report["results"][1]["shapley"] == pytest.approx(6.125, rel=1e-12)


def test_exact_sobol_g_cases(tmp_path):
    out = tmp_path / "exact.json"
    cfg = config(tmp_path, {"model": {"name": "sobol-g", "a": [0.0]}, "output": str(out)})
    assert run(["exact", "--config", str(cfg)]) == 0
    report = read_json(out)
    assert report["results"][0]["main"] == pytest.approx(1 / 3, rel=1e-12)
    assert report["results"][0]["shapley"] == pytest.approx(1 / 3, rel=1e-12)

    assert run(["exact", "--model", "sobol-g", "--output", str(out)]) == 0
    report = read_json(out)
    jsonschema.validate(report, EXACT_SCHEMA)
    assert report["sigma2"] == pytest.approx(0.5945358157323086, rel=1e-12)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_closed_forms_that_overflow_exit_2_with_no_report(tmp_path, capsys, fmt):
    cfg = config(tmp_path, {"model": {"name": "ishigami", "a": 1e200}})
    assert run(["exact", "--config", str(cfg), "--format", fmt]) == 2
    assert capsys.readouterr() == (
        "", "error: config: main of variable 2 must be finite, got inf\n")


def test_convergence_against_a_closed_form_that_overflows_exits_2_before_any_trial(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "convergence_study", lambda *args, **kwargs: pytest.fail("ran"))
    cfg = config(tmp_path, {"model": {"name": "ishigami", "a": 1e200}, "ns": [16, 32], "trials": 2})
    assert run(["convergence", "--config", str(cfg)]) == 2
    assert capsys.readouterr() == (
        "", "error: config: main of variable 2 must be finite, got inf\n")


def test_exact_rejects_non_analytic_models(tmp_path):
    assert run(["exact", "--model", "plate-buckling"]) == 2
    cfg = config(tmp_path, {"model": {"command": ["true"], "dim": 2}})
    assert run(["exact", "--config", str(cfg)]) == 2
    assert run(["exact", "--model", "constant"]) == 2


def test_exact_csv_format(tmp_path):
    out = tmp_path / "exact.csv"
    assert run(["exact", "--model", "ishigami", "--format", "csv",
                "--output", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "variable,main,total,shapley"
    assert lines[-2].startswith("#sigma2,")
    assert lines[-1].startswith("#mu,")


def test_convergence_csv_output(tmp_path):
    out = tmp_path / "study.csv"
    cfg = config(tmp_path, {"model": {"name": "ishigami"}, "ns": [64, 128],
                            "trials": 3, "seed": 1, "output": str(out)})
    assert run(["convergence", "--config", str(cfg)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "model,estimator,N,trial,sse"
    assert len([l for l in lines if l.startswith("ishigami,shapley,")]) == 6
    assert lines[-1].startswith("#slope,")


def test_convergence_constant_model_na_slope(tmp_path):
    out = tmp_path / "study.csv"
    cfg = config(tmp_path, {"model": {"name": "constant", "value": 3.0, "dim": 2},
                            "ns": [16, 32], "trials": 3, "seed": 0, "output": str(out)})
    assert run(["convergence", "--config", str(cfg)]) == 0
    lines = out.read_text().strip().splitlines()
    body = [l for l in lines if l.startswith("constant,")]
    assert len(body) == 6
    assert all(l.endswith(",0") for l in body)
    assert lines[-1] == "#slope,na"


def test_convergence_json_format_validates_schema(tmp_path):
    out = tmp_path / "study.json"
    assert run(["convergence", "--model", "ishigami", "--ns", "64,128",
                "--trials", "2", "--seed", "3", "--format", "json",
                "--output", str(out)]) == 0
    report = read_json(out)
    jsonschema.validate(report, CONVERGENCE_SCHEMA)
    assert len(report["rows"]) == 4
    assert len(report["summary"]) == 2


@pytest.mark.parametrize("inputs", ["unit-interval", "default"])
def test_convergence_scores_a_builtin_against_its_closed_form_only_on_its_own_inputs(
        tmp_path, inputs):
    # Ishigami's closed form holds on three Uniform(-pi, pi) inputs. On any
    # other inputs the study scores each trial against the trial mean.
    distributions, exact = {"unit-interval": (UNIT_INTERVAL * 3, None),
                            "default": (BUILTINS["ishigami"].inputs(3), ishigami_exact())}[inputs]
    out = tmp_path / "study.json"
    cfg = config(tmp_path, {"model": {"name": "ishigami"}, "distributions": distributions,
                            "ns": [64, 128], "trials": 3, "seed": 1, "format": "json",
                            "output": str(out)})
    assert run(["convergence", "--config", str(cfg)]) == 0
    study = convergence_study(ishigami(), InputSpace.from_specs(distributions), "shapley",
                              [64, 128], 3, 1, exact=exact)
    assert [row["mean_sse"] for row in read_json(out)["summary"]] == [
        study.mean_sse[64], study.mean_sse[128]]


def test_convergence_requires_ns(tmp_path, capsys):
    assert run(["convergence", "--model", "ishigami"]) == 2
    capsys.readouterr()


def test_stdout_when_no_output_path(capsys):
    assert run(["exact", "--model", "ishigami"]) == 0
    report = json.loads(capsys.readouterr().out)
    jsonschema.validate(report, EXACT_SCHEMA)


SCHEMAS = {"REPORT_SCHEMA": REPORT_SCHEMA, "CONVERGENCE_SCHEMA": CONVERGENCE_SCHEMA,
           "EXACT_SCHEMA": EXACT_SCHEMA}

# Each command's published schema, a command line whose JSON report it
# describes, and the number of record types in that report: the report
# itself and each kind of row.
SCHEMA_REPORTS = {
    "analyze": (REPORT_SCHEMA, ["analyze", "--model", "ishigami", "--n", "64"], 2),
    "convergence": (CONVERGENCE_SCHEMA, ["convergence", "--model", "ishigami", "--ns", "64,128",
                                         "--trials", "2", "--format", "json"], 3),
    "exact": (EXACT_SCHEMA, ["exact", "--model", "ishigami"], 2),
}


@pytest.mark.parametrize("name", SCHEMAS)
def test_published_schemas_are_valid_draft_2020_12_schemas(name):
    jsonschema.Draft202012Validator.check_schema(SCHEMAS[name])


def records(schema, instance):
    """(schema, object) for each object in `instance` that `schema` lists the
    properties of: the report itself and the first row of each of its lists."""
    if schema["type"] == "array":
        yield from records(schema["items"], instance[0])
    elif "properties" in schema:
        yield schema, instance
        for key, sub in schema["properties"].items():
            yield from records(sub, instance[key])


@pytest.mark.parametrize("command", SCHEMA_REPORTS)
def test_every_record_requires_exactly_the_keys_it_lists(capsys, command):
    schema, args, record_types = SCHEMA_REPORTS[command]
    assert run(args) == 0
    report = json.loads(capsys.readouterr().out)
    validator = jsonschema.Draft202012Validator(schema)
    assert validator.is_valid(report)
    found = list(records(schema, report))
    assert len(found) == record_types
    for _, record in found:
        for key in list(record):
            value = record.pop(key)
            assert not validator.is_valid(report), f"valid without {key}"
            record[key] = value
        record["unlisted"] = 0
        assert not validator.is_valid(report), f"valid with an unlisted key beside {list(record)}"
        del record["unlisted"]
    assert validator.is_valid(report)


def test_no_dict_or_list_is_shared_within_or_between_the_schemas():
    """A caller that changes one part of a published schema changes no
    other part and no other schema."""
    seen = []

    def walk(node):
        if isinstance(node, (dict, list)):
            seen.append(id(node))
            for child in node.values() if isinstance(node, dict) else node:
                walk(child)

    for schema in SCHEMAS.values():
        walk(schema)
    assert len(seen) == len(set(seen))


def read_pyproject():
    """pyproject.toml as a dict; skips the test where tomllib is missing."""
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as handle:
        return tomllib.load(handle)


def declared_console_script():
    """The ``shapeff`` value of ``[project.scripts]`` in pyproject.toml."""
    return read_pyproject()["project"]["scripts"]["shapeff"]


def run_console_wrapper(entry_point, args):
    """Run the wrapper an installer generates for ``entry_point`` in a new
    interpreter, importing the same ``shapeff`` package as this test run."""
    wrapper = (f"import sys\n"
               f"from {entry_point.module} import {entry_point.attr}\n"
               f"sys.exit({entry_point.attr}())\n")
    return run_python("-c", wrapper, *args)


def shapeff_distribution_installed():
    try:
        importlib.metadata.distribution("shapeff")
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


def test_console_entry_point_installed():
    # Checks the console script from a checkout: it is declared, resolves to
    # shapeff.cli.main, and behaves as one under the installer's wrapper.
    value = declared_console_script()
    assert value == "shapeff.cli:main"
    entry_point = importlib.metadata.EntryPoint(
        name="shapeff", value=value, group="console_scripts")
    assert entry_point.load() is main

    # Called with no arguments, main must read sys.argv.
    ok = run_console_wrapper(entry_point, ["exact", "--model", "ishigami"])
    assert ok.returncode == 0, ok.stderr
    jsonschema.validate(json.loads(ok.stdout), EXACT_SCHEMA)

    # A config error raised inside main (not by argparse): its return value
    # must become the process exit status, 2 for config errors.
    bad = run_console_wrapper(entry_point, ["exact", "--model", "plate-buckling"])
    assert bad.returncode == 2, bad.stderr
    assert "error: exact indices exist only for " in bad.stderr
    assert bad.stdout == ""


@pytest.mark.skipif(
    not shapeff_distribution_installed(),
    reason="the shapeff distribution is not installed "
           "(importlib.metadata.distribution('shapeff') raises "
           "PackageNotFoundError), so no console script exists")
def test_console_script_on_path():
    script = shutil.which("shapeff")
    assert script is not None
    (entry_point,) = importlib.metadata.entry_points(
        group="console_scripts", name="shapeff")
    assert entry_point.value == declared_console_script()
    result = subprocess.run([script, "exact", "--model", "ishigami"],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    jsonschema.validate(json.loads(result.stdout), EXACT_SCHEMA)


# Runs shapeff.cli.main once per argument list in a new interpreter, then
# prints the exit codes, the reports, whether scipy was ever imported, every
# module loaded and the garbage collector's freeze count before and after.
SCIPY_PROBE = ("import contextlib, gc, io, json, sys\n"
               "import shapeff, shapeff.cli\n"
               "codes, outputs = [], []\n"
               "frozen = gc.get_freeze_count()\n"
               "for args in json.loads(sys.argv[1]):\n"
               "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
               "        codes.append(shapeff.cli.main(args))\n"
               "    outputs.append(out.getvalue())\n"
               "print(json.dumps({'codes': codes, 'outputs': outputs,\n"
               "                  'scipy': 'scipy' in sys.modules,\n"
               "                  'modules': sorted(sys.modules),\n"
               "                  'frozen': [frozen, gc.get_freeze_count()]}))\n")


def run_in_new_interpreter(argvs):
    result = run_python("-c", SCIPY_PROBE, json.dumps(argvs))
    assert result.returncode == 0, result.stderr
    probe = json.loads(result.stdout)
    assert probe["codes"] == [0] * len(argvs), result.stderr
    return probe


@pytest.mark.parametrize("argvs", [
    [],
    [["analyze", "--model", "ishigami", "--n", "64"]],
    [["analyze", "--model", "constant", "--n", "64", "--estimator", "main"]],
    [["exact", "--model", "sobol-g"]],
    [["convergence", "--model", "ishigami", "--ns", "64,128", "--trials", "2"]],
], ids=["import", "analyze-ishigami", "analyze-constant", "exact-sobol-g", "convergence"])
def test_uniform_inputs_never_import_scipy(argvs):
    assert run_in_new_interpreter(argvs)["scipy"] is False


MIXED_INPUTS = [{"kind": "uniform", "lo": -3.0, "hi": 3.0},
                {"kind": "normal", "mean": 0.5, "sd": 1.0},
                {"kind": "lognormal", "mean": 1.0, "cv": 0.2}]


def test_normal_inputs_never_import_scipy_and_match_across_workers(tmp_path):
    # Normal and lognormal inputs are drawn as standard normals, so no run
    # loads scipy, on the calling thread or on a helper. Two chunks run at
    # once on two workers, which load no thread pool, and the reports equal
    # the serial ones bitwise.
    cfg = config(tmp_path, {"model": {"name": "ishigami"}, "distributions": MIXED_INPUTS},
                 "mixed.json")
    plate = ["--model", "plate-buckling", "--seed", "5"]
    argvs = [["analyze", *plate, "--n", "9000"],
             ["convergence", *plate, "--ns", "4100,8200", "--trials", "2", "--format", "json"],
             ["analyze", "--config", str(cfg), "--n", "9000", "--seed", "5"]]
    results = []
    for workers in ("1", "2"):
        probe = run_in_new_interpreter([argv + ["--workers", workers] for argv in argvs])
        assert [name for name in probe["modules"] if name.split(".")[0] == "scipy"] == []
        assert loaded(probe, ["concurrent.futures", "logging"]) == []
        reports = [json.loads(out) for out in probe["outputs"]]
        results.append([reports[0]["results"], reports[1]["rows"], reports[2]["results"]])
    assert results[0] == results[1]


def test_building_normal_inputs_does_not_import_scipy():
    code = ("import sys, shapeff\n"
            "shapeff.plate_buckling_space()\n"
            "print('scipy' in sys.modules)\n")
    result = run_python("-c", code)
    assert result.stdout == "False\n", result.stderr


def test_estimators_never_import_scipy_and_quantile_does_on_first_use():
    code = ("import sys, shapeff\n"
            "cfg = shapeff.EstimatorConfig(n=64, seed=3)\n"
            "for f, space in [(shapeff.ishigami(), shapeff.ishigami_space()),\n"
            "                 (shapeff.sobol_g([0.0, 1.0]), shapeff.sobol_g_space(2)),\n"
            "                 (shapeff.plate_buckling(), shapeff.plate_buckling_space()),\n"
            "                 (shapeff.constant_model(1.0, 2), shapeff.sobol_g_space(2))]:\n"
            "    for estimate in (shapeff.estimate_shapley_all, shapeff.estimate_shapley_winding,\n"
            "                     shapeff.estimate_main_effects, shapeff.estimate_total_effects):\n"
            "        estimate(f, space, cfg)\n"
            "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))\n"
            "print(shapeff.Normal(0.0, 1.0).quantile(0.975), 'scipy' in sys.modules)\n")
    result = run_python("-c", code)
    assert result.stdout.split() == ["False", "1.959963984540054", "True"], result.stderr


# Modules that no command loads unless it runs the code that needs them:
# external processes and the ANOVA oracle's quadrature; scipy loads only for
# MarginalDistribution.quantile, which no command calls. No command loads
# concurrent.futures or logging: worker threads are plain threading.Threads.
ON_DEMAND = ["subprocess", "concurrent.futures", "logging", "numpy.polynomial", "scipy"]


def loaded(probe, names):
    return [name for name in names if name in probe["modules"]]


@pytest.mark.parametrize("argvs", [
    [],
    [["analyze", "--model", "ishigami", "--n", "64", "--workers", "1"]],
    [["analyze", "--model", "plate-buckling", "--n", "64", "--workers", "1"]],
    [["exact", "--model", "sobol-g"]],
    [["convergence", "--model", "ishigami", "--ns", "64,128", "--trials", "2"]],
], ids=["import", "analyze-ishigami", "analyze-plate-buckling", "exact-sobol-g", "convergence"])
def test_commands_load_only_the_modules_they_run(argvs):
    probe = run_in_new_interpreter(argvs)
    assert loaded(probe, ON_DEMAND) == []
    if argvs and argvs[0][0] == "exact":
        # exact neither samples nor derives trial seeds.
        assert loaded(probe, ["hashlib", "numpy.random"]) == []
    # A call with an argv leaves the garbage collector alone.
    assert probe["frozen"][0] == probe["frozen"][1]


def test_worker_threads_and_external_models_load_their_modules(tmp_path):
    # Two workers and two chunks of samples start one helper thread, which
    # loads nothing: no thread pool and no logging.
    threaded = run_in_new_interpreter(
        [["analyze", "--model", "ishigami", "--n", "4097", "--workers", "2"]])
    assert loaded(threaded, ON_DEMAND) == []
    cfg = config(tmp_path, {"model": {"command": [sys.executable, "-c", ECHO_FIRST], "dim": 1},
                            "distributions": UNIT_INTERVAL, "n": 16})
    external = run_in_new_interpreter([["analyze", "--config", str(cfg)]])
    assert loaded(external, ON_DEMAND) == ["subprocess"]


def test_main_run_as_the_program_freezes_the_import_time_objects():
    probe = ("import contextlib, gc, io, sys\n"
             "import shapeff.cli\n"
             "sys.argv = ['shapeff', 'exact', '--model', 'ishigami']\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    code = shapeff.cli.main()\n"
             "print(code, gc.get_freeze_count() > 0)\n")
    result = run_python("-c", probe)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["0", "True"]
