"""Command-line front end: analyze, convergence, exact.

Configuration is JSON with strict validation: unknown keys anywhere in the
file are rejected, because a typo in a distribution spec would otherwise
silently corrupt an analysis, and so are repeated keys, of which json would
silently keep the last. Command-line flags override config values.
Reports embed the fully resolved config and the library version, so a report
is a complete recipe for reproducing itself: rerunning `analyze` with the
embedded config and seed gives bitwise-identical estimates.

Exit codes: 0 success, 2 configuration error, 3 model evaluation error.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import sys
import time
from collections import Counter
from typing import Sequence

from . import __version__
from .analysis import (ESTIMATOR_KINDS, _csv_cell, convergence_csv_lines,
                       convergence_study, run_estimator)
from .errors import ConfigError, EvaluationError, ParameterError, _check_keys
# Runs go through analysis.run_estimator. The estimate_* names stay bound here
# because perfbench's tracer wraps them in every module that imports them.
from .estimators import (EstimatorConfig, estimate_main_effects,  # noqa: F401
                         estimate_shapley_all, estimate_shapley_winding,
                         estimate_total_effects)
from .inputs import InputSpace
from .models import BUILTINS, ExternalModel
from .reference import ishigami_exact, sobol_g_exact

# Each command's run settings and their defaults, in the order its report's
# resolved config lists them after the model (and the distributions, which
# exact does not take). Its config keys and flags derive from here.
_REQUIRED = "required"
_SETTINGS = {
    "analyze": {"estimator": "shapley", "n": _REQUIRED, "seed": 0, "workers": 1,
                "ci_z": 1.96, "format": "json"},
    "convergence": {"estimator": "shapley", "ns": _REQUIRED, "trials": 10, "seed": 0,
                    "workers": 1, "format": "csv"},
    "exact": {"format": "json"},
}
# What a config that lacks a required key is told it needs.
_NEEDS = {"model": "a model", "n": "a sample size n", "ns": "a list of sample sizes ns"}
# The flag of every setting but ci_z, which only a config file sets.
_FLAGS = {
    "estimator": {"choices": ESTIMATOR_KINDS, "help": "which effect estimator to run"},
    "n": {"type": int, "help": "Monte Carlo sample size N"},
    "ns": {"help": "comma-separated sample sizes"},
    "trials": {"type": int, "help": "trials per sample size"},
    "seed": {"type": int, "help": "base RNG seed"},
    "workers": {"type": int, "help": "threads that run chunks, the calling one included"},
    "format": {"choices": ["json", "csv"], "help": "report format"},
}

_EXTERNAL_KEYS = {"command", "dim"}

# Closed-form indices of the builtins that have them, from the resolved model
# config. They are not in models.BUILTINS because reference imports models.
# The reference functions are looked up in this module at call time, so a
# caller that rebinds these names (the benchmark's tracer) sees every call.
_EXACT = {
    "ishigami": lambda model: ishigami_exact(model["a"], model["b"]),
    "sobol-g": lambda model: sobol_g_exact(model["a"]),
}


def _record(**properties) -> dict:
    """The schema of a JSON object with exactly these properties: each one
    is required and any other key is rejected."""
    return {"type": "object", "required": list(properties), "additionalProperties": False,
            "properties": properties}


def _rows(**properties) -> dict:
    """The schema of a list of records with these properties."""
    return {"type": "array", "items": _record(**properties)}


def _report_schema(**properties) -> dict:
    """The published schema of a report: a record of the resolved config,
    the library version and then these properties."""
    return {"$schema": "https://json-schema.org/draft/2020-12/schema",
            **_record(config={"type": "object"}, version={"type": "string"}, **properties)}


# Every leaf schema is written out where it is used, so that no two places
# in the published schemas share one dict a caller could modify.
REPORT_SCHEMA = _report_schema(
    results=_rows(variable={"type": "integer", "minimum": 1},
                  estimate={"type": "number"},
                  variance={"type": ["number", "null"]},
                  ci_low={"type": ["number", "null"]},
                  ci_high={"type": ["number", "null"]}),
    sigma2_estimate={"type": ["number", "null"]},
    eval_count={"type": "integer", "minimum": 0},
    seed={"type": "integer"},
    elapsed_seconds={"type": "number", "minimum": 0})

EXACT_SCHEMA = _report_schema(
    results=_rows(variable={"type": "integer", "minimum": 1},
                  main={"type": "number"},
                  total={"type": "number"},
                  shapley={"type": "number"}),
    sigma2={"type": "number"},
    mu={"type": ["number", "null"]})

CONVERGENCE_SCHEMA = _report_schema(
    rows=_rows(n={"type": "integer", "minimum": 2},
               trial={"type": "integer", "minimum": 1},
               sse={"type": "number", "minimum": 0}),
    summary=_rows(n={"type": "integer", "minimum": 2},
                  mean_sse={"type": "number", "minimum": 0}),
    slope={"type": ["number", "null"]},
    elapsed_seconds={"type": "number", "minimum": 0})


def _resolve_model(model_cfg):
    """Build the ModelFunction; return (model, resolved model config). The
    library checks the values; its ParameterError is raised again as a
    ConfigError that names the model."""
    if not isinstance(model_cfg, dict):
        raise ConfigError(f"model must be an object, got {model_cfg!r}")
    try:
        if "command" in model_cfg:
            _check_keys(model_cfg, _EXTERNAL_KEYS, "model")
            if "dim" not in model_cfg:
                raise ConfigError("model.dim is required")
            model = ExternalModel(model_cfg["command"], model_cfg["dim"])
            return model, {"command": model_cfg["command"], "dim": model.dim}
        name = model_cfg.get("name")
        if name not in BUILTINS:
            raise ConfigError(f"model.name must be one of {sorted(BUILTINS)}, got {name!r}")
        builtin = BUILTINS[name]
        _check_keys(model_cfg, {"name", *builtin.keys}, "model")
        params = builtin.read(model_cfg, builtin.keys)
        return builtin.factory(**params), {"name": name, **params}
    except ParameterError as exc:
        raise ConfigError(f"model: {exc}")


@contextlib.contextmanager
def _model_and_space(cfg: dict, settings: dict):
    """Yield (model, input space, resolved config): the resolved config is
    the model's, the distribution specs, then the run settings. An external
    model's process is closed on exit."""
    model, model_resolved = _resolve_model(cfg["model"])
    try:
        specs = cfg.get("distributions")
        if specs is None:
            if "command" in model_resolved:
                raise ConfigError("external models need an explicit distributions list")
            specs = BUILTINS[model_resolved["name"]].inputs(model.dim)
        if not isinstance(specs, list):
            raise ConfigError(f"distributions must be a list, got {specs!r}")
        if len(specs) != model.dim:
            raise ConfigError(
                f"distributions length {len(specs)} does not match model dimension {model.dim}")
        resolved = {"model": model_resolved, "distributions": specs, **settings}
        yield model, InputSpace.from_specs(specs), resolved
    finally:
        if isinstance(model, ExternalModel):
            model.close()


def _unique_keys(pairs: list) -> dict:
    repeated = sorted(key for key, times in Counter(k for k, _ in pairs).items() if times > 1)
    if repeated:
        raise ConfigError(f"repeated key(s) in config: {', '.join(repeated)}")
    return dict(pairs)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            config = json.load(handle, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except ConfigError:
        # A repeated key, which _unique_keys raises: not a JSON error.
        raise
    except ValueError as exc:
        # A JSONDecodeError, or an integer literal too long to convert.
        raise ConfigError(f"config {path} is not valid JSON: {exc}")
    except RecursionError:
        raise ConfigError(f"config {path} is nested too deeply to read")
    if not isinstance(config, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return config


def _config(args: argparse.Namespace) -> tuple[dict, dict]:
    """The config file with the flags merged over it, checked for unknown
    keys, for required keys and for a writable output; and the command's run
    settings, with the defaults of those not given."""
    table = _SETTINGS[args.command]
    cfg = _load_config(args.config)
    for key in ("model", "output", *table):
        value = getattr(args, key, None)
        if value is None:
            continue
        if key == "ns":
            try:
                value = [int(v) for v in value.split(",")]
            except ValueError:
                raise ConfigError(f"--ns must be comma-separated integers, got {value!r}")
        cfg[key] = {"name": value} if key == "model" else value
    allowed = {"model", "output", *table}
    if args.command != "exact":
        allowed.add("distributions")
    _check_keys(cfg, allowed, "config")
    for key in ("model", *(key for key, default in table.items() if default == _REQUIRED)):
        if key not in cfg:
            raise ConfigError(f"config needs {_NEEDS[key]} (or pass --{key})")
    output = cfg.get("output")
    if output is not None:
        if not isinstance(output, str):
            raise ConfigError(f"output must be a file path, got {output!r}")
        _check_writable(output)
    return cfg, {key: _setting(cfg, key) if key in cfg else default
                 for key, default in table.items()}


def _setting(cfg: dict, key: str):
    """cfg[key], with the checks only the CLI makes: the report format, and
    that ns is a list. The library checks every other setting before any
    evaluation, and main names the config in its errors."""
    value = cfg[key]
    if key == "ns" and not isinstance(value, list):
        raise ConfigError(f"ns must be a list of integers, got {value!r}")
    if key == "format" and value not in ("json", "csv"):
        raise ConfigError(f"format must be json or csv, got {value!r}")
    return value


def _check_writable(path: str) -> None:
    """ConfigError unless a report can be written to `path`, so that a run
    never ends in a report it cannot keep. Nothing is created."""
    directory = os.path.dirname(path) or "."
    if not path:
        problem = "the path is empty"
    elif os.path.isdir(path):
        problem = "it is a directory"
    elif not os.path.isdir(directory):
        problem = f"no directory {directory}"
    elif not os.access(directory, os.W_OK) or (os.path.exists(path)
                                               and not os.access(path, os.W_OK)):
        problem = "permission denied"
    else:
        return
    raise ConfigError(f"cannot write report to {path}: {problem}")


def _csv_lines(rows: list[dict], footer: dict) -> list[str]:
    """A header, one line per row, then one #key,value line per footer item."""
    lines = [",".join(rows[0])] + [",".join(map(_csv_cell, row.values())) for row in rows]
    return lines + [f"#{key},{_csv_cell(value)}" for key, value in footer.items()]


def _emit(cfg: dict, resolved: dict, fields: dict, csv_lines: list[str]) -> None:
    """Write the report, in the resolved config's format, to the config's
    output or stdout: as JSON, the resolved config, the library version and
    then `fields`; as CSV, `csv_lines`. If that JSON would hold a NaN or an
    infinity that got past the library's checks, neither format is written
    and EvaluationError is raised."""
    report = {"config": resolved, "version": __version__, **fields}
    try:
        text = json.dumps(report, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise EvaluationError(f"the report holds a number JSON cannot represent: {exc}") from None
    if resolved["format"] == "csv":
        text = "\n".join(csv_lines) + "\n"
    output = cfg.get("output")
    if output is None:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write report to {output}: {exc}")


def cmd_analyze(cfg: dict, settings: dict) -> tuple[dict, dict, list[str]]:
    """Run one estimator on `_config`'s cfg and settings. Return, for
    `_emit`, the resolved config, the JSON fields and the CSV lines; an
    external model's process has ended by then, as in cmd_convergence."""
    est_cfg = EstimatorConfig(**{key: settings[key] for key in ("n", "seed", "workers", "ci_z")})
    # The report echoes ci_z as the float the run used: 3 reads 3.0.
    settings["ci_z"] = est_cfg.ci_z
    with _model_and_space(cfg, settings) as (model, space, resolved):
        start = time.perf_counter()
        rep = run_estimator(settings["estimator"], model, space, est_cfg)
        elapsed = time.perf_counter() - start
    none = (None,) * rep.d
    cells = zip(rep.estimates, rep.variance_of_estimator or none,
                rep.ci_low or none, rep.ci_high or none)
    rows = [{"variable": j + 1, "estimate": est, "variance": var,
             "ci_low": low, "ci_high": high}
            for j, (est, var, low, high) in enumerate(cells)]
    totals = {"sigma2_estimate": rep.sigma2_estimate, "eval_count": rep.eval_count,
              "seed": settings["seed"]}
    return (resolved, {"results": rows, **totals, "elapsed_seconds": elapsed},
            _csv_lines(rows, {**totals, "elapsed_seconds": f"{elapsed:.6f}"}))


def cmd_convergence(cfg: dict, settings: dict) -> tuple[dict, dict, list[str]]:
    """Run a convergence study; return as cmd_analyze does."""
    with _model_and_space(cfg, settings) as (model, space, resolved):
        # A builtin's closed form holds only on the builtin's own inputs;
        # otherwise the study scores against the trial mean.
        name = resolved["model"].get("name")
        own = name in _EXACT and space == InputSpace.from_specs(BUILTINS[name].inputs(model.dim))
        exact = _EXACT[name](resolved["model"]) if own else None
        start = time.perf_counter()
        study = convergence_study(model, space, settings["estimator"], settings["ns"],
                                  settings["trials"], settings["seed"], exact=exact,
                                  workers=settings["workers"])
        elapsed = time.perf_counter() - start
    fields = {
        "rows": [{"n": n, "trial": r, "sse": study.sse_per_trial[(n, r)]}
                 for n in study.ns for r in range(1, study.trials + 1)],
        "summary": [{"n": n, "mean_sse": study.mean_sse[n]} for n in study.ns],
        "slope": study.fitted_slope,
        "elapsed_seconds": elapsed,
    }
    return resolved, fields, convergence_csv_lines(study)


def cmd_exact(cfg: dict, settings: dict) -> tuple[dict, dict, list[str]]:
    """A builtin's closed-form indices, returned as cmd_analyze does; no
    model is evaluated."""
    _, model_resolved = _resolve_model(cfg["model"])
    name = model_resolved.get("name")
    if name not in _EXACT:
        raise ConfigError(f"exact indices exist only for {' and '.join(_EXACT)}, "
                          f"got {name or model_resolved!r}")
    idx = _EXACT[name](model_resolved)
    rows = [{"variable": j + 1, "main": idx.main[j], "total": idx.total[j],
             "shapley": idx.shapley[j]} for j in range(idx.d)]
    totals = {"sigma2": idx.sigma2, "mu": idx.mu}
    return ({"model": model_resolved, **settings}, {"results": rows, **totals},
            _csv_lines(rows, totals))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shapeff",
        description="Variance-based sensitivity analysis: Shapley, main, and "
                    "total effect estimation with convergence tooling.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, text in [
            ("analyze", cmd_analyze, "estimate effects for one model"),
            ("convergence", cmd_convergence, "run an SSE convergence study"),
            ("exact", cmd_exact, "print closed-form indices for analytic models")]:
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--model", help="builtin model name")
        p.add_argument("--output", help="write the report here instead of stdout")
        for key in _SETTINGS[name]:
            if key in _FLAGS:
                p.add_argument(f"--{key}", **_FLAGS[key])
        p.set_defaults(func=func)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        # Run as the program (`python -m shapeff.cli` or the `shapeff`
        # script): freeze the objects the imports made, so that neither the
        # collections during the run nor the final ones at exit walk them.
        # On a 2-core VM this took a cold `shapeff exact --model sobol-g`
        # from 295 to 258 ms (medians of 31). A call with an argv (tests, the
        # benchmark's tracer, other embedders) leaves the collector alone.
        gc.freeze()
    args = _build_parser().parse_args(argv)
    try:
        cfg, settings = _config(args)
        _emit(cfg, *args.func(cfg, settings))
        return 0
    except ParameterError as exc:
        # The model and the distributions raise theirs as ConfigError naming
        # them, so what remains is a run setting's, which the library checks.
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EvaluationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
