"""Command-line front end: analyze, convergence, exact.

Configuration is JSON with strict validation: unknown keys anywhere in the
file are rejected, because a typo in a distribution spec would otherwise
silently corrupt an analysis. Command-line flags override config values.
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
from typing import Sequence

from . import __version__
from .analysis import (ESTIMATOR_KINDS, convergence_csv_lines, convergence_study,
                       run_estimator)
from .errors import (CapacityError, ConfigError, EvaluationError, ParameterError,
                     _check_keys, _require_int, _require_number)
# Runs go through analysis.run_estimator. The estimate_* names stay bound here
# because perfbench's tracer wraps them in every module that imports them.
from .estimators import (EstimatorConfig, estimate_main_effects,  # noqa: F401
                         estimate_shapley_all, estimate_shapley_winding,
                         estimate_total_effects)
from .inputs import InputSpace
from .models import BUILTINS, ExternalModel
from .reference import ishigami_exact, sobol_g_exact

_ANALYZE_KEYS = {"model", "distributions", "estimator", "n", "seed", "workers",
                 "ci_z", "cyclic", "output", "format"}
_CONVERGENCE_KEYS = {"model", "distributions", "estimator", "ns", "trials",
                     "seed", "workers", "output", "format"}
_EXACT_KEYS = {"model", "output", "format"}

_EXTERNAL_KEYS = {"command", "dim"}

# Closed-form indices of the builtins that have them, from the resolved model
# config. They are not in models.BUILTINS because reference imports models.
# The reference functions are looked up in this module at call time, so a
# caller that rebinds these names (the benchmark's tracer) sees every call.
_EXACT = {
    "ishigami": lambda model: ishigami_exact(model["a"], model["b"]),
    "sobol-g": lambda model: sobol_g_exact(model["a"]),
}

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["config", "version", "results", "sigma2_estimate",
                 "eval_count", "seed", "elapsed_seconds"],
    "additionalProperties": False,
    "properties": {
        "config": {"type": "object"},
        "version": {"type": "string"},
        "results": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["variable", "estimate", "variance", "ci_low", "ci_high"],
                "additionalProperties": False,
                "properties": {
                    "variable": {"type": "integer", "minimum": 1},
                    "estimate": {"type": "number"},
                    "variance": {"type": ["number", "null"]},
                    "ci_low": {"type": ["number", "null"]},
                    "ci_high": {"type": ["number", "null"]},
                },
            },
        },
        "sigma2_estimate": {"type": ["number", "null"]},
        "eval_count": {"type": "integer", "minimum": 0},
        "seed": {"type": "integer"},
        "elapsed_seconds": {"type": "number", "minimum": 0},
    },
}

EXACT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["config", "version", "results", "sigma2", "mu"],
    "additionalProperties": False,
    "properties": {
        "config": {"type": "object"},
        "version": {"type": "string"},
        "results": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["variable", "main", "total", "shapley"],
                "additionalProperties": False,
                "properties": {
                    "variable": {"type": "integer", "minimum": 1},
                    "main": {"type": "number"},
                    "total": {"type": "number"},
                    "shapley": {"type": "number"},
                },
            },
        },
        "sigma2": {"type": "number"},
        "mu": {"type": ["number", "null"]},
    },
}

CONVERGENCE_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["config", "version", "rows", "summary", "slope", "elapsed_seconds"],
    "additionalProperties": False,
    "properties": {
        "config": {"type": "object"},
        "version": {"type": "string"},
        "rows": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["n", "trial", "sse"],
                "additionalProperties": False,
                "properties": {
                    "n": {"type": "integer", "minimum": 2},
                    "trial": {"type": "integer", "minimum": 1},
                    "sse": {"type": "number", "minimum": 0},
                },
            },
        },
        "summary": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["n", "mean_sse"],
                "additionalProperties": False,
                "properties": {
                    "n": {"type": "integer", "minimum": 2},
                    "mean_sse": {"type": "number", "minimum": 0},
                },
            },
        },
        "slope": {"type": ["number", "null"]},
        "elapsed_seconds": {"type": "number", "minimum": 0},
    },
}


def _resolve_model(model_cfg):
    """Build the ModelFunction; return (model, resolved model config)."""
    if not isinstance(model_cfg, dict):
        raise ConfigError(f"model must be an object, got {model_cfg!r}")
    if "command" in model_cfg:
        _check_keys(model_cfg, _EXTERNAL_KEYS, "model")
        command = model_cfg.get("command")
        if (not isinstance(command, list) or not command
                or not all(isinstance(c, str) for c in command)):
            raise ConfigError(
                f"model.command must be a non-empty list of strings, got {command!r}")
        dim = _require_int(model_cfg, "dim", 1, "model")
        return ExternalModel(command, dim), {"command": command, "dim": dim}

    name = model_cfg.get("name")
    if name not in BUILTINS:
        raise ConfigError(f"model.name must be one of {sorted(BUILTINS)}, got {name!r}")
    builtin = BUILTINS[name]
    _check_keys(model_cfg, {"name", *builtin.keys}, "model")
    params = builtin.read(model_cfg, builtin.keys)
    try:
        return builtin.factory(**params), {"name": name, **params}
    except ParameterError as exc:
        raise ConfigError(f"model: {exc}")


@contextlib.contextmanager
def _model_and_space(cfg: dict):
    """Yield (model, input space, resolved model config, distribution specs);
    an external model's process is closed on exit."""
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
        yield model, InputSpace.from_specs(specs), model_resolved, specs
    finally:
        if isinstance(model, ExternalModel):
            model.close()


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            config = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}")
    if not isinstance(config, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return config


def _config(args: argparse.Namespace, allowed: set) -> dict:
    """The config file with the flags merged over it, checked for unknown
    keys and for a model."""
    cfg = _load_config(args.config)
    if getattr(args, "model", None) is not None:
        cfg["model"] = {"name": args.model}
    for key in ("n", "seed", "trials", "workers", "output", "format", "estimator"):
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    if getattr(args, "ns", None) is not None:
        try:
            cfg["ns"] = [int(v) for v in args.ns.split(",")]
        except ValueError:
            raise ConfigError(f"--ns must be comma-separated integers, got {args.ns!r}")
    if getattr(args, "cyclic", False):
        cfg["cyclic"] = True
    _check_keys(cfg, allowed, "config")
    if "model" not in cfg:
        raise ConfigError("config needs a model (or pass --model)")
    output = cfg.get("output")
    if output is not None:
        if not isinstance(output, str):
            raise ConfigError(f"output must be a file path, got {output!r}")
        _check_writable(output)
    return cfg


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
    """A header, one line per row, then one #key,value line per footer item.
    Floats print with 17 significant digits and None as na."""
    def cell(value):
        return "na" if value is None else f"{value:.17g}" if isinstance(value, float) else str(value)

    lines = [",".join(rows[0])] + [",".join(map(cell, row.values())) for row in rows]
    return lines + [f"#{key},{cell(value)}" for key, value in footer.items()]


def _emit(fmt: str, report: dict, csv_lines: list[str], output: str | None) -> None:
    """Write the report as JSON, or its CSV lines, to `output` or stdout."""
    text = (json.dumps(report, indent=2) if fmt == "json" else "\n".join(csv_lines)) + "\n"
    if output is None:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write report to {output}: {exc}")


def cmd_analyze(args: argparse.Namespace) -> int:
    cfg = _config(args, _ANALYZE_KEYS)
    if "n" not in cfg:
        raise ConfigError("config needs a sample size n (or pass --n)")

    with _model_and_space(cfg) as (model, space, model_resolved, dist_specs):
        estimator = cfg.get("estimator", "shapley")
        if estimator not in ESTIMATOR_KINDS:
            raise ConfigError(f"estimator must be one of {ESTIMATOR_KINDS}, got {estimator!r}")
        n = _require_int(cfg, "n", 2)
        seed = _require_int(cfg, "seed", 0) if "seed" in cfg else 0
        workers = _require_int(cfg, "workers", 1) if "workers" in cfg else 1
        ci_z = _require_number(cfg, "ci_z") if "ci_z" in cfg else 1.96
        cyclic = cfg.get("cyclic", False)
        if not isinstance(cyclic, bool):
            raise ConfigError(f"cyclic must be a boolean, got {cyclic!r}")
        fmt = cfg.get("format", "json")
        if fmt not in ("json", "csv"):
            raise ConfigError(f"format must be json or csv, got {fmt!r}")

        resolved = {
            "model": model_resolved,
            "distributions": dist_specs,
            "estimator": estimator,
            "n": n,
            "seed": seed,
            "workers": workers,
            "ci_z": ci_z,
            "cyclic": cyclic,
            "format": fmt,
        }
        est_cfg = EstimatorConfig(n=n, seed=seed, workers=workers, ci_z=ci_z)
        start = time.perf_counter()
        rep = run_estimator(estimator, model, space, est_cfg, cyclic=cyclic)
        elapsed = time.perf_counter() - start
        none = (None,) * rep.d
        cells = zip(rep.estimates, rep.variance_of_estimator or none,
                    rep.ci_low or none, rep.ci_high or none)
        rows = [{"variable": j + 1, "estimate": est, "variance": var,
                 "ci_low": low, "ci_high": high}
                for j, (est, var, low, high) in enumerate(cells)]
        totals = {"sigma2_estimate": rep.sigma2_estimate, "eval_count": rep.eval_count,
                  "seed": seed}
        report = {"config": resolved, "version": __version__, "results": rows,
                  **totals, "elapsed_seconds": elapsed}
        _emit(fmt, report, _csv_lines(rows, {**totals, "elapsed_seconds": f"{elapsed:.6f}"}),
              cfg.get("output"))
        return 0


def cmd_convergence(args: argparse.Namespace) -> int:
    cfg = _config(args, _CONVERGENCE_KEYS)
    if "ns" not in cfg:
        raise ConfigError("config needs a list of sample sizes ns (or pass --ns)")

    with _model_and_space(cfg) as (model, space, model_resolved, dist_specs):
        estimator = cfg.get("estimator", "shapley")
        ns = cfg["ns"]
        if not isinstance(ns, list) or not all(
                isinstance(v, int) and not isinstance(v, bool) for v in ns):
            raise ConfigError(f"ns must be a list of integers, got {ns!r}")
        trials = _require_int(cfg, "trials", 2) if "trials" in cfg else 10
        seed = _require_int(cfg, "seed", 0) if "seed" in cfg else 0
        workers = _require_int(cfg, "workers", 1) if "workers" in cfg else 1
        fmt = cfg.get("format", "csv")
        if fmt not in ("json", "csv"):
            raise ConfigError(f"format must be json or csv, got {fmt!r}")

        name = model_resolved.get("name")
        exact = _EXACT[name](model_resolved) if name in _EXACT else None

        resolved = {
            "model": model_resolved,
            "distributions": dist_specs,
            "estimator": estimator,
            "ns": ns,
            "trials": trials,
            "seed": seed,
            "workers": workers,
            "format": fmt,
        }
        start = time.perf_counter()
        study = convergence_study(model, space, estimator, ns, trials, seed,
                                  exact=exact, workers=workers)
        elapsed = time.perf_counter() - start
        report = {
            "config": resolved,
            "version": __version__,
            "rows": [{"n": n, "trial": r, "sse": study.sse_per_trial[(n, r)]}
                     for n in study.ns for r in range(1, study.trials + 1)],
            "summary": [{"n": n, "mean_sse": study.mean_sse[n]} for n in study.ns],
            "slope": study.fitted_slope,
            "elapsed_seconds": elapsed,
        }
        _emit(fmt, report, convergence_csv_lines(study), cfg.get("output"))
        return 0


def cmd_exact(args: argparse.Namespace) -> int:
    cfg = _config(args, _EXACT_KEYS)
    model_cfg = cfg["model"]
    if not isinstance(model_cfg, dict):
        raise ConfigError(f"model must be an object, got {model_cfg!r}")
    name = model_cfg.get("name")
    if name not in _EXACT:
        raise ConfigError(f"exact indices exist only for {' and '.join(_EXACT)}, "
                          f"got {name or model_cfg!r}")
    _, model_resolved = _resolve_model(model_cfg)
    idx = _EXACT[name](model_resolved)

    fmt = cfg.get("format", "json")
    if fmt not in ("json", "csv"):
        raise ConfigError(f"format must be json or csv, got {fmt!r}")
    rows = [{"variable": j + 1, "main": idx.main[j], "total": idx.total[j],
             "shapley": idx.shapley[j]} for j in range(idx.d)]
    report = {"config": {"model": model_resolved, "format": fmt}, "version": __version__,
              "results": rows, "sigma2": idx.sigma2, "mu": idx.mu}
    _emit(fmt, report, _csv_lines(rows, {"sigma2": idx.sigma2, "mu": idx.mu}),
          cfg.get("output"))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shapeff",
        description="Variance-based sensitivity analysis: Shapley, main, and "
                    "total effect estimation with convergence tooling.")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="estimate effects for one model")
    convergence = sub.add_parser("convergence", help="run an SSE convergence study")
    exact = sub.add_parser("exact", help="print closed-form indices for analytic models")

    for p in (analyze, convergence, exact):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--model", help="builtin model name")
        p.add_argument("--output", help="write the report here instead of stdout")
        p.add_argument("--format", choices=["json", "csv"], help="report format")
    for p in (analyze, convergence):
        p.add_argument("--seed", type=int, help="base RNG seed")
        p.add_argument("--workers", type=int, help="estimator worker threads")
        p.add_argument("--estimator", choices=list(ESTIMATOR_KINDS),
                       help="which effect estimator to run")
    analyze.add_argument("--n", type=int, help="Monte Carlo sample size N")
    analyze.add_argument("--cyclic", action="store_true",
                         help="winding stairs: close the sequence into a cycle")
    analyze.set_defaults(func=cmd_analyze)
    convergence.add_argument("--ns", help="comma-separated sample sizes")
    convergence.add_argument("--trials", type=int, help="trials per sample size")
    convergence.set_defaults(func=cmd_convergence)
    exact.set_defaults(func=cmd_exact)
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
        return args.func(args)
    except (ConfigError, CapacityError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EvaluationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
