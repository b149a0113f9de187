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
import json
import math
import sys
import time
from typing import Sequence

from . import __version__
from .analysis import (ESTIMATOR_KINDS, convergence_csv_lines, convergence_study,
                       run_estimator)
from .errors import CapacityError, ConfigError, EvaluationError, ParameterError
# Runs go through analysis.run_estimator. The estimate_* names stay bound here
# because perfbench's tracer wraps them in every module that imports them.
from .estimators import (EstimatorConfig, estimate_main_effects,  # noqa: F401
                         estimate_shapley_all, estimate_shapley_winding,
                         estimate_total_effects)
from .inputs import InputSpace, LogNormal, Normal, Uniform
from .models import (ExternalModel, constant_model, ishigami, plate_buckling,
                     sobol_g)
from .reference import ishigami_exact, sobol_g_exact

_ANALYZE_KEYS = {"model", "distributions", "estimator", "n", "seed", "workers",
                 "ci_z", "cyclic", "output", "format"}
_CONVERGENCE_KEYS = {"model", "distributions", "estimator", "ns", "trials",
                     "seed", "workers", "output", "format"}
_EXACT_KEYS = {"model", "output", "format"}

_MODEL_KEYS = {
    "ishigami": {"name", "a", "b"},
    "sobol-g": {"name", "a", "d"},
    "plate-buckling": {"name"},
    "constant": {"name", "value", "dim"},
}
_EXTERNAL_KEYS = {"command", "dim"}

_DIST_KEYS = {
    "uniform": {"kind", "lo", "hi"},
    "normal": {"kind", "mean", "sd", "cv"},
    "lognormal": {"kind", "mean", "cv"},
}

_PLATE_TABLE = [
    {"kind": "normal", "mean": 23.808, "cv": 0.028},
    {"kind": "lognormal", "mean": 0.525, "cv": 0.044},
    {"kind": "lognormal", "mean": 44.2, "cv": 0.1235},
    {"kind": "normal", "mean": 28623.0, "cv": 0.076},
    {"kind": "normal", "mean": 0.35, "cv": 0.05},
    {"kind": "normal", "mean": 5.25, "cv": 0.07},
]

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


def _check_keys(obj: dict, allowed: set, where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _require_int(cfg: dict, key: str, minimum: int, where: str = "config") -> int:
    value = cfg[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: {key} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{where}: {key} must be >= {minimum}, got {value}")
    return value


def _require_number(cfg: dict, key: str, where: str = "config") -> float:
    value = cfg[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: {key} must be a number, got {value!r}")
    return float(value)


def _marginal_from_spec(spec, where: str):
    if not isinstance(spec, dict):
        raise ConfigError(f"{where} must be an object, got {spec!r}")
    kind = spec.get("kind")
    if kind not in _DIST_KEYS:
        raise ConfigError(f"{where}: kind must be one of {sorted(_DIST_KEYS)}, got {kind!r}")
    _check_keys(spec, _DIST_KEYS[kind], where)
    required = _DIST_KEYS[kind]
    if kind == "normal":
        spread = {"sd", "cv"} & set(spec)
        if len(spread) != 1:
            raise ConfigError(f"{where}: normal takes exactly one of sd or cv, got "
                              f"{' and '.join(sorted(spread)) or 'neither'}")
        required = required - {"sd", "cv"} | spread
    missing = required - set(spec)
    if missing:
        raise ConfigError(f"{where}: missing key(s): {', '.join(sorted(missing))}")
    try:
        if kind == "uniform":
            return Uniform(_require_number(spec, "lo", where), _require_number(spec, "hi", where))
        if kind == "normal" and "sd" in spec:
            return Normal(_require_number(spec, "mean", where),
                          _require_number(spec, "sd", where))
        if kind == "normal":
            return Normal.from_cv(_require_number(spec, "mean", where),
                                  _require_number(spec, "cv", where))
        return LogNormal(_require_number(spec, "mean", where),
                         _require_number(spec, "cv", where))
    except ParameterError as exc:
        raise ConfigError(f"{where}: {exc}")


def _canonical_distribution_specs(name: str, dim: int) -> list[dict]:
    if name == "ishigami":
        return [{"kind": "uniform", "lo": -math.pi, "hi": math.pi}] * 3
    if name == "sobol-g":
        return [{"kind": "uniform", "lo": 0.0, "hi": 1.0}] * dim
    if name == "plate-buckling":
        return [dict(spec) for spec in _PLATE_TABLE]
    if name == "constant":
        return [{"kind": "uniform", "lo": 0.0, "hi": 1.0}] * dim
    raise ConfigError(f"no canonical input space for model {name!r}; supply distributions")


def _resolve_model(model_cfg):
    """Build the ModelFunction; return (model, resolved model config, closer)."""
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
        adapter = ExternalModel(command, dim)
        return adapter.as_model(), {"command": command, "dim": dim}, adapter.close

    name = model_cfg.get("name")
    if name not in _MODEL_KEYS:
        raise ConfigError(f"model.name must be one of {sorted(_MODEL_KEYS)}, got {name!r}")
    _check_keys(model_cfg, _MODEL_KEYS[name], "model")
    try:
        if name == "ishigami":
            a = _require_number(model_cfg, "a", "model") if "a" in model_cfg else 7.0
            b = _require_number(model_cfg, "b", "model") if "b" in model_cfg else 0.1
            return ishigami(a, b), {"name": name, "a": a, "b": b}, None
        if name == "sobol-g":
            a = model_cfg.get("a")
            d = model_cfg.get("d")
            if a is not None:
                if not isinstance(a, list) or not all(
                        isinstance(v, (int, float)) and not isinstance(v, bool) for v in a):
                    raise ConfigError(f"model.a must be a list of numbers, got {a!r}")
                a = [float(v) for v in a]
                if d is not None and _require_int(model_cfg, "d", 1, "model") != len(a):
                    raise ConfigError(f"model.d = {d} contradicts len(model.a) = {len(a)}")
            else:
                d = _require_int(model_cfg, "d", 1, "model") if d is not None else 10
                a = [float(j) for j in range(d)]
            return sobol_g(a), {"name": name, "a": a}, None
        if name == "plate-buckling":
            return plate_buckling(), {"name": name}, None
        value = _require_number(model_cfg, "value", "model") if "value" in model_cfg else 1.0
        dim = _require_int(model_cfg, "dim", 1, "model") if "dim" in model_cfg else 3
        return constant_model(value, dim), {"name": name, "value": value, "dim": dim}, None
    except ParameterError as exc:
        raise ConfigError(f"model: {exc}")


def _resolve_space(cfg: dict, model, model_resolved) -> tuple[InputSpace, list[dict]]:
    specs = cfg.get("distributions")
    if specs is None:
        if "command" in model_resolved:
            raise ConfigError("external models need an explicit distributions list")
        specs = _canonical_distribution_specs(model_resolved["name"], model.dim)
    if not isinstance(specs, list):
        raise ConfigError(f"distributions must be a list, got {specs!r}")
    if len(specs) != model.dim:
        raise ConfigError(
            f"distributions length {len(specs)} does not match model dimension {model.dim}")
    marginals = [_marginal_from_spec(s, f"distributions[{i}]") for i, s in enumerate(specs)]
    return InputSpace(marginals), specs


def _exact_indices(model_resolved: dict):
    """Closed-form indices of a resolved builtin model, or None if it has none."""
    name = model_resolved.get("name")
    if name == "ishigami":
        return ishigami_exact(model_resolved["a"], model_resolved["b"])
    if name == "sobol-g":
        return sobol_g_exact(model_resolved["a"])
    return None


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


def _merge_flags(config: dict, args: argparse.Namespace) -> dict:
    merged = dict(config)
    if getattr(args, "model", None) is not None:
        merged["model"] = {"name": args.model}
    for key in ("n", "seed", "trials", "workers", "output", "format", "estimator"):
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    if getattr(args, "ns", None) is not None:
        try:
            merged["ns"] = [int(v) for v in args.ns.split(",")]
        except ValueError:
            raise ConfigError(f"--ns must be comma-separated integers, got {args.ns!r}")
    if getattr(args, "cyclic", False):
        merged["cyclic"] = True
    return merged


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")


def _analyze_csv_lines(report: dict) -> list[str]:
    def cell(value):
        return "na" if value is None else f"{value:.17g}"

    lines = ["variable,estimate,variance,ci_low,ci_high"]
    for row in report["results"]:
        lines.append(",".join([str(row["variable"]), cell(row["estimate"]),
                               cell(row["variance"]), cell(row["ci_low"]),
                               cell(row["ci_high"])]))
    lines.append(f"#sigma2_estimate,{cell(report['sigma2_estimate'])}")
    lines.append(f"#eval_count,{report['eval_count']}")
    lines.append(f"#seed,{report['seed']}")
    lines.append(f"#elapsed_seconds,{report['elapsed_seconds']:.6f}")
    return lines


def cmd_analyze(args: argparse.Namespace) -> int:
    cfg = _merge_flags(_load_config(args.config), args)
    _check_keys(cfg, _ANALYZE_KEYS, "config")
    if "model" not in cfg:
        raise ConfigError("config needs a model (or pass --model)")
    if "n" not in cfg:
        raise ConfigError("config needs a sample size n (or pass --n)")

    model, model_resolved, closer = _resolve_model(cfg["model"])
    try:
        space, dist_specs = _resolve_space(cfg, model, model_resolved)
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

        report = {
            "config": resolved,
            "version": __version__,
            "results": rows,
            "sigma2_estimate": rep.sigma2_estimate,
            "eval_count": rep.eval_count,
            "seed": seed,
            "elapsed_seconds": elapsed,
        }
        if fmt == "json":
            _emit(json.dumps(report, indent=2), cfg.get("output"))
        else:
            _emit("\n".join(_analyze_csv_lines(report)), cfg.get("output"))
        return 0
    finally:
        if closer is not None:
            closer()


def cmd_convergence(args: argparse.Namespace) -> int:
    cfg = _merge_flags(_load_config(args.config), args)
    _check_keys(cfg, _CONVERGENCE_KEYS, "config")
    if "model" not in cfg:
        raise ConfigError("config needs a model (or pass --model)")
    if "ns" not in cfg:
        raise ConfigError("config needs a list of sample sizes ns (or pass --ns)")

    model, model_resolved, closer = _resolve_model(cfg["model"])
    try:
        space, dist_specs = _resolve_space(cfg, model, model_resolved)
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

        exact = _exact_indices(model_resolved)

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

        if fmt == "csv":
            _emit("\n".join(convergence_csv_lines(study)), cfg.get("output"))
        else:
            report = {
                "config": resolved,
                "version": __version__,
                "rows": [{"n": n, "trial": r, "sse": study.sse_per_trial[(n, r)]}
                         for n in study.ns for r in range(1, study.trials + 1)],
                "summary": [{"n": n, "mean_sse": study.mean_sse[n]} for n in study.ns],
                "slope": study.fitted_slope,
                "elapsed_seconds": elapsed,
            }
            _emit(json.dumps(report, indent=2), cfg.get("output"))
        return 0
    finally:
        if closer is not None:
            closer()


def cmd_exact(args: argparse.Namespace) -> int:
    cfg = _merge_flags(_load_config(args.config), args)
    _check_keys(cfg, _EXACT_KEYS, "config")
    if "model" not in cfg:
        raise ConfigError("config needs a model (or pass --model)")

    model_cfg = cfg["model"]
    if not isinstance(model_cfg, dict):
        raise ConfigError(f"model must be an object, got {model_cfg!r}")
    name = model_cfg.get("name")
    if name not in ("ishigami", "sobol-g"):
        raise ConfigError(
            f"exact indices exist only for ishigami and sobol-g, got {name or model_cfg!r}")
    _, model_resolved, _ = _resolve_model(model_cfg)
    idx = _exact_indices(model_resolved)

    fmt = cfg.get("format", "json")
    if fmt not in ("json", "csv"):
        raise ConfigError(f"format must be json or csv, got {fmt!r}")
    report = {
        "config": {"model": model_resolved, "format": fmt},
        "version": __version__,
        "results": [{"variable": j + 1, "main": idx.main[j], "total": idx.total[j],
                     "shapley": idx.shapley[j]} for j in range(idx.d)],
        "sigma2": idx.sigma2,
        "mu": idx.mu,
    }
    if fmt == "json":
        _emit(json.dumps(report, indent=2), cfg.get("output"))
    else:
        lines = ["variable,main,total,shapley"]
        for row in report["results"]:
            lines.append(f"{row['variable']},{row['main']:.17g},"
                         f"{row['total']:.17g},{row['shapley']:.17g}")
        lines.append(f"#sigma2,{idx.sigma2:.17g}")
        lines.append(f"#mu,{idx.mu:.17g}")
        _emit("\n".join(lines), cfg.get("output"))
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
