"""The three benchmark workloads.

Each workload builds its inputs from the run's seed, sets up once, and then
hands out the same fixed list of ops for every round. An op is a
(label, call, check) triple: call() runs the library and returns its output,
check(output) returns the problems found in it. Labels end in /w1 or /w2
when the op runs at that worker count, so w1 and w2 runs of the same op pair
up. shapeff is imported inside setup(), so a setup probe times the import.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from contextlib import ExitStack
from pathlib import Path

import checks
from spans import now

HERE = Path(__file__).resolve().parent


def op_seed(seed: int, rnd: int, tag: str) -> int:
    """A 63-bit estimator seed for one round and model, derived from the run seed."""
    digest = hashlib.blake2b(f"{seed}:{rnd}:{tag}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


class Workload:
    name = ""
    nominal_round_s = 1.0   # rounds per run = seconds / nominal_round_s (2-core x86 VM)
    min_rounds = 1
    uses_external_child = False

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.tracer = None
        self.import_s = 0.0

    def rounds(self, seconds: float) -> int:
        """A fixed round count for a run of about `seconds`, so every run
        measures the same work and the tail percentile stays put."""
        return max(self.min_rounds, round(seconds / self.nominal_round_s))

    def setup(self) -> None:
        raise NotImplementedError

    def ops(self, rnd: int) -> list:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def _import(self, module: str):
        import importlib
        start = now()
        mod = importlib.import_module(module)
        self.import_s = now() - start
        return mod


def _estimator_ops(est, cfg_type, label: str, model, space, n: int, seed: int,
                   exact, kinds=("shapley_all", "main_effects", "total_effects")) -> list:
    """w1 and w2 ops for each estimator kind; w2 must reproduce w1 bitwise.

    model() returns the ModelFunction an op runs on.
    """
    done: dict = {}
    ops = []
    for kind in kinds:
        for workers in (1, 2):
            key = f"{label}/{kind}/w{workers}"

            def call(kind=kind, workers=workers):
                return getattr(est, "estimate_" + kind)(
                    model(), space, cfg_type(n=n, seed=seed, workers=workers))

            def check(rep, kind=kind, workers=workers, key=key):
                done[key] = rep
                if kind == "shapley_all":
                    problems = checks.check_shapley_report(rep, n, exact)
                else:
                    problems = checks.check_effect_report(rep, n, exact)
                if workers == 2:
                    problems += checks.check_identical(
                        rep, done.get(f"{label}/{kind}/w1"), key)
                return problems

            ops.append((key, call, check))
    return ops, done


class BulkInproc(Workload):
    """Vectorized numpy models in-process at N = 2^18."""

    name = "bulk-inproc"
    nominal_round_s = 4.0
    min_rounds = 2
    N = 1 << 18

    def setup(self) -> None:
        shapeff = self._import("shapeff")
        self.est = shapeff.estimators
        self.cfg = shapeff.EstimatorConfig
        a = [float(j) for j in range(10)]
        self.models = [
            ("sobol-g", shapeff.sobol_g(a), shapeff.sobol_g_space(10), shapeff.sobol_g_exact(a)),
            ("plate", shapeff.plate_buckling(), shapeff.plate_buckling_space(), None),
        ]
        for _, call, _ in self._ops(-1, 4096):
            call()

    def ops(self, rnd: int) -> list:
        return self._ops(rnd, self.N)

    def _ops(self, rnd: int, n: int) -> list:
        ops = []
        for label, f, space, exact in self.models:
            seed = op_seed(self.seed, rnd, label)
            model_ops, done = _estimator_ops(self.est, self.cfg, label, lambda f=f: f, space,
                                             n, seed, exact)
            _, _, total_w2_check = model_ops[-1]

            def bracket(rep, label=label, done=done, inner=total_w2_check):
                problems = inner(rep)
                sh = done.get(f"{label}/shapley_all/w1")
                main = done.get(f"{label}/main_effects/w1")
                if sh is None or main is None:
                    return problems + ["bracket: an earlier op of this model failed"]
                return problems + checks.check_bracket(
                    main.values, sh.estimates, rep.values, main.variance_of_estimator,
                    sh.variance_of_estimator, rep.variance_of_estimator)

            model_ops[-1] = (model_ops[-1][0], model_ops[-1][1], bracket)

            def winding(f=f, space=space, seed=seed):
                return self.est.estimate_shapley_winding(f, space, self.cfg(n=n, seed=seed))

            def winding_check(rep, label=label, exact=exact, done=done):
                problems = checks.check_shapley_report(rep, n, exact)
                if exact is None:
                    sh = done.get(f"{label}/shapley_all/w1")
                    if sh is None:
                        return problems + ["winding: the Shapley op of this model failed"]
                    problems += checks.check_within_tol(rep.estimates, sh.estimates,
                                                        sh.sigma2_from_pairs)
                return problems

            ops += model_ops + [(f"{label}/shapley_winding", winding, winding_check)]
        return ops


class ExternalEcho(Workload):
    """Ishigami computed by a child process over the line protocol, N = 4096."""

    name = "external-echo"
    nominal_round_s = 2.7
    min_rounds = 5
    uses_external_child = True
    N = 4096

    def setup(self) -> None:
        shapeff = self._import("shapeff")
        self.est = shapeff.estimators
        self.cfg = shapeff.EstimatorConfig
        self.child = ExitStack()
        self.adapter = self.child.enter_context(shapeff.ExternalModel(
            [sys.executable, str(HERE / "echo_ishigami.py")], 3))
        self.space = shapeff.ishigami_space()
        self.exact = shapeff.ishigami_exact()
        for _, call, _ in self._ops(-1, 64):
            call()

    def ops(self, rnd: int) -> list:
        return self._ops(rnd, self.N)

    def _ops(self, rnd: int, n: int) -> list:
        # The model view is made per op, so that it binds ExternalModel.evaluate
        # as it is at call time (wrapped, in a traced round); the child persists.
        ops, _ = _estimator_ops(self.est, self.cfg, "ishigami-ext", self.adapter.as_model,
                                self.space, n, op_seed(self.seed, rnd, "ishigami-ext"),
                                self.exact, kinds=("shapley_all", "total_effects"))
        return ops

    def teardown(self) -> None:
        self.child.close()


class CliCold(Workload):
    """A fresh `python -m shapeff.cli` process per op."""

    name = "cli-cold"
    nominal_round_s = 2.5
    min_rounds = 4
    N = 4096
    PLATE_N = 8192   # two sample chunks, so workers=2 runs them in parallel
    NS = [256, 512, 1024]
    TRIALS = 10

    def setup(self) -> None:
        cli = self._import("shapeff.cli")
        import jsonschema  # noqa: F401  (imported here so it counts as set-up)
        import shapeff
        self.cli = cli
        self.ishigami = shapeff.ishigami_exact()
        self.sobol = shapeff.sobol_g_exact([float(j) for j in range(10)])
        self.work = self.root / "perfbench" / "out" / f"work-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.sobol_config = self.work / "sobol-g.json"
        self.sobol_config.write_text(json.dumps({
            "model": {"name": "sobol-g", "d": 10},
            "distributions": [{"kind": "uniform", "lo": 0.0, "hi": 1.0}] * 10,
            "estimator": "shapley",
            "n": self.N,
        }))
        src = str(self.root / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self._spawned = 0
        problems = self._json(self._run(["exact", "--model", "ishigami"]),
                              cli.EXACT_SCHEMA)[1]
        if problems:
            raise RuntimeError(f"warm-up: {problems}")

    def teardown(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def _run(self, args: list[str]) -> subprocess.CompletedProcess:
        """One CLI process. Traced, it runs under cli_traced.py and its spans
        are placed under the open op span, framed by interpreter start-up
        (cli.interp) and teardown (cli.exit)."""
        tracer = self.tracer
        if tracer is None:
            return subprocess.run([sys.executable, "-m", "shapeff.cli", *args],
                                  capture_output=True, text=True, env=self.env, timeout=120)
        self._spawned += 1
        spans_path = self.work / f"spans-{self._spawned}.json"
        parent = tracer.current()
        start = now()
        proc = subprocess.run([sys.executable, str(HERE / "cli_traced.py"), str(spans_path),
                               *args], capture_output=True, text=True, env=self.env,
                              timeout=120)
        end = now()
        if spans_path.exists():
            child = json.loads(spans_path.read_text())
            spans_path.unlink()
            tracer.add("cli.interp", start, child["t0"], parent)
            tracer.adopt(child["spans"], parent)
            tracer.add("cli.exit", child["end"], end, parent)
        return proc

    @staticmethod
    def _exit_problems(proc) -> list[str]:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"] if proc.returncode else []

    def _json(self, proc, schema) -> tuple[dict | None, list[str]]:
        problems = self._exit_problems(proc)
        return (None, problems) if problems else checks.validate_json(proc.stdout, schema)

    @staticmethod
    def reported_elapsed(proc) -> float | None:
        """The elapsed_seconds an analyze or convergence report states."""
        if proc.stdout.startswith("{"):
            return json.loads(proc.stdout).get("elapsed_seconds")
        for line in proc.stdout.splitlines():
            if line.startswith("#elapsed_seconds,"):
                return float(line.split(",", 1)[1])
        return None

    def ops(self, rnd: int) -> list:
        seed = str(op_seed(self.seed, rnd, "cli"))
        n = str(self.N)
        ns = ",".join(map(str, self.NS))
        schemas = self.cli

        def analyze(d: int, exact):
            def check(proc):
                report, problems = self._json(proc, schemas.REPORT_SCHEMA)
                return problems or checks.check_cli_analyze(
                    report, d, self.N, exact)
            return check

        def analyze_csv(proc):
            if proc.returncode:
                return self._exit_problems(proc)
            report, problems = checks.parse_analyze_csv(proc.stdout)
            if problems:
                return problems
            _, problems = checks.validate_json(
                json.dumps(report["results"]), schemas.REPORT_SCHEMA["properties"]["results"])
            return (problems + checks.check_cli_analyze(report, 6, self.PLATE_N)
                    + checks.check_ci(report))

        def convergence(proc):
            report, problems = self._json(proc, schemas.CONVERGENCE_SCHEMA)
            return problems or checks.check_convergence(report, self.NS, self.TRIALS)

        def exact(proc):
            report, problems = self._json(proc, schemas.EXACT_SCHEMA)
            return problems or checks.check_exact(report, self.sobol)

        def run(*args):
            return lambda: self._run(list(args))

        return [
            ("analyze-ishigami-json",
             run("analyze", "--model", "ishigami", "--n", n, "--seed", seed),
             analyze(3, self.ishigami.shapley)),
            ("analyze-plate-csv/w2",
             run("analyze", "--model", "plate-buckling", "--n", str(self.PLATE_N), "--seed", seed,
                 "--workers", "2", "--format", "csv"),
             analyze_csv),
            ("analyze-sobol-g-config",
             run("analyze", "--config", str(self.sobol_config), "--seed", seed),
             analyze(10, self.sobol.shapley)),
            ("convergence-ishigami",
             run("convergence", "--model", "ishigami", "--ns", ns, "--trials",
                 str(self.TRIALS), "--seed", seed, "--format", "json"),
             convergence),
            ("exact-sobol-g", run("exact", "--model", "sobol-g"), exact),
        ]


WORKLOADS = {w.name: w for w in (BulkInproc, ExternalEcho, CliCold)}
