"""shapeff benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload bulk-inproc --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; shapeff is imported from ./src. One
client runs the workload's fixed op list as a closed loop (each op starts
when the previous one has been checked) for a fixed number of rounds sized
to about --seconds. Every op's output is checked; an op that raises or fails
a check counts as failed.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json. --trace 1
alternates untraced and traced rounds, reports the per-layer metrics from the
spans of the traced rounds, and writes the spans to perfbench/out/. The last
line of stdout is the result object; the line before it holds the run's
details and environment.
"""

import time

T0 = time.monotonic()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer, layer_of, now, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_PROBES = 5
TAIL_BEYOND = 10
# A run's rounds may take at most this multiple of --seconds (twice that
# when traced) before it stops starting new ones.
BUDGET_FACTOR = 1.5
# The traced layers' self times must add up to the traced round wall time
# within this share of it; what is left is the loop between ops.
TRACE_SLACK = 0.02


def tail(values: list[float]) -> tuple[float, int]:
    """(value, p) for the highest integer percentile p, by nearest rank, that
    leaves at least TAIL_BEYOND values ranked above it."""
    m = len(values)
    if m <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} values, got {m}")
    p = 100 * (m - TAIL_BEYOND) // m
    rank = max(1, -(-p * m // 100))
    return sorted(values)[rank - 1], p


def run_rounds(workload, rounds: int, tracer: Tracer | None, budget_s: float):
    """Run the rounds; return op records and round wall times by traced flag.

    Rounds stop early, past the workload's minimum, once budget_s has gone:
    a safety valve for a machine far slower than the one the round count
    was sized on, so that a run still ends in bounded time.
    """
    records = []
    walls: dict[bool, list[float]] = {False: [], True: []}
    schedule = [(r, traced) for r in range(rounds)
                for traced in ((False, True) if tracer else (False,))]
    begin = now()
    for rnd, traced in schedule:
        if not traced and rnd >= workload.min_rounds and now() - begin > budget_s:
            break
        ops = workload.ops(rnd)
        if traced:
            tracer.install()
            workload.tracer = tracer
        span = tracer.span if traced else (lambda name: nullcontext())
        start = now()
        for label, call, check in ops:
            if traced:
                tracer.op = len(records)
            out, problems = None, []
            with span("bench.op"):
                t = now()
                try:
                    out = call()
                except Exception as exc:  # a library failure fails the op, not the run
                    problems = [f"{type(exc).__name__}: {exc}"]
                seconds = now() - t
            with span("bench.check"):
                if not problems:
                    try:
                        problems = check(out)
                    except Exception as exc:  # malformed output
                        problems = [f"check raised {type(exc).__name__}: {exc}"]
            for problem in problems[:3]:
                print(f"FAILED {label} (round {rnd}): {problem}", file=sys.stderr)
            records.append({"round": rnd, "label": label, "seconds": seconds,
                            "traced": traced, "out": out, "failed": bool(problems)})
        walls[traced].append(now() - start)
        if traced:
            tracer.uninstall()
            workload.tracer = None
    return records, walls


def cpu_seconds(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def setup_probe(name: str, seed: int) -> dict:
    """Time one fresh process's set-up, from launch to ready for the first op."""
    start = now()
    proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(seed),
                           "--setup-probe"], capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    times = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"setup_s": times["ready"] - start, "interp_s": times["t0"] - start,
            "import_s": times["import_s"]}


def speedup_w2(records) -> float:
    """Median over (round, op) pairs of the w1 op time over the w2 op time."""
    pairs = defaultdict(dict)
    for r in records:
        base, _, workers = r["label"].rpartition("/w")
        if not r["traced"] and workers in ("1", "2"):
            pairs[(r["round"], base)][workers] = r["seconds"]
    ratios = [p["1"] / p["2"] for p in pairs.values() if len(p) == 2]
    return statistics.median(ratios) if ratios else 0.0


def layer_metrics(spans: list[list], rounds: int) -> tuple[dict, float]:
    """Per-round span metrics, and the per-round sum of all self times."""
    selfs = self_times(spans)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    units = defaultdict(float)
    layer_s = defaultdict(float)
    trials = 0
    for (name, start, end, parent, op, n), t in zip(spans, selfs):
        self_s[name] += t
        calls[name] += 1
        units[name] += n
        layer_s[layer_of(name)] += t
        if layer_of(name) == "estimators" and parent >= 0 \
                and layer_of(spans[parent][0]) == "analysis":
            trials += 1
    est_calls = sum(c for k, c in calls.items() if layer_of(k) == "estimators")
    contract = sum(u for k, u in units.items() if layer_of(k) == "estimators")
    evals = units["models.eval"]
    per_round = {
        "inputs.sample_s": self_s["inputs.sample"],
        "inputs.sample_calls": calls["inputs.sample"],
        "inputs.permute_s": self_s["inputs.permute"],
        "inputs.rng_init_s": self_s["inputs.rng_init"],
        "models.eval_s": self_s["models.eval"],
        "models.evals": evals,
        "models.batches": calls["models.eval"],
        "estimators.self_s": layer_s["estimators"],
        "estimators.calls": est_calls,
        "cli.self_s": layer_s["cli"],
        "analysis.self_s": layer_s["analysis"],
        "analysis.trials": trials,
        "reference.exact_s": layer_s["reference"],
        "bench.self_s": layer_s["bench"],
    }
    metrics = {k: v / rounds for k, v in per_round.items()}
    metrics.update({
        "inputs.ns_per_value": ratio(1e9 * self_s["inputs.sample"], units["inputs.sample"]),
        "models.points_per_batch": ratio(evals, calls["models.eval"]),
        "models.evals_per_s": ratio(evals, self_s["models.eval"]),
        "estimators.evals_over_contract": ratio(evals, contract),
    })
    return metrics, sum(layer_s.values()) / rounds


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer_metrics(workload, records, walls, tracer: Tracer, probes, cpu_s: float,
                      child_cpu_s: float) -> dict:
    """The --trace 1 metrics: spans of the traced rounds, plus timings taken
    around them (CLI processes, set-up probes, w1/w2 pairs, CPU time)."""
    traced_rounds = len(walls[True])
    all_rounds = len(walls[False]) + traced_rounds
    metrics, self_sum = layer_metrics(tracer.spans, traced_rounds)
    rtt_us = sorted(1e6 * v for v in tracer.ext_rtt_s)
    interp = [e - s for name, s, e, *_ in tracer.spans if name == "cli.interp"]
    if interp:
        imports = [e - s for name, s, e, *_ in tracer.spans if name == "cli.import"]
        stated = [(r["seconds"], workload.reported_elapsed(r["out"])) for r in records
                  if not r["traced"] and not r["failed"]]
        overheads = [wall - inner for wall, inner in stated if inner is not None]
    else:
        interp = [p["interp_s"] for p in probes]
        imports = [p["import_s"] for p in probes]
        overheads = []
    traced_wall = statistics.fmean(walls[True])
    metrics.update({
        "models.ext_requests": len(rtt_us) / traced_rounds,
        "models.ext_rtt_us_p50": rtt_us[len(rtt_us) // 2] if rtt_us else 0.0,
        "models.ext_rtt_us_p99": rtt_us[int(0.99 * len(rtt_us))] if rtt_us else 0.0,
        "models.child_cpu_s": child_cpu_s / all_rounds,
        "estimators.speedup_w2": speedup_w2(records),
        "cli.interp_s": statistics.median(interp),
        "cli.import_s": statistics.median(imports),
        "cli.overhead_s": statistics.median(overheads) if overheads else 0.0,
        "proc.cpu_s": cpu_s / all_rounds,
        "proc.cpu_util": cpu_s / sum(walls[False] + walls[True]) / os.cpu_count(),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - statistics.fmean(walls[False]),
        "trace.unaccounted_s": traced_wall - self_sum,
    })
    return metrics


def environment(seed: int) -> dict:
    env = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "python": sys.version.split()[0], "seed": seed,
           "shapeff_on_path": shutil.which("shapeff") is not None}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            env["cpu"] = next((line.split(":", 1)[1].strip() for line in handle
                               if line.startswith("model name")), None)
    except OSError:
        env["cpu"] = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                env[f"l{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    from importlib.metadata import PackageNotFoundError, version
    for pkg in ("numpy", "scipy", "jsonschema"):
        try:
            env[pkg] = version(pkg)
        except PackageNotFoundError:
            env[pkg] = None
    env["git_commit"] = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        env["git_commit"] = proc.stdout.strip() if proc.returncode == 0 else None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "shapeff").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    env["source_sha256"] = digest.hexdigest()
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "shapeff" / "__init__.py").is_file():
        print(f"error: no shapeff source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # At most two threads compute: the estimators' workers=2 pool.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "src"))

    workload = WORKLOADS[args.workload](ROOT, args.seed)
    if args.setup_probe:
        workload.setup()
        ready = now()
        print(json.dumps({"t0": T0, "ready": ready, "import_s": workload.import_s}), flush=True)
        workload.teardown()
        return 0

    OUT.mkdir(parents=True, exist_ok=True)
    workload.setup()
    rounds = workload.rounds(args.seconds)
    tracer = Tracer() if args.trace else None
    cpu0 = time.process_time()
    children0 = cpu_seconds(resource.RUSAGE_CHILDREN)
    try:
        records, walls = run_rounds(workload, rounds, tracer,
                                    BUDGET_FACTOR * args.seconds * (2 if tracer else 1))
    finally:
        workload.teardown()
    cpu_self = time.process_time() - cpu0
    cpu_children = cpu_seconds(resource.RUSAGE_CHILDREN) - children0
    peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                   + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024
    probes = [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]

    attempted = len(records)
    failed = sum(r["failed"] for r in records)
    untraced = [r["seconds"] for r in records if not r["traced"]]
    tail_s, tail_p = tail(untraced)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds_planned": rounds, "rounds_run": len(walls[False]),
        "fail_ratio": failed / attempted,
        "op_s_tail_percentile": tail_p, "op_count": len(untraced),
        "round_walls_s": walls,
        "op_s_median_by_label": {
            label: statistics.median(r["seconds"] for r in records
                                     if r["label"] == label and not r["traced"])
            for label in dict.fromkeys(r["label"] for r in records)},
        "setup_probes": probes,
    }
    if not args.trace:
        names = spec["end_to_end"]
        metrics = {
            "setup_s": statistics.median(p["setup_s"] for p in probes),
            "wall_s": statistics.median(walls[False]),
            "op_s_p50": statistics.median(untraced),
            "op_s_tail": tail_s,
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        names = spec["per_layer"]
        metrics = per_layer_metrics(
            workload, records, walls, tracer, probes, cpu_self + cpu_children,
            cpu_children if workload.uses_external_child else 0.0)
        unaccounted = abs(metrics["trace.unaccounted_s"])
        detail["trace_within_slack"] = unaccounted <= TRACE_SLACK * metrics["trace.wall_s"]
        if not detail["trace_within_slack"]:
            print(f"warning: layer self times miss traced wall time by {unaccounted:.4f} s",
                  file=sys.stderr)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(str(spans_path), workload=args.workload, seed=args.seed)
        detail["spans_file"] = str(spans_path.relative_to(ROOT))

    mismatch = {m["name"] for m in names} ^ set(metrics)
    if mismatch:
        raise RuntimeError(f"metrics and BENCHMARK.json disagree on {sorted(mismatch)}")
    print(json.dumps({"detail": detail, "environment": environment(args.seed)}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
