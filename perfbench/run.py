"""Benchmark harness for sinklab.

    python3 perfbench/run.py --workload sink_profile --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --runs 10 --out record.json

Each run is a fresh single-threaded subprocess (worker.py), so its peak RSS
belongs to one workload, and runs never overlap. Set-up (``import sinklab``
plus the input tables of sink_profile) is timed from process start, in
SETUP_REPEATS fresh processes per run, and reported as their median.

``--trace 0`` reports the end-to-end metrics: wall_s, the timed wall of one
pass with each operation at its fastest in the run (see worker.py);
peak_rss_mb, the worker's ru_maxrss; setup_s. ``--trace 1`` reports the
per-layer metrics from a separate traced run, including the tracing overhead.
The metric names and units are those of BENCHMARK.json; a layer that a
workload does not exercise reads 0. The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics; fail_frac is
failed / attempted. ``--seconds`` defaults to BENCHMARK.json's run_seconds.

``--workload all`` runs every workload ``--runs`` times (seeds seed,
seed + 1, ...), prints each metric by name with its unit, median, quartiles
and sample count, and optionally writes everything to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sink_profile", "build_cap", "corpus_scan")
SETUP_REPEATS = 9
RUN_LIMIT_S = 170  # a run must end within 180 s
SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# Metric name -> unit, for --trace 0 and --trace 1.
UNITS = {
    0: {m["name"]: m["unit"] for m in DECLARED["end_to_end"]},
    1: {m["name"]: m["unit"] for m in DECLARED["per_layer"]},
}
BOUNDS = {m["name"]: m["bound"] for m in DECLARED["end_to_end"]}


class BenchError(Exception):
    pass


def git_rev() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def context() -> dict:
    return {
        "git_rev": git_rev(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "env": SINGLE_THREAD_ENV,
    }


def spawn(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run worker.py to completion; return (spawn time, its JSON report)."""
    env = dict(os.environ, **SINGLE_THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited with {proc.returncode}")
    try:
        return started, json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"worker {args} printed no report") from None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run: set-up timings, then the measured worker."""
    deadline = time.monotonic() + RUN_LIMIT_S
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]

    def setup_once() -> float:
        started, ready = spawn([*base, "--mode", "setup"], deadline)
        return ready["ready"] - started

    # Set-up samples are taken before and after the measured worker, so that
    # a slow spell of the machine does not hit all of them.
    extra = 0 if trace else SETUP_REPEATS - 1
    setups = [setup_once() for _ in range(extra // 2)]
    started, report = spawn([*base, "--mode", "run"], deadline)
    setups.append(report["ready"] - started)
    setups += [setup_once() for _ in range(extra - extra // 2)]

    correct = report["failed"] == 0
    if trace:
        metrics = {name: report["layers"].get(name, 0.0) for name in UNITS[1]}
        layer_self = sum(v for k, v in metrics.items() if k.endswith(".s") and k != "trace.wall_s")
        if layer_self > metrics["trace.wall_s"]:
            print(f"self times {layer_self} exceed traced wall {metrics['trace.wall_s']}", file=sys.stderr)
            correct = False
        detail = {k: report[k] for k in ("plain_walls", "traced_walls", "traced_over_plain_fastest",
                                         "span_cost_s", "spans_per_pass", "spans_file")}
    else:
        metrics = {
            "wall_s": report["wall_s"],
            "peak_rss_mb": report["peak_rss_mb"],
            "setup_s": statistics.median(setups),
        }
        detail = {k: report[k] for k in ("walls", "op_fastest_s", "once_s")}
        detail["setups"] = setups
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
        "detail": detail,
        "context": dict(context(), python=report["python"], numpy=report["numpy"], sinklab=report["sinklab"]),
    }


def print_run(run: dict) -> None:
    print(f"# workload {run['workload']} seed {run['seed']} trace {run['trace']}: "
          f"attempted {run['attempted']} failed {run['failed']} "
          f"fail_frac {run['failed'] / run['attempted']:.4g}")
    walls = run["detail"].get("walls")
    if walls:
        q1, med, q3 = quartiles(walls)
        tail = ""
        # The highest of p90/p99 with at least ten passes beyond it.
        for pct in (99, 90):
            if len(walls) * (100 - pct) >= 1000:
                tail = f" p{pct} {statistics.quantiles(walls, n=100)[pct - 1]:.6g}"
                break
        print(f"#   wall_s per pass: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g}{tail} n {len(walls)}")
    for name, unit in UNITS[run["trace"]].items():
        print(f"#   {name} {run['metrics'][name]:.6g} {unit}")
    print(f"# context {json.dumps(run['context'], sort_keys=True)}")


def result_line(run: dict) -> str:
    metrics = {name: {"value": run["metrics"][name], "unit": unit} for name, unit in UNITS[run["trace"]].items()}
    return json.dumps({
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    })


def run_all(args) -> int:
    runs = []
    # Workloads take turns, so that a slow spell of the machine is shared out.
    for i in range(args.runs):
        for workload in WORKLOADS:
            run = one_run(workload, args.seed + i, args.seconds, args.trace)
            print_run(run)
            runs.append(run)
    summary = {}
    print(f"# {'workload':<13} {'metric':<38} {'unit':<6} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'n':>3} {'spread':>7} {'bound':>6}")
    for workload in WORKLOADS:
        mine = [r for r in runs if r["workload"] == workload]
        for name, unit in UNITS[args.trace].items():
            values = [r["metrics"][name] for r in mine]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            bound = BOUNDS.get(name)
            print(f"# {workload:<13} {name:<38} {unit:<6} {med:>11.6g} {q1:>11.6g} {q3:>11.6g} "
                  f"{len(values):>3} {spread:>7.4f} {'-' if bound is None else bound:>6}")
            summary[f"{workload}.{name}"] = {"value": med, "unit": unit, "q1": q1, "q3": q3, "n": len(values),
                                             "spread": spread}
    if args.out:
        Path(args.out).write_text(json.dumps({"summary": summary, "runs": runs}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in summary.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sinklab benchmark harness")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1, help="runs per workload with --workload all")
    parser.add_argument("--out", default=None, help="JSON record of every run (with --workload all)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sinklab" / "__init__.py").is_file():
        print(f"error: sinklab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = DECLARED["run_seconds"]
    try:
        if args.workload == "all":
            return run_all(args)
        run = one_run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_run(run)
    print(result_line(run))
    return 0


if __name__ == "__main__":
    sys.exit(main())
