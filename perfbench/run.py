"""Benchmark of the arakelov library and CLI, run from the root of a checkout.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

One workload runs in a child process (worker.py) that imports the package
from ``src/`` of this checkout.  Set-up time is the median over three fresh
processes, from launch until the child reports ready.  With ``--trace 0`` the
last line is a JSON object with the end-to-end metrics, with ``--trace 1``
the per-layer metrics.  ``--workload all`` runs every workload untraced and
traced, and prints the tracing overhead.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("corpus", "itemized", "analytic", "cli")
SETUP_SAMPLES = 3
STAGES = {"measures": "measures_s", "fekete": "fekete_s"}  # analytic parts, per round


def _env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))  # numeric pools capped at nproc
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONHASHSEED"] = "0"  # the same set and dict order in every run
    return env


def _launch(args: argparse.Namespace, setup_only: bool, limit: float) -> tuple[float, str]:
    """Start one worker; return (seconds until READY, its last stdout line)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--pool-seed", str(args.pool_seed)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(limit, proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        lines = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0:
        raise RuntimeError(f"worker for {args.workload} exited with code {code}")
    return setup, (lines[-1] if lines else "")


def _import_times() -> dict:
    """import arakelov / sympy cumulative seconds, median of three fresh interpreters."""
    samples = {"arakelov": [], "sympy": []}
    env = _env()
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import arakelov"],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
            if m and m.group(2) in samples:
                samples[m.group(2)].append(int(m.group(1)) * 1e-6)
    return {f"import.{name}_s": statistics.median(v) for name, v in samples.items()}


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(args: argparse.Namespace) -> tuple[dict, list[str], float]:
    """Run one workload; return the result object, human-readable lines and throughput."""
    setup, line = _launch(args, setup_only=False, limit=150.0)
    res = json.loads(line)
    setups = [setup]
    if not args.trace:
        setups += [_launch(args, setup_only=True, limit=60.0)[0]
                   for _ in range(SETUP_SAMPLES - 1)]
    name = args.workload
    lines = [f"workload {name}, seed {args.seed}, trace {args.trace}: {res['rounds']} rounds "
             f"in {res['wall_s']:.1f} s; attempted {res['attempted']}, failed {res['failed']}, "
             f"correct {str(res['correct']).lower()}"]
    lines += [f"  failed: {e}" for e in res["errors"]]
    lines += [f"  wrong: {p}" for p in res["problems"]]
    throughput = res["completed"] / res["timed_s"]
    if args.trace:
        metrics = {k: _metric(v, "s" if k.endswith("_s") else "count")
                   for k, v in res["layers"].items()}
        metrics.update({k: _metric(v, "s") for k, v in _import_times().items()})
        lines.append(f"  traced throughput {throughput:.6g} 1/s (compare reports_per_s untraced)")
    else:
        metrics = {
            "setup_s": _metric(statistics.median(setups), "s"),
            "peak_rss_mib": _metric(res["peak_rss_mib"], "MiB"),
            "reports_per_s": _metric(throughput, "1/s"),
            "report_p50_ms": _metric(res["p50_s"] * 1e3, "ms"),
            "report_tail_ms": _metric(res["tail_s"] * 1e3, "ms"),
        }
        lines.append(f"  setup samples {', '.join(f'{s:.4f}' for s in setups)} s")
        lines.append(f"  report_tail_ms is the mean of the slowest {res['tail_count']} "
                     f"of {res['completed']} completed reports")
        for part, seconds in sorted(res["part_s_per_round"].items()):
            if part in STAGES:
                lines.append(f"  stage {STAGES[part]} = {seconds:.6g} s per round")
        if name == "cli":
            lines.append(f"  stage cli_p50_s = {res['p50_s']:.6g} s")
    for key, m in metrics.items():
        lines.append(f"  {key} = {m['value']:.6g} {m['unit']}")
    result = {"correct": res["correct"], "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    return result, lines, throughput


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="arakelov benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pool-seed", type=int, default=0,
                        help="seed of the itemized polynomials and Fekete restarts")
    args = parser.parse_args(argv)
    if min(args.seed, args.pool_seed) < 0 or not 1 <= args.seconds <= 60:
        parser.error("seeds must be >= 0 and --seconds within 1..60")
    if not (ROOT / "src" / "arakelov" / "__init__.py").is_file():
        print(f"error: no src/arakelov package under {ROOT}", file=sys.stderr)
        return 2
    if args.workload != "all":
        result, lines, _ = run_workload(args)
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
        return 0
    summary = {}
    for name in WORKLOADS:
        runs = [run_workload(argparse.Namespace(**{**vars(args), "workload": name, "trace": t}))
                for t in (0, 1)]
        for _, lines, _ in runs:
            print("\n".join(lines))
        overhead = runs[0][2] / runs[1][2] - 1.0
        print(f"tracing overhead on {name}: {100.0 * overhead:+.1f} % time per report "
              "(one pair of runs, so the machine's run-to-run spread applies)")
        summary[name] = {"end_to_end": runs[0][0], "per_layer": runs[1][0]["metrics"],
                         "tracing_overhead": overhead}
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
