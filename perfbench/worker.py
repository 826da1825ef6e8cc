"""One workload process: set-up, then timed rounds in a closed loop.

run.py starts this file.  It prints ``READY`` once set-up is done and, at the
end, one JSON line with what the run measured.  One caller sends the next
input only after the previous result is back.  Checks run after each timed
call, outside the timed span.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import inputs

ROOT = Path(__file__).resolve().parents[1]
# the tail is the mean of the slowest tenth: a single high percentile falls
# where latencies are sparse and jumps between runs by 10-20 %
TAIL_SHARE = 0.1
# the traced run reports layers over set-up and this many rounds (fixed work)
TRACE_ROUNDS = {"corpus": 20, "itemized": 20, "analytic": 1, "cli": 0}
_WARM_TOL = 3e-8  # outside the timed tolerance range [1e-8, 1.001e-8)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    return env


class Op:
    """Outcome of one timed call."""

    __slots__ = ("part", "seconds", "error", "problems")

    def __init__(self, part: str, seconds: float, error: str | None = None,
                 problems: list | None = None):
        self.part, self.seconds, self.error, self.problems = part, seconds, error, problems or []


def timed(part: str, fn):
    t0 = time.perf_counter()
    try:
        result = fn()
    except Exception as exc:  # a failed operation is counted, not fatal
        return Op(part, time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"), None
    return Op(part, time.perf_counter() - t0), result


def warm_up(api) -> None:
    """One small call into every layer: fills the lazy tables (CRT primes,
    Legendre nodes, the cyclotomic table, sympy's prime sieve) before timing."""
    f = api.parse_polynomial("x^8 + x^3 - x + 1")
    api.height_report(f)
    api.height_report(api.parse_polynomial("3x^3 - 5x + 7"), itemize_finite=False)
    for p in inputs.PRIMES:
        api.newton_polygon(f, p)
        api.p_adic_root_count(f, p)
    for target in (api.Sphere(), api.RealLine(), api.Interval(1.0)):
        api.energy(target, tol=_WARM_TOL)
        api.potential(target, 0.5, tol=_WARM_TOL)
        api.minimize(target, 4, seed=0)
    for r in (0.1, 1.0, 9.0):
        api.mass(api.Interval(r), tol=_WARM_TOL / 10)
        api.potential(api.Interval(r), 2.0 * r, tol=_WARM_TOL)
    api.mass(api.Sphere(), tol=_WARM_TOL / 10)
    api.mass(api.RealLine(), tol=_WARM_TOL / 10)
    api.energy_via_balayage(1.0, tol=_WARM_TOL)
    api.single_place_beaters()
    api.count_beating_pairs()


# ---------------------------------------------------------------------------
# workloads: each round() returns the list of timed operations of one round
# ---------------------------------------------------------------------------


class Corpus:
    """parse_polynomial + height_report(itemize_finite=False) per input."""

    SAMPLE_EVERY = 32  # recompute both heights from mpmath roots on this share

    def __init__(self, api, seed: int, pool_seed: int):
        self.api = api
        self.stream = inputs.corpus_stream(seed)
        self.done = 0

    def round(self, k: int) -> list[Op]:
        ops = []
        for text, coeffs in self.stream.take(inputs.CORPUS_ROUND):
            op, out = timed("report", lambda: self._report(text))
            if out is not None:
                op.problems = checks.check_corpus(coeffs, *out,
                                                  sample=self.done % self.SAMPLE_EVERY == 0)
            self.done += 1
            ops.append(op)
        return ops

    def _report(self, text):
        f = self.api.parse_polynomial(text)
        return f, self.api.height_report(f, itemize_finite=False)


class Itemized:
    """Full structure report: itemized height_report, Newton polygons, Q_p root counts."""

    def __init__(self, api, seed: int, pool_seed: int):
        self.api = api
        self.seed = seed
        self.stream = inputs.itemized_stream(pool_seed)

    def round(self, k: int) -> list[Op]:
        ops = []
        block = self.stream.take(inputs.ITEMIZED_ROUND)
        for text, coeffs in (block[i] for i in inputs.itemized_order(self.seed, k)):
            op, out = timed("report", lambda: self._report(text))
            if out is not None:
                op.problems = checks.check_itemized(coeffs, *out)
            ops.append(op)
        return ops

    def _report(self, text):
        api = self.api
        f = api.parse_polynomial(text)
        report = api.height_report(f)
        polygons = [api.newton_polygon(f, p) for p in inputs.PRIMES]
        counts = [api.p_adic_root_count(f, p) for p in inputs.PRIMES]
        return f, report, polygons, counts


class Analytic:
    """Quadrature on the three target sets, Fekete descent, bounds and censuses."""

    def __init__(self, api, seed: int, pool_seed: int):
        self.api = api
        self.seed, self.pool_seed = seed, pool_seed

    def round(self, k: int) -> list[Op]:
        api = self.api
        spec = inputs.analytic_round(self.seed, self.pool_seed, k)
        tol, mtol = spec["tol"], spec["mass_tol"]
        sphere, line = api.Sphere(), api.RealLine()
        calls = []  # (part, thunk, check of the result)

        def expect(name, want, tol_):
            return lambda res: checks.near(name, res.value, want, tol_)

        for target, name, want in ((sphere, "sphere", 0.5), (line, "real-line", checks.LOG2)):
            calls.append(("measures", lambda t=target: api.energy(t, tol=tol),
                          expect(f"{name} energy", want, 1e-6)))
            calls.append(("measures", lambda t=target: api.mass(t, tol=mtol),
                          expect(f"{name} mass", 1.0, 1e-7)))
        for x, y in spec["sphere_points"]:
            calls.append(("measures", lambda z=complex(x, y): api.potential(sphere, z, tol=tol),
                          expect(f"sphere potential at {complex(x, y)}", 0.5, 1e-6)))
        for x in spec["line_points"]:
            calls.append(("measures", lambda x=x: api.potential(line, x, tol=tol),
                          expect(f"real-line potential at {x}", checks.LOG2, 1e-6)))
        for r, points in zip(spec["radii"], spec["interval_points"]):
            target, want = api.Interval(r), checks.interval_energy(r)
            calls.append(("measures", lambda t=target: api.energy(t, tol=tol),
                          expect(f"interval {r} energy", want, 1e-5)))
            calls.append(("measures", lambda t=target: api.mass(t, tol=mtol),
                          expect(f"interval {r} mass", 1.0, 1e-7)))
            calls.append(("measures", lambda r=r: api.energy_via_balayage(r, tol=tol),
                          expect(f"interval {r} balayage", want, 1e-5)))
            for x in points:
                calls.append(("measures", lambda t=target, x=x: api.potential(t, x, tol=tol),
                              expect(f"interval {r} potential at {x}", want, 1e-6)))

        energies = {"sphere": [], "real-line": [], "interval": []}
        r_f = spec["fekete_r"]
        fekete_sets = (("sphere", sphere, spec["fekete_sphere"], 0.5),
                       ("real-line", line, spec["fekete_line"], checks.LOG2),
                       ("interval", api.Interval(r_f), spec["fekete_interval"],
                        checks.interval_energy(r_f)))
        for name, target, ns, limit in fekete_sets:
            for i, n in enumerate(ns):
                def check(res, name=name, ns=ns, limit=limit, last=i == len(ns) - 1):
                    energies[name].append(res.energy)
                    # the whole N range is checked once its last size is in
                    return checks.fekete_problems(name, ns, energies[name], limit) if last else []
                calls.append(("fekete",
                              lambda t=target, n=n: api.minimize(
                                  t, n, seed=spec["fekete_seed"],
                                  grad_tol=spec["fekete_grad_tol"]),
                              check))

        places = api.PlaceSet(True, tuple(spec["bound_primes"]))
        calls.append(("bounds", lambda: api.lower_bound(places),
                      lambda res: checks.near("bound", res.value,
                                               checks.bound_value(places.primes, None), 1e-12)))
        calls.append(("bounds", lambda: api.lower_bound_interval(places, spec["bound_r"]),
                      lambda res: checks.near("interval bound", res.value,
                                               checks.bound_value(places.primes, spec["bound_r"]),
                                               1e-12)))
        if spec["census"]:
            beaters = []
            calls.append(("bounds", api.single_place_beaters,
                          lambda res: beaters.extend(res) or []))
            calls.append(("bounds", api.count_beating_pairs,
                          lambda res: checks.check_census(beaters, res)))

        ops = []
        for part, thunk, check in calls:
            op, res = timed(part, thunk)
            if res is not None:
                op.problems = check(res)
            ops.append(op)
        return ops


class Cli:
    """Cold ``python -m arakelov`` runs of README commands, one at a time."""

    def __init__(self, api, seed: int, pool_seed: int):
        self.seed = seed
        self.env = child_env()
        self._run(inputs.CLI_COMMANDS[9])  # warms the page cache and src/ bytecode

    def _run(self, argv) -> tuple[subprocess.CompletedProcess | None, float]:
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-m", "arakelov", *argv], cwd=ROOT,
                                  env=self.env, capture_output=True, text=True, timeout=60)
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            proc = None
        return proc, time.perf_counter() - t0

    def round(self, k: int) -> list[Op]:
        ops = []
        for argv in inputs.cli_round(self.seed, k):
            proc, seconds = self._run(argv)
            if proc is None:
                ops.append(Op("cli", seconds, "no exit within 60 s"))
                continue
            if proc.returncode != 0:
                tail = proc.stderr.strip().splitlines()[-1:] or [""]
                ops.append(Op("cli", seconds, f"exit {proc.returncode}: {tail[0][:160]}"))
                continue
            try:
                problems = checks.check_cli(argv, proc.stdout)
            except (ValueError, KeyError, IndexError) as exc:
                problems = [f"{' '.join(argv)}: unreadable output ({exc})"]
            ops.append(Op("cli", seconds, None, problems))
        return ops


WORKLOADS = {"corpus": Corpus, "itemized": Itemized, "analytic": Analytic, "cli": Cli}


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def import_program():
    sys.path.insert(0, str(ROOT / "src"))
    import arakelov

    if Path(arakelov.__file__).resolve().parent != ROOT / "src" / "arakelov":
        raise SystemExit(f"imported arakelov from {arakelov.__file__}, not from this checkout")
    import layers

    return layers


def summarize(ops: list[Op], rounds: int) -> dict:
    lat = np.sort([op.seconds for op in ops if op.error is None])
    slowest = lat[-math.ceil(TAIL_SHARE * len(lat)):]
    parts: dict[str, float] = {}
    for op in ops:
        parts[op.part] = parts.get(op.part, 0.0) + op.seconds
    return {
        "attempted": len(ops),
        "failed": sum(op.error is not None for op in ops),
        "correct": not any(op.problems for op in ops if op.error is None),
        "rounds": rounds,
        "completed": len(lat),
        "timed_s": sum(op.seconds for op in ops),
        "p50_s": float(np.median(lat)) if len(lat) else math.nan,
        "tail_s": float(np.mean(slowest)) if len(lat) else math.nan,
        "tail_count": len(slowest),
        "part_s_per_round": {k: v / rounds for k, v in parts.items()},
        "errors": sorted({op.error for op in ops if op.error})[:5],
        "problems": [p for op in ops for p in op.problems][:5],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pool-seed", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    api = timer = None
    if args.workload != "cli" or args.trace:
        layers = import_program()
        api = layers.entry_points()
        if args.trace:
            timer = layers.LayerTimer()
            timer.install(api)
        warm_up(api)
    workload = WORKLOADS[args.workload](api, args.seed, args.pool_seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    trace_rounds = TRACE_ROUNDS[args.workload] if args.trace else 0
    layer_values = timer.snapshot() if timer and trace_rounds == 0 else None
    ops: list[Op] = []
    start = time.perf_counter()
    k = 0
    while k < max(1, trace_rounds) or time.perf_counter() - start < args.seconds:
        ops += workload.round(k)
        k += 1
        if timer and k == trace_rounds:
            layer_values = timer.snapshot()
    result = summarize(ops, k)
    result["wall_s"] = time.perf_counter() - start
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    result["peak_rss_mib"] = resource.getrusage(who).ru_maxrss / 1024.0
    result["layers"] = layer_values
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
