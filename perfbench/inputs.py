"""Seeded inputs of the four benchmark workloads.

Every input is a function of two seeds and the round index only, so a run can
be repeated, and a claim re-checked on seeds nobody tuned against:

* the workload seed (``--seed``) picks the corpus polynomials, and everything
  else that does not change the cost of a call: the order of each round,
  sample points, and small jitters of tolerances and radii that keep any call
  from repeating an earlier one;
* the pool seed (``--pool-seed``, default 0) picks what sets the cost of the
  itemized and analytic workloads: the itemized polynomials and the Fekete
  restart seeds.  Their cost per input is so uneven (one factoring can take a
  thousand times the median) that runs on different pools would disagree by
  more than any usable bound.

Print the inputs of the first rounds of any workload with

    python3 perfbench/inputs.py --workload itemized --seed 7 --pool-seed 3 --rounds 2

Polynomials are written in the package's input grammar ("3x^4 - x + 7"); the
program receives only this text.
"""
from __future__ import annotations

import argparse
import json
import math
import shlex
import sys

import numpy as np

PRIMES = (2, 3, 5, 7, 11, 13)
CORPUS_ROUND = 100  # reports per corpus round
ITEMIZED_ROUND = 10  # structure reports per itemized round
_STREAM = {"corpus": 1, "itemized": 2, "analytic": 3, "cli": 4}
_SQUAREFREE_PRIMES = (1000003, 998244353)

# README commands that finish in about one second, plus the one known fault:
# roots at +-1e-20 never get disjoint certified disks, so this exits 3.
CLI_COMMANDS = (
    ("height", "--poly", "x^2 - 2", "--format", "json"),
    ("height", "--poly", "x - 1", "--bits"),
    ("local", "--poly", "x^2 - 2", "--place", "2"),
    ("measure", "--sphere", "--energy"),
    ("measure", "--real-line", "--energy"),
    ("measure", "--interval", "2", "--energy"),
    ("measure", "--interval", "1", "--density-grid", "200", "--format", "csv"),
    ("measure", "--real-line", "--potential-grid", "50", "--format", "csv"),
    ("fekete", "--real-line", "--n", "8", "--seed", "1"),
    ("bounds", "--places", "inf,2"),
    ("bounds", "--places", "inf,2", "--r", "2"),
    ("pairs", "--format", "csv"),
)
CLI_FAULT = ("height", "--poly", "10000000000000000000000000000000000000000x^2 - 1")


def poly_text(coeffs) -> str:
    """Ascending integer coefficients as grammar text, highest degree first."""
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = int(coeffs[k])
        if c == 0:
            continue
        mag = abs(c)
        var = "" if k == 0 else ("x" if k == 1 else f"x^{k}")
        body = str(mag) if k == 0 else (var if mag == 1 else f"{mag}{var}")
        if parts:
            parts.append(("- " if c < 0 else "+ ") + body)
        else:
            parts.append(("-" if c < 0 else "") + body)
    return " ".join(parts)


def primitive(coeffs) -> tuple[int, ...]:
    """Content divided out and leading coefficient made positive."""
    g = 0
    for c in coeffs:
        g = math.gcd(g, int(c))
    sign = -1 if coeffs[-1] < 0 else 1
    return tuple(sign * int(c) // g for c in coeffs)


def _gcd_degree_mod(f, g, p: int) -> int:
    a = [c % p for c in f]
    b = [c % p for c in g]
    while a and a[-1] == 0:
        a.pop()
    while b and b[-1] == 0:
        b.pop()
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            c = a[-1] * inv % p
            off = len(a) - len(b)
            for j, bj in enumerate(b):
                a[off + j] = (a[off + j] - c * bj) % p
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return len(a) - 1


def certified_squarefree(coeffs) -> bool:
    """gcd(f, f') is constant modulo a prime that keeps the degree."""
    if len(coeffs) <= 2:
        return True
    deriv = [k * c for k, c in enumerate(coeffs) if k >= 1]
    return any(coeffs[-1] % p and _gcd_degree_mod(coeffs, deriv, p) == 0
               for p in _SQUAREFREE_PRIMES)


def _class_key(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """One key for f(x), f(-x) and their reversals, which share |disc|."""
    alt = tuple(c if k % 2 == 0 else -c for k, c in enumerate(coeffs))
    return min(primitive(v) for v in (coeffs, alt, coeffs[::-1], alt[::-1]))


class PolynomialStream:
    """Distinct squarefree polynomials, degree lo..8, coefficients in [-50, 50].

    End coefficients are nonzero, so no root sits at 0 or infinity.  No two
    members are equal up to x -> -x and reversal, so no report can reuse a
    discriminant factorization made for an earlier one.
    """

    def __init__(self, seed: int, stream: int, lo: int):
        self._rng = np.random.default_rng([seed, stream])
        self._lo = lo
        self._seen: set[tuple[int, ...]] = set()

    def take(self, count: int) -> list[tuple[str, tuple[int, ...]]]:
        """The next ``count`` inputs as (text, primitive ascending coefficients)."""
        out = []
        while len(out) < count:
            d = int(self._rng.integers(self._lo, 9))
            raw = [int(c) for c in self._rng.integers(-50, 51, size=d + 1)]
            if raw[0] == 0 or raw[-1] == 0:
                continue
            coeffs = primitive(raw)
            key = _class_key(coeffs)
            if key in self._seen or not certified_squarefree(coeffs):
                continue
            self._seen.add(key)
            out.append((poly_text(raw), coeffs))
        return out


def corpus_stream(seed: int) -> PolynomialStream:
    return PolynomialStream(seed, _STREAM["corpus"], lo=1)


def itemized_stream(pool_seed: int) -> PolynomialStream:
    return PolynomialStream(pool_seed, _STREAM["itemized"], lo=2)


def itemized_order(seed: int, k: int) -> list[int]:
    return [int(i) for i in np.random.default_rng([seed, _STREAM["itemized"], k])
            .permutation(ITEMIZED_ROUND)]


def _jitter(rng) -> float:
    """A factor within 1e-3 of 1: a new argument that costs the same work."""
    return 1.0 + 1e-3 * float(rng.random())


def analytic_round(seed: int, pool_seed: int, k: int) -> dict:
    """Round k of the analytic workload.

    Tolerances, radii and sample points change every round, so no call
    repeats an earlier call's arguments; their changes are too small to change
    the work a call does.  Radii sit on the geometric grid
    2^(-3 + 0.6 j) in [1/8, 8]: interval energies fail from about r = 16
    (see README.md).
    """
    rng = np.random.default_rng([seed, _STREAM["analytic"], k])
    jitter = _jitter(rng)
    radii = [2.0 ** (-3.0 + 0.6 * j) * _jitter(rng) for j in range(11)]
    sphere_points = [complex(rho * math.cos(a), rho * math.sin(a))
                     for rho, a in zip(5.0 * rng.random(8), 2.0 * math.pi * rng.random(8))]
    line_points = [math.tan(math.pi * (float(u) - 0.5)) for u in rng.random(8)]
    interval_psi = [[math.pi * (float(u) - 0.5) for u in rng.random(4)] for _ in radii]
    return {
        "tol": 1e-8 * jitter,
        "mass_tol": 1e-9 * jitter,
        "radii": radii,
        "sphere_points": [[z.real, z.imag] for z in sphere_points],
        "line_points": line_points,
        "interval_points": [[r * math.sin(p) for p in ps]
                            for r, ps in zip(radii, interval_psi)],
        "fekete_sphere": [4, 6, 8, 16, 32],
        "fekete_line": [8, 16, 32, 64],
        "fekete_interval": [8, 16, 32, 64],
        "fekete_r": _jitter(rng),
        # descent length varies by +-30 % with the restart seed, so every round
        # uses the pool's seed and a new gradient tolerance instead
        "fekete_seed": int(np.random.default_rng([pool_seed, _STREAM["analytic"]])
                           .integers(0, 2**31)),
        "fekete_grad_tol": 1e-10 * _jitter(rng),
        "bound_r": 0.5 + 4.0 * float(rng.random()),
        "bound_primes": sorted(int(p) for p in rng.choice(PRIMES, size=2, replace=False)),
        "census": k == 0,  # no arguments, so only the first round asks
    }


def cli_round(seed: int, k: int) -> list[tuple[str, ...]]:
    """The README commands and the known fault, in a seeded order."""
    rng = np.random.default_rng([seed, _STREAM["cli"], k])
    commands = list(CLI_COMMANDS) + [CLI_FAULT]
    return [commands[i] for i in rng.permutation(len(commands))]


def round_inputs(workload: str, seed: int, pool_seed: int, rounds: int) -> list:
    if workload == "corpus":
        stream = corpus_stream(seed)
        return [stream.take(CORPUS_ROUND) for _ in range(rounds)]
    if workload == "itemized":
        stream = itemized_stream(pool_seed)
        return [[block[i] for i in itemized_order(seed, k)]
                for k, block in enumerate(stream.take(ITEMIZED_ROUND) for _ in range(rounds))]
    if workload == "analytic":
        return [analytic_round(seed, pool_seed, k) for k in range(rounds)]
    if workload == "cli":
        return [cli_round(seed, k) for k in range(rounds)]
    raise ValueError(f"unknown workload {workload!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(_STREAM))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pool-seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=1)
    args = parser.parse_args(argv)
    if min(args.seed, args.pool_seed) < 0 or args.rounds < 1:
        parser.error("seeds must be >= 0 and --rounds >= 1")
    for k, item in enumerate(round_inputs(args.workload, args.seed, args.pool_seed,
                                          args.rounds)):
        if args.workload in ("corpus", "itemized"):
            print("\n".join(text for text, _ in item))
        elif args.workload == "analytic":
            print(json.dumps({"round": k, **item}))
        else:
            print("\n".join(shlex.join(cmd) for cmd in item))
    return 0


if __name__ == "__main__":
    sys.exit(main())
