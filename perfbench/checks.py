"""Output checks made apart from the program.

Each function returns a list of problems; an empty list means the output
passed.  Reference values come from closed forms, from mpmath and sympy, or
from brute force, never from a stored copy of an earlier run.
"""
from __future__ import annotations

import json
import math
import re

HALF_LOG2 = 0.5 * math.log(2.0)
LOG2 = math.log(2.0)


def near(name: str, got: float, want: float, tol: float) -> list[str]:
    if got is None or not abs(got - want) <= tol:
        return [f"{name} = {got!r}, expected {want!r} within {tol:g}"]
    return []


def interval_energy(r: float) -> float:
    return math.log(2.0 * math.sqrt(r * r + 1.0) / r)


def _mp_roots(coeffs):
    import mpmath

    with mpmath.workdps(30):
        return [complex(z) for z in mpmath.polyroots(list(reversed(coeffs)),
                                                     maxsteps=200, extraprec=60)]


def heights_from_roots(coeffs) -> tuple[float, float]:
    """(h_Ar, h_Weil) from mpmath roots: (log a_d + sum of local terms) / d."""
    d = len(coeffs) - 1
    roots = _mp_roots(coeffs)
    log_lead = math.log(coeffs[-1])
    h_ar = (log_lead + sum(0.5 * math.log1p(abs(z) ** 2) for z in roots)) / d
    h_weil = (log_lead + sum(max(0.0, math.log(abs(z))) for z in roots)) / d
    return h_ar, h_weil


def kronecker_unity(coeffs) -> bool:
    """All roots are roots of unity: monic, |a_0| = 1, every root on |z| = 1."""
    if coeffs[-1] != 1 or abs(coeffs[0]) != 1:
        return False
    return all(abs(abs(z) - 1.0) <= 1e-9 for z in _mp_roots(coeffs))


def check_corpus(coeffs, poly, report, sample: bool) -> list[str]:
    problems = []
    if tuple(poly.coeffs) != tuple(coeffs):
        problems.append(f"parsed {poly.coeffs}, expected {coeffs}")
    if not report.h_arakelov >= HALF_LOG2 - 1e-9:
        problems.append(f"h_Ar = {report.h_arakelov!r} below log(2)/2")
    if len(coeffs) > 2:
        res = report.crosscheck_residual
        if res is None or not res <= 1e-9:
            problems.append(f"crosscheck_residual = {res!r}")
    if ("root-of-unity" in report.flags) != kronecker_unity(coeffs):
        problems.append(f"root-of-unity flag {report.flags} disagrees with Kronecker")
    if sample:
        h_ar, h_weil = heights_from_roots(coeffs)
        problems += near("h_Ar", report.h_arakelov, h_ar, 1e-9)
        problems += near("h_Weil", report.h_weil, h_weil, 1e-9)
    return problems


def _valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def check_itemized(coeffs, poly, report, polygons, counts) -> list[str]:
    """Itemized discriminant entries, Newton polygons and Q_p root counts."""
    import sympy

    problems = []
    if tuple(poly.coeffs) != tuple(coeffs):
        problems.append(f"parsed {poly.coeffs}, expected {coeffs}")
    d = len(coeffs) - 1
    scale = d * (d - 1)
    disc = abs(int(sympy.Poly(list(reversed(coeffs)), sympy.Symbol("x")).discriminant()))
    if not report.h_arakelov >= HALF_LOG2 - 1e-9:
        problems.append(f"h_Ar = {report.h_arakelov!r} below log(2)/2")
    res = report.crosscheck_residual
    if res is None or not res <= 1e-9:
        problems.append(f"crosscheck_residual = {res!r}")
    product = 1
    total = 0.0
    for entry in report.locals[1:]:
        p = entry.place.prime
        v = round(entry.value * scale / math.log(p))
        total += entry.value * scale
        if v < 1 or not abs(entry.value - v * math.log(p) / scale) <= 1e-12 * max(1.0, entry.value):
            problems.append(f"entry at {p} is not v*log(p)/(d(d-1)): {entry.value!r}")
        elif not sympy.isprime(p) or _valuation(disc, p) != v:
            problems.append(f"entry p={p}, v={v} does not match disc {disc}")
        product *= p ** v
    if product != disc:
        problems.append(f"itemized primes multiply to {product}, disc is {disc}")
    problems += near("sum of v*log(p)", total, math.log(disc), 1e-9 * max(1.0, math.log(disc)))
    lead, const = coeffs[-1], coeffs[0]
    for polygon, count in zip(polygons, counts):
        p = polygon.prime
        if polygon.degree != d:
            problems.append(f"Newton polygon at {p} has multiplicities summing to {polygon.degree}")
        if polygon.positive_part_sum() != _valuation(lead, p):
            problems.append(f"Newton polygon at {p}: positive part {polygon.positive_part_sum()}")
        if polygon.valuation_sum() != _valuation(abs(const), p) - _valuation(lead, p):
            problems.append(f"Newton polygon at {p}: valuation sum {polygon.valuation_sum()}")
        if (lead * disc) % p:
            brute = sum(1 for x in range(p) if sum(c * x ** k for k, c in enumerate(coeffs)) % p == 0)
            if count.count != brute or not count.certified:
                problems.append(f"{count.count} roots in Q_{p} (certified {count.certified}), "
                                f"Hensel gives {brute}")
    return problems


def primes_upto(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for i in range(2, int(n ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(sieve[i * i::i]))
    return [i for i in range(n + 1) if sieve[i]]


def _t(p: int) -> float:
    return p * math.log(p) / (p * p - 1)


def census() -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """Single-place beaters and the beating pairs 13 < p < q, from t(p) = p log p/(p^2-1)."""
    primes = primes_upto(2000)
    beaters = tuple(p for p in primes if 0.25 + 0.5 * _t(p) > HALF_LOG2)
    threshold = 2.0 * (HALF_LOG2 - 0.25)
    big = [p for p in primes if p > 13]
    pairs = tuple((p, q) for i, p in enumerate(big) for q in big[i + 1:]
                  if _t(p) + _t(q) > threshold)
    if any(q == big[-1] for _, q in pairs):
        raise AssertionError("census sieve too short")
    return beaters, pairs


def check_census(beaters, pair_census) -> list[str]:
    want_beaters, want_pairs = census()
    problems = []
    if want_beaters != (2, 3, 5, 7, 11, 13) or len(want_pairs) != 82:
        problems.append("reference census disagrees with the paper")
    if tuple(beaters) != want_beaters:
        problems.append(f"single-place beaters {beaters}")
    if tuple(pair_census.pairs) != want_pairs or pair_census.count != len(want_pairs):
        problems.append(f"{pair_census.count} beating pairs, expected {len(want_pairs)}")
    return problems


def bound_value(primes, r: float | None) -> float:
    base = HALF_LOG2 if r is None else 0.5 * interval_energy(r)
    return base + sum(0.5 * _t(p) for p in primes)


def fekete_problems(kind: str, ns, energies, limit: float) -> list[str]:
    """Closed forms where known; otherwise energies rise with N below the limit."""
    problems = []
    for n, e in zip(ns, energies):
        if kind == "real-line":
            problems += near(f"real-line N={n} energy", e, LOG2 - math.log(n) / (n - 1), 1e-7)
        elif kind == "sphere" and n == 4:
            problems += near("sphere N=4 energy", e, -0.5 * math.log(2.0 / 3.0), 1e-7)
        elif kind == "sphere" and n == 6:
            problems += near("sphere N=6 energy", e, 0.4 * LOG2, 1e-7)
        if not e < limit:
            problems.append(f"{kind} N={n} energy {e!r} not below {limit!r}")
    if any(b <= a for a, b in zip(energies, energies[1:])):
        problems.append(f"{kind} energies do not rise with N: {energies}")
    return problems


# ---------------------------------------------------------------------------
# CLI outputs
# ---------------------------------------------------------------------------

_NUMBER = r"(-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)"


def _field(text: str, pattern: str) -> float | None:
    m = re.search(pattern.replace("NUM", _NUMBER), text)
    return float(m.group(1)) if m else None


def _csv_rows(text: str) -> list[tuple[float, float]]:
    return [tuple(float(v) for v in line.split(",")) for line in text.strip().splitlines()[1:]]


def check_cli(argv, stdout: str) -> list[str]:
    """Values parsed from one CLI run, matched to their closed forms (8-10 digits printed)."""
    cmd = " ".join(argv)
    tol = 2e-9
    if argv[:3] == ("height", "--poly", "x^2 - 2"):
        payload = json.loads(stdout)
        return (near(cmd, payload["h_arakelov"], 0.5 * math.log(3.0), 1e-12)
                + near(cmd + " residual", payload["crosscheck_residual"], 0.0, 1e-9))
    if argv[:3] == ("height", "--poly", "x - 1"):
        return near(cmd, _field(stdout, r"h_arakelov = NUM bits"), 0.5, tol)
    if argv[0] == "height":  # the known fault, once it certifies
        return near(cmd, _field(stdout, r"h_arakelov = NUM nats"), 20.0 * math.log(10.0), tol)
    if argv[0] == "local":
        return near(cmd, _field(stdout, r"local 2: NUM"), 1.5 * LOG2, tol)
    if argv[0] == "measure" and "--energy" in argv:
        want = (0.5 if "--sphere" in argv else LOG2 if "--real-line" in argv
                else interval_energy(float(argv[argv.index("--interval") + 1])))
        return near(cmd, _field(stdout, r"= NUM"), want, tol)
    if argv[0] == "measure" and "--density-grid" in argv:
        r = float(argv[argv.index("--interval") + 1])
        rows = _csv_rows(stdout)
        n = len(rows)
        # midpoint rule in psi, x = r sin(psi): dx = sqrt(r^2 - x^2) dpsi
        integral = sum(dens * math.sqrt(max(r * r - x * x, 0.0)) for x, dens in rows) * math.pi / n
        problems = [] if n == int(argv[argv.index("--density-grid") + 1]) else [f"{n} rows"]
        return problems + near(cmd + " integral", integral, 1.0, 1e-4)
    if argv[0] == "measure" and "--potential-grid" in argv:
        rows = _csv_rows(stdout)
        problems = [] if len(rows) == 50 else [f"{len(rows)} rows"]
        for x, pot in rows:
            problems += near(f"{cmd} at x={x}", pot, LOG2, tol)
        return problems
    if argv[0] == "fekete":
        return near(cmd, _field(stdout, r"energy = NUM"), LOG2 - math.log(8.0) / 7.0, tol)
    if argv[0] == "bounds":
        r = float(argv[argv.index("--r") + 1]) if "--r" in argv else None
        return near(cmd, _field(stdout, r"bound = NUM"), bound_value((2,), r), tol)
    if argv[0] == "pairs":
        pairs = tuple((int(p), int(q)) for p, q, _ in (line.split(",")
                      for line in stdout.strip().splitlines()[1:]))
        want = census()[1]
        return [] if pairs == want else [f"{cmd}: {len(pairs)} pairs, expected {len(want)}"]
    return [f"no check for {cmd}"]
