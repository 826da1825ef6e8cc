"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 numeric
failure, 4 optimizer budget exhausted (partial result still printed).
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

from . import bounds as bounds_mod
from . import equilibrium as eq
from . import fekete, verification
from .heights import DEFAULT_TOL, height_report, nonarch_energy_sum, arch_energy_sum
from .polynomials import (AlgebraicPoint, PrimitivePolynomial,
                          normalize_coefficients, parse_polynomial_with_notices)
from .quadrature import QuadratureError
from .roots import RootFindingError

LOG2 = math.log(2.0)


class UsageError(ValueError):
    pass


def _fmt(value: float, digits: int) -> str:
    return f"{value:.{digits}f}"


@dataclass
class Record:
    """What one command produced: a JSON payload, csv lines, text lines, exit code.

    ``text`` is None where the text output is the csv output.
    """

    payload: object
    csv: list[str]
    text: list[str] | None = None
    code: int = 0

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return json.dumps(self.payload) + "\n"
        lines = self.text if fmt == "text" and self.text is not None else self.csv
        return "\n".join(lines) + "\n"


def _digits(text: str) -> int:
    """The --digits argument: an int of at least 0."""
    try:
        digits = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if digits < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {digits}")
    return digits


def _add_common(sub: argparse.ArgumentParser, func, *reads: str) -> None:
    """The command's handler, --format and --output, and those of --digits,
    --tol and --seed that it reads: an option it would ignore is a usage error."""
    sub.set_defaults(func=func)
    sub.add_argument("--format", choices=("json", "csv", "text"), default="text")
    if "digits" in reads:
        sub.add_argument("--digits", type=_digits, default=10)
    sub.add_argument("--output", default=None, help="write output to this file")
    if "tol" in reads:
        sub.add_argument("--tol", type=float, default=None, help="tolerance override")
    if "seed" in reads:
        sub.add_argument("--seed", type=int, default=0)


def _add_set_flags(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--sphere", action="store_true")
    group.add_argument("--real-line", action="store_true")
    group.add_argument("--interval", type=float, metavar="R")


def _add_point_flags(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--poly", help='polynomial text, e.g. "x^2 - 2"')
    group.add_argument("--coeffs", help="JSON coefficient list, ascending degree")
    group.add_argument("--point", help="0 or inf")


def _target_set(args) -> eq.TargetSet:
    if args.sphere:
        return eq.Sphere()
    if args.real_line:
        return eq.RealLine()
    return eq.Interval(args.interval)


def _point_from_args(args) -> tuple[AlgebraicPoint, list[str]]:
    if args.point is not None:
        if args.point == "0":
            return AlgebraicPoint.zero(), []
        if args.point in ("inf", "infinity", "oo"):
            return AlgebraicPoint.infinity(), []
        raise UsageError("--point accepts 0 or inf; use --poly for other points")
    if args.coeffs is not None:
        data = json.loads(args.coeffs)
        if isinstance(data, dict):
            data = data.get("coeffs")
        if not isinstance(data, list):
            raise UsageError('--coeffs expects a JSON list or {"coeffs": [...]}')
        coeffs, notices = normalize_coefficients(data)
        return AlgebraicPoint.finite(PrimitivePolynomial(coeffs)), notices
    poly, notices = parse_polynomial_with_notices(args.poly)
    return AlgebraicPoint.finite(poly), notices


def _cmd_height(args) -> Record:
    point, notices = _point_from_args(args)
    tol = args.tol if args.tol is not None else DEFAULT_TOL
    report = height_report(point, tol=tol)
    unit = LOG2 if args.bits else 1.0
    payload = report.to_json_dict()
    if args.bits:
        payload["h_arakelov"] /= unit
        payload["h_weil"] /= unit
        for entry in payload["locals"]:
            entry["value"] /= unit
            entry["error_bound"] /= unit
        if payload["crosscheck_residual"] is not None:
            payload["crosscheck_residual"] /= unit
    payload["unit"] = "bits" if args.bits else "nats"
    payload["tolerance"] = tol
    payload["notices"] = notices
    h_ar = _fmt(payload["h_arakelov"], args.digits)
    h_weil = _fmt(payload["h_weil"], args.digits)
    rows = ["field,value", f"h_arakelov,{h_ar}", f"h_weil,{h_weil}"]
    lines = [f"h_arakelov = {h_ar} {payload['unit']}",
             f"h_weil = {h_weil} {payload['unit']}"]
    for entry in payload["locals"]:
        value = _fmt(entry["value"], args.digits)
        err = (""
               if entry["error_bound"] == 0.0
               else f", error <= {entry['error_bound']:.2e}")
        rows.append(f"local_{entry['place']},{value}")
        lines.append(f"local {entry['place']}: {value} ({entry['method']}{err})")
    resid = payload["crosscheck_residual"]
    rows.append("crosscheck_residual," +
                ("n/a" if resid is None else _fmt(resid, args.digits)))
    lines.append("crosscheck_residual = " +
                 ("n/a (degree < 2)" if resid is None else f"{resid:.3e}"))
    if payload["flags"]:
        lines.append("flags: " + ", ".join(payload["flags"]))
    lines += [f"notice: {notice}" for notice in notices]
    return Record(payload, rows, lines)


def _cmd_local(args) -> Record:
    point, _ = _point_from_args(args)
    if point.poly is None or point.is_zero:
        raise UsageError("local energies need a point of degree >= 2")
    tol = args.tol if args.tol is not None else DEFAULT_TOL
    if args.place in ("inf", "infinity", "oo"):
        entry = arch_energy_sum(point.poly, tol=tol)
    else:
        entry = nonarch_energy_sum(point.poly, int(args.place))
    payload = entry.to_json_dict()
    value = _fmt(payload["value"], args.digits)
    return Record(payload,
                  ["place,value,method,error_bound",
                   f"{payload['place']},{value},{payload['method']},"
                   f"{payload['error_bound']:.3e}"],
                  [f"local {payload['place']}: {value} "
                   f"({payload['method']}, error <= {payload['error_bound']:.2e})"])


def _cmd_measure(args) -> Record:
    target = _target_set(args)
    tol = args.tol if args.tol is not None else 1e-8
    if args.density_grid is not None or args.potential_grid is not None:
        column = "density" if args.density_grid is not None else "potential"
        n = args.density_grid if column == "density" else args.potential_grid
        if n < 1:
            raise UsageError(f"--{column}-grid needs a positive point count")
        payload = []
        for k in range(n):
            u = (k + 0.5) / n
            if isinstance(target, eq.Interval):
                x = target.r * math.sin(math.pi * (u - 0.5))
            else:
                x = math.tan(math.pi * (u - 0.5))
            if column == "density":
                value = eq.density(target, x)
            else:
                value = eq.potential(target, x, tol=tol).value
            payload.append({"x": x, column: value})
        return Record(payload, [f"x,{column}"] + [
            f"{p['x']:.{args.digits}g},{_fmt(p[column], args.digits)}" for p in payload])
    name = eq.set_name(target)
    if args.energy:
        action, result = "energy", eq.energy(target, tol=tol)
    elif args.mass:
        action, result = "mass", eq.mass(target, tol=tol)
    else:
        text = args.potential_at
        x = eq.INF if text in ("inf", "infinity", "oo") else complex(text)
        action, result = "potential-at", eq.potential(target, x, tol=tol)
    payload = {"set": name, "action": action, "tol": tol,
               **result.to_json_dict()}
    value, n = _fmt(result.value, args.digits), result.evaluations
    return Record(payload,
                  ["set,action,value,est_error,evaluations",
                   f"{name},{action},{value},{result.est_error:.3e},{n}"],
                  [f"{action} of {name} = {value} "
                   f"(est_error {result.est_error:.2e}, {n} evaluations)"])


def _cmd_fekete(args) -> Record:
    target = _target_set(args)
    if args.table is not None:
        ns = sorted(int(t) for t in args.table.split(","))
        rows = fekete.convergence_table(target, ns, seed=args.seed, budget=args.budget,
                                        restarts=args.restarts)
        lines = ["n,energy,limit,gap"]
        lines += [f"{row.n},{_fmt(row.energy, args.digits)},"
                  f"{_fmt(row.limit, args.digits)},{_fmt(row.gap, args.digits)}"
                  for row in rows]
        return Record([row.__dict__ for row in rows], lines)
    config = fekete.minimize(target, args.n, seed=args.seed, budget=args.budget,
                             restarts=args.restarts)
    payload = config.to_json_dict()
    payload["analytic_limit"] = eq.analytic_energy(target)
    energy = _fmt(config.energy, args.digits)
    return Record(payload,
                  ["n,energy,iterations,converged",
                   f"{config.n},{energy},{config.iterations},{config.converged}"],
                  [f"energy = {energy} after {config.iterations} iterations "
                   f"(converged: {config.converged}); "
                   f"analytic limit {_fmt(payload['analytic_limit'], args.digits)}"],
                  0 if config.converged else 4)


def _cmd_bounds(args) -> Record:
    places = bounds_mod.PlaceSet.parse(args.places)
    if args.r is not None:
        if not places.includes_infinity:
            raise UsageError("--r requires the archimedean place in --places")
        result = bounds_mod.lower_bound_interval(places, args.r)
    else:
        result = bounds_mod.lower_bound(places)
    base = _fmt(result.base_value, args.digits)
    terms = [(p, _fmt(v, args.digits)) for p, v in result.terms]
    total = _fmt(result.value, args.digits)
    rows = ["term,value", f"base_{result.base},{base}"]
    rows += [f"{p},{v}" for p, v in terms]
    rows.append(f"total,{total}")
    lines = [f"bound = {total} nats",
             f"base {result.base}"
             + (f" (r={result.r:g})" if result.r is not None else "")
             + f": {base}"]
    lines += [f"term {p}: {v}" for p, v in terms]
    lines.append(f"beats_elementary: {str(result.beats_elementary).lower()}")
    return Record(result.to_json_dict(), rows, lines)


def _cmd_pairs(args) -> Record:
    census = bounds_mod.count_beating_pairs()
    payload = {"count": census.count, "cutoff_prime": census.cutoff_prime,
               "threshold": census.threshold,
               "pairs": [list(p) for p in census.pairs]}
    rows = census.to_csv().splitlines()
    return Record(payload, rows,
                  [f"{census.count} prime pairs beat the elementary bound "
                   f"(cutoff prime {census.cutoff_prime})"] + rows)


def _cmd_verify(args) -> Record:
    results = verification.run_suite(args.suite, seed=args.seed,
                                     corpus_size=args.corpus_size)
    ok = all(r.passed for r in results)
    payload = {"passed": ok,
               "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail}
                          for r in results]}
    lines = [f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}"
             for r in results]
    lines.append(f"{'all checks passed' if ok else 'SOME CHECKS FAILED'} "
                 f"({sum(r.passed for r in results)}/{len(results)})")
    return Record(payload, lines, code=0 if ok else 1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arakelov",
        description="Arakelov heights on P^1: local energies, equilibrium "
                    "measures, Fekete configurations, splitting bounds.")
    subs = parser.add_subparsers(dest="command", required=True)

    height = subs.add_parser("height", help="height report for an algebraic point")
    _add_point_flags(height)
    height.add_argument("--bits", action="store_true", help="report in bits")
    _add_common(height, _cmd_height, "digits", "tol")

    local = subs.add_parser("local", help="one local energy sum")
    _add_point_flags(local)
    local.add_argument("--place", required=True, help="inf or a prime")
    _add_common(local, _cmd_local, "digits", "tol")

    measure = subs.add_parser("measure", help="equilibrium measure quantities")
    _add_set_flags(measure)
    action = measure.add_mutually_exclusive_group(required=True)
    action.add_argument("--energy", action="store_true")
    action.add_argument("--mass", action="store_true")
    action.add_argument("--potential-at", metavar="X")
    action.add_argument("--density-grid", type=int, metavar="N")
    action.add_argument("--potential-grid", type=int, metavar="N")
    _add_common(measure, _cmd_measure, "digits", "tol")

    fek = subs.add_parser("fekete", help="minimize the discrete energy")
    _add_set_flags(fek)
    size = fek.add_mutually_exclusive_group(required=True)
    size.add_argument("--n", type=int)
    size.add_argument("--table", help="comma-separated N values")
    fek.add_argument("--budget", type=int, default=4000)
    fek.add_argument("--restarts", type=int, default=8)
    _add_common(fek, _cmd_fekete, "digits", "seed")

    bnd = subs.add_parser("bounds", help="splitting lower bounds")
    bnd.add_argument("--places", required=True, help='e.g. "inf,2,3"')
    bnd.add_argument("--r", type=float, help="confine conjugates to [-r, r]")
    _add_common(bnd, _cmd_bounds, "digits")

    pairs = subs.add_parser("pairs", help="census of prime pairs beating the bound")
    _add_common(pairs, _cmd_pairs)

    verify = subs.add_parser("verify", help="run the reproduction checks")
    verify.add_argument("--suite", default="all",
                        choices=("all",) + tuple(verification.SUITES))
    verify.add_argument("--corpus-size", type=int, default=10000)
    _add_common(verify, _cmd_verify, "seed")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        record = args.func(args)
    except ValueError as exc:  # also bad polynomial text, non-squarefree input, bad JSON
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (QuadratureError, RootFindingError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    text = record.render(args.format)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return record.code


if __name__ == "__main__":
    sys.exit(main())
