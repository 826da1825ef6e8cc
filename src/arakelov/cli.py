"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 numeric
failure, 4 optimizer budget exhausted (partial result still printed).
"""
from __future__ import annotations

import argparse
import json
import math
import sys

from . import bounds as bounds_mod
from . import equilibrium as eq
from . import fekete, verification
from .heights import height_report, nonarch_energy_sum, arch_energy_sum
from .polynomials import (AlgebraicPoint, NotSquarefreeError,
                          PolynomialSyntaxError, PrimitivePolynomial,
                          parse_polynomial_with_notices)
from .quadrature import QuadratureError
from .roots import RootFindingError

LOG2 = math.log(2.0)


class UsageError(ValueError):
    pass


def _fmt(value: float, digits: int) -> str:
    return f"{value:.{digits}f}"


def _emit(text: str, path: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("json", "csv", "text"), default="text")
    sub.add_argument("--digits", type=int, default=10)
    sub.add_argument("--output", default=None, help="write output to this file")
    sub.add_argument("--tol", type=float, default=None, help="tolerance override")
    sub.add_argument("--seed", type=int, default=0)


def _add_set_flags(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--sphere", action="store_true")
    group.add_argument("--real-line", action="store_true")
    group.add_argument("--interval", type=float, metavar="R")


def _target_set(args) -> eq.TargetSet:
    if args.sphere:
        return eq.Sphere()
    if args.real_line:
        return eq.RealLine()
    return eq.Interval(args.interval)


def _point_from_args(args) -> tuple[AlgebraicPoint, list[str]]:
    given = [x is not None for x in (args.poly, args.coeffs, args.point)]
    if sum(given) != 1:
        raise UsageError("give exactly one of --poly, --coeffs, --point")
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
        from .polynomials import normalize_coefficients
        coeffs, notices = normalize_coefficients(data)
        return AlgebraicPoint.finite(PrimitivePolynomial(coeffs)), notices
    poly, notices = parse_polynomial_with_notices(args.poly)
    return AlgebraicPoint.finite(poly), notices


def _cmd_height(args) -> int:
    point, notices = _point_from_args(args)
    tol = args.tol if args.tol is not None else 1e-12
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
    if args.format == "json":
        _emit(json.dumps(payload), args.output)
    elif args.format == "csv":
        rows = ["field,value",
                f"h_arakelov,{_fmt(payload['h_arakelov'], args.digits)}",
                f"h_weil,{_fmt(payload['h_weil'], args.digits)}"]
        for entry in payload["locals"]:
            rows.append(f"local_{entry['place']},{_fmt(entry['value'], args.digits)}")
        resid = payload["crosscheck_residual"]
        rows.append("crosscheck_residual," +
                    ("n/a" if resid is None else _fmt(resid, args.digits)))
        _emit("\n".join(rows), args.output)
    else:
        lines = [f"h_arakelov = {_fmt(payload['h_arakelov'], args.digits)} {payload['unit']}",
                 f"h_weil = {_fmt(payload['h_weil'], args.digits)} {payload['unit']}"]
        for entry in payload["locals"]:
            err = (""
                   if entry["error_bound"] == 0.0
                   else f", error <= {entry['error_bound']:.2e}")
            lines.append(f"local {entry['place']}: "
                         f"{_fmt(entry['value'], args.digits)} ({entry['method']}{err})")
        resid = payload["crosscheck_residual"]
        lines.append("crosscheck_residual = " +
                     ("n/a (degree < 2)" if resid is None else f"{resid:.3e}"))
        if payload["flags"]:
            lines.append("flags: " + ", ".join(payload["flags"]))
        for notice in notices:
            lines.append(f"notice: {notice}")
        _emit("\n".join(lines), args.output)
    return 0


def _cmd_local(args) -> int:
    point, _ = _point_from_args(args)
    if point.poly is None or point.is_zero:
        raise UsageError("local energies need a point of degree >= 2")
    tol = args.tol if args.tol is not None else 1e-12
    if args.place in ("inf", "infinity", "oo"):
        entry = arch_energy_sum(point.poly, tol=tol)
    else:
        entry = nonarch_energy_sum(point.poly, int(args.place))
    payload = entry.to_json_dict()
    if args.format == "json":
        _emit(json.dumps(payload), args.output)
    elif args.format == "csv":
        _emit("place,value,method,error_bound\n"
              f"{payload['place']},{_fmt(payload['value'], args.digits)},"
              f"{payload['method']},{payload['error_bound']:.3e}", args.output)
    else:
        _emit(f"local {payload['place']}: {_fmt(payload['value'], args.digits)} "
              f"({payload['method']}, error <= {payload['error_bound']:.2e})",
              args.output)
    return 0


def _cmd_measure(args) -> int:
    target = _target_set(args)
    tol = args.tol if args.tol is not None else 1e-8
    name = ("sphere" if args.sphere else
            "real-line" if args.real_line else f"interval:{args.interval:g}")
    actions = [a for a, on in (("energy", args.energy), ("mass", args.mass),
                               ("potential-at", args.potential_at is not None),
                               ("density-grid", args.density_grid is not None),
                               ("potential-grid", args.potential_grid is not None)) if on]
    if len(actions) != 1:
        raise UsageError("give exactly one of --energy, --mass, "
                         "--potential-at, --density-grid, --potential-grid")
    action = actions[0]
    if action in ("density-grid", "potential-grid"):
        n = args.density_grid if action == "density-grid" else args.potential_grid
        if n < 1:
            raise UsageError(f"--{action} needs a positive point count")
        rows = ["x,density" if action == "density-grid" else "x,potential"]
        for k in range(n):
            u = (k + 0.5) / n
            if isinstance(target, eq.Interval):
                x = target.r * math.sin(math.pi * (u - 0.5))
            else:
                x = math.tan(math.pi * (u - 0.5))
            if action == "density-grid":
                value = eq.density(target, x)
            else:
                value = eq.potential(target, x, tol=tol).value
            rows.append(f"{x:.{args.digits}g},{_fmt(value, args.digits)}")
        _emit("\n".join(rows), args.output)
        return 0
    if action == "energy":
        result = eq.energy(target, tol=tol)
    elif action == "mass":
        result = eq.mass(target, tol=tol)
    else:
        text = args.potential_at
        x = eq.INF if text in ("inf", "infinity", "oo") else complex(text)
        result = eq.potential(target, x, tol=tol)
    payload = {"set": name, "action": action, "tol": tol,
               **result.to_json_dict()}
    if args.format == "json":
        _emit(json.dumps(payload), args.output)
    elif args.format == "csv":
        _emit("set,action,value,est_error,evaluations\n"
              f"{name},{action},{_fmt(result.value, args.digits)},"
              f"{result.est_error:.3e},{result.evaluations}", args.output)
    else:
        _emit(f"{action} of {name} = {_fmt(result.value, args.digits)} "
              f"(est_error {result.est_error:.2e}, {result.evaluations} evaluations)",
              args.output)
    return 0


def _cmd_fekete(args) -> int:
    target = _target_set(args)
    budget = args.budget
    if args.table:
        ns = sorted(int(t) for t in args.table.split(","))
        rows = fekete.convergence_table(target, ns, seed=args.seed, budget=budget,
                                        restarts=args.restarts)
        if args.format == "json":
            _emit(json.dumps([row.__dict__ for row in rows]), args.output)
        else:
            lines = ["n,energy,limit,gap"]
            for row in rows:
                lines.append(f"{row.n},{_fmt(row.energy, args.digits)},"
                             f"{_fmt(row.limit, args.digits)},{_fmt(row.gap, args.digits)}")
            _emit("\n".join(lines), args.output)
        return 0
    if args.n is None:
        raise UsageError("give --n (or --table)")
    config = fekete.minimize(target, args.n, seed=args.seed, budget=budget,
                             restarts=args.restarts)
    payload = config.to_json_dict()
    payload["analytic_limit"] = eq.analytic_energy(target)
    if args.format == "json":
        _emit(json.dumps(payload), args.output)
    elif args.format == "csv":
        _emit("n,energy,iterations,converged\n"
              f"{config.n},{_fmt(config.energy, args.digits)},"
              f"{config.iterations},{config.converged}", args.output)
    else:
        _emit(f"energy = {_fmt(config.energy, args.digits)} after "
              f"{config.iterations} iterations (converged: {config.converged}); "
              f"analytic limit {_fmt(payload['analytic_limit'], args.digits)}",
              args.output)
    return 0 if config.converged else 4


def _cmd_bounds(args) -> int:
    places = bounds_mod.PlaceSet.parse(args.places)
    if args.r is not None:
        if not places.includes_infinity:
            raise UsageError("--r requires the archimedean place in --places")
        result = bounds_mod.lower_bound_interval(places, args.r)
    else:
        result = bounds_mod.lower_bound(places)
    payload = result.to_json_dict()
    if args.format == "json":
        _emit(json.dumps(payload), args.output)
    elif args.format == "csv":
        rows = ["term,value", f"base_{result.base},{_fmt(result.base_value, args.digits)}"]
        rows += [f"{p},{_fmt(v, args.digits)}" for p, v in result.terms]
        rows.append(f"total,{_fmt(result.value, args.digits)}")
        _emit("\n".join(rows), args.output)
    else:
        lines = [f"bound = {_fmt(result.value, args.digits)} nats",
                 f"base {result.base}"
                 + (f" (r={result.r:g})" if result.r is not None else "")
                 + f": {_fmt(result.base_value, args.digits)}"]
        lines += [f"term {p}: {_fmt(v, args.digits)}" for p, v in result.terms]
        lines.append(f"beats_elementary: {str(result.beats_elementary).lower()}")
        _emit("\n".join(lines), args.output)
    return 0


def _cmd_pairs(args) -> int:
    census = bounds_mod.count_beating_pairs()
    if args.format == "json":
        payload = {"count": census.count, "cutoff_prime": census.cutoff_prime,
                   "threshold": census.threshold,
                   "pairs": [list(p) for p in census.pairs]}
        _emit(json.dumps(payload), args.output)
    elif args.format == "csv":
        _emit(census.to_csv(), args.output)
    else:
        _emit(f"{census.count} prime pairs beat the elementary bound "
              f"(cutoff prime {census.cutoff_prime})\n" + census.to_csv(),
              args.output)
    return 0


def _cmd_verify(args) -> int:
    results = verification.run_suite(args.suite, seed=args.seed,
                                     corpus_size=args.corpus_size)
    ok = all(r.passed for r in results)
    if args.format == "json":
        payload = [{"name": r.name, "passed": r.passed, "detail": r.detail}
                   for r in results]
        _emit(json.dumps({"passed": ok, "checks": payload}), args.output)
    else:
        lines = [f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}"
                 for r in results]
        lines.append(f"{'all checks passed' if ok else 'SOME CHECKS FAILED'} "
                     f"({sum(r.passed for r in results)}/{len(results)})")
        _emit("\n".join(lines), args.output)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arakelov",
        description="Arakelov heights on P^1: local energies, equilibrium "
                    "measures, Fekete configurations, splitting bounds.")
    subs = parser.add_subparsers(dest="command", required=True)

    height = subs.add_parser("height", help="height report for an algebraic point")
    height.add_argument("--poly", help='polynomial text, e.g. "x^2 - 2"')
    height.add_argument("--coeffs", help='JSON coefficient list, ascending degree')
    height.add_argument("--point", help="0 or inf")
    height.add_argument("--bits", action="store_true", help="report in bits")
    _add_common(height)
    height.set_defaults(func=_cmd_height)

    local = subs.add_parser("local", help="one local energy sum")
    local.add_argument("--poly")
    local.add_argument("--coeffs")
    local.add_argument("--point")
    local.add_argument("--place", required=True, help="inf or a prime")
    _add_common(local)
    local.set_defaults(func=_cmd_local)

    measure = subs.add_parser("measure", help="equilibrium measure quantities")
    _add_set_flags(measure)
    measure.add_argument("--energy", action="store_true")
    measure.add_argument("--mass", action="store_true")
    measure.add_argument("--potential-at", metavar="X")
    measure.add_argument("--density-grid", type=int, metavar="N")
    measure.add_argument("--potential-grid", type=int, metavar="N")
    _add_common(measure)
    measure.set_defaults(func=_cmd_measure)

    fek = subs.add_parser("fekete", help="minimize the discrete energy")
    _add_set_flags(fek)
    fek.add_argument("--n", type=int)
    fek.add_argument("--table", help="comma-separated N values")
    fek.add_argument("--budget", type=int, default=4000)
    fek.add_argument("--restarts", type=int, default=8)
    _add_common(fek)
    fek.set_defaults(func=_cmd_fekete)

    bnd = subs.add_parser("bounds", help="splitting lower bounds")
    bnd.add_argument("--places", required=True, help='e.g. "inf,2,3"')
    bnd.add_argument("--r", type=float, help="confine conjugates to [-r, r]")
    _add_common(bnd)
    bnd.set_defaults(func=_cmd_bounds)

    pairs = subs.add_parser("pairs", help="census of prime pairs beating the bound")
    _add_common(pairs)
    pairs.set_defaults(func=_cmd_pairs)

    verify = subs.add_parser("verify", help="run the reproduction checks")
    verify.add_argument("--suite", default="all",
                        choices=("all",) + tuple(verification.SUITES))
    verify.add_argument("--corpus-size", type=int, default=10000)
    _add_common(verify)
    verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, PolynomialSyntaxError, NotSquarefreeError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (QuadratureError, RootFindingError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
