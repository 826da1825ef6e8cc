"""Per-layer timing from outside the program.

Wrappers replace each layer's public functions where they are bound: in the
module that calls them (``heights`` calls ``complex_roots``, ``discriminant``,
``is_cyclotomic`` and ``arch_energy_sum_from_roots``), or in the benchmark's
own table of entry points for the calls the benchmark makes itself.  The
program's code is not changed.
"""
from __future__ import annotations

import time
from collections import defaultdict
from types import SimpleNamespace

# heights.<name> -> metric; these are the child spans of height_report
_HEIGHTS_CHILDREN = {
    "complex_roots": "roots.complex_roots_s",
    "discriminant": "polynomials.discriminant_s",
    "is_cyclotomic": "polynomials.is_cyclotomic_s",
    "arch_energy_sum_from_roots": "heights.energy_sum_s",
}
# benchmark entry points -> metric
_ENTRY = {
    "parse_polynomial": "polynomials.parse_s",
    "newton_polygon": "padic.newton_polygon_s",
    "p_adic_root_count": "padic.root_count_s",
    "energy": "equilibrium.energy_s",
    "potential": "equilibrium.potential_s",
    "mass": "equilibrium.mass_s",
    "energy_via_balayage": "equilibrium.balayage_s",
}
_FEKETE = {"Sphere": "fekete.sphere_s", "RealLine": "fekete.real_line_s",
           "Interval": "fekete.interval_s"}

_QUADRATURE = {"energy", "potential", "mass", "energy_via_balayage"}

TIME_METRICS = (tuple(_ENTRY.values()) + tuple(_HEIGHTS_CHILDREN.values())
                + ("heights.report_self_s",) + tuple(_FEKETE.values()))
COUNT_METRICS = ("roots.mpmath_inputs", "quadrature.evaluations", "fekete.iterations")


def entry_points() -> SimpleNamespace:
    """The public calls every workload makes, looked up through one table."""
    from arakelov import bounds, equilibrium, fekete, heights, padic, polynomials

    return SimpleNamespace(
        parse_polynomial=polynomials.parse_polynomial,
        height_report=heights.height_report,
        newton_polygon=padic.newton_polygon,
        p_adic_root_count=padic.p_adic_root_count,
        energy=equilibrium.energy,
        potential=equilibrium.potential,
        mass=equilibrium.mass,
        energy_via_balayage=equilibrium.energy_via_balayage,
        minimize=fekete.minimize,
        single_place_beaters=bounds.single_place_beaters,
        count_beating_pairs=bounds.count_beating_pairs,
        lower_bound=bounds.lower_bound,
        lower_bound_interval=bounds.lower_bound_interval,
        PlaceSet=bounds.PlaceSet,
        Sphere=equilibrium.Sphere,
        RealLine=equilibrium.RealLine,
        Interval=equilibrium.Interval,
    )


class LayerTimer:
    """Accumulates seconds per layer, and counts read from results or call sites."""

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._report_depth = 0
        self._report_children = 0.0
        self._in_roots = False
        self._entered_mpmath = False

    def _timed(self, name: str, fn, child: bool = False, count: str | None = None):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.seconds[name] += dt
                if child and self._report_depth:
                    self._report_children += dt
            if count:
                self.counts[count] += result.evaluations
            return result
        return wrapper

    def install(self, api: SimpleNamespace) -> None:
        """Wrap the entry points in ``api`` and the calls bound in ``heights``."""
        import mpmath
        from arakelov import heights

        for attr, name in _ENTRY.items():
            count = "quadrature.evaluations" if attr in _QUADRATURE else None
            setattr(api, attr, self._timed(name, getattr(api, attr), count=count))
        for attr, name in _HEIGHTS_CHILDREN.items():
            setattr(heights, attr, self._timed(name, getattr(heights, attr), child=True))

        report = api.height_report

        def height_report(*args, **kwargs):
            self._report_depth += 1
            t0 = time.perf_counter()
            before = self._report_children
            try:
                return report(*args, **kwargs)
            finally:
                self._report_depth -= 1
                total = time.perf_counter() - t0
                self.seconds["heights.report_self_s"] += total - (self._report_children - before)
        api.height_report = height_report

        minimize = api.minimize

        def timed_minimize(target, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                config = minimize(target, *args, **kwargs)
            finally:
                self.seconds[_FEKETE[type(target).__name__]] += time.perf_counter() - t0
            self.counts["fekete.iterations"] += config.iterations
            return config
        api.minimize = timed_minimize

        roots = heights.complex_roots

        def complex_roots(*args, **kwargs):
            self._in_roots, self._entered_mpmath = True, False
            try:
                return roots(*args, **kwargs)
            finally:
                self._in_roots = False
                self.counts["roots.mpmath_inputs"] += self._entered_mpmath
        heights.complex_roots = complex_roots

        # roots.py looks up mp.workdps on the mpmath module at call time
        workdps = mpmath.workdps

        def counted_workdps(*args, **kwargs):
            if self._in_roots:
                self._entered_mpmath = True
            return workdps(*args, **kwargs)
        mpmath.workdps = counted_workdps

    def snapshot(self) -> dict:
        out = {name: self.seconds.get(name, 0.0) for name in TIME_METRICS}
        out.update({name: self.counts.get(name, 0) for name in COUNT_METRICS})
        return out
