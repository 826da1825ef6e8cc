"""Arakelov heights on the projective line and their potential theory.

The package computes the Arakelov and Weil heights of algebraic points given
by integer polynomials, decomposes them into local energy sums, realizes the
minimal chordal-energy measures on the sphere, the real projective line and
real intervals, minimizes discrete energies over free point configurations,
and evaluates the splitting lower bounds with their prime censuses.
"""

from .bounds import (BoundResult, PairCensus, PlaceSet, chebyshev_limit_integral,
                     count_beating_pairs, lower_bound, lower_bound_interval,
                     nonarch_term, single_place_beaters)
from .equilibrium import (INF, Interval, RealLine, Sphere, TargetSet,
                          analytic_energy, conformal_map, density, energy,
                          energy_via_balayage, exterior_map, green_interval,
                          harmonic_measure_interval, mass, potential)
from .fekete import (ConvergenceRow, PointConfiguration, convergence_table,
                     discrete_energy, equally_spaced_energy, minimize)
from .heights import (HALF_LOG2, HeightReport, LocalEnergy, Place,
                      arakelov_height, arch_energy_sum, chordal_distance,
                      height_report, nonarch_energy_sum, weil_height)
from .padic import NewtonPolygonResult, PadicRootCount, newton_polygon, p_adic_root_count
from .polynomials import (AlgebraicPoint, NotSquarefreeError,
                          PolynomialSyntaxError, PrimitivePolynomial,
                          cyclotomic_polynomial, discriminant, is_cyclotomic,
                          parse_polynomial, parse_polynomial_with_notices,
                          reverse)
from .quadrature import QuadratureError, QuadratureResult
from .roots import CertifiedComplexRoots, RootFindingError, complex_roots

__all__ = [
    "AlgebraicPoint", "BoundResult", "CertifiedComplexRoots", "ConvergenceRow",
    "HALF_LOG2", "HeightReport", "INF", "Interval",
    "LocalEnergy", "NewtonPolygonResult", "NotSquarefreeError", "PadicRootCount",
    "PairCensus", "Place", "PlaceSet", "PointConfiguration",
    "PolynomialSyntaxError", "PrimitivePolynomial", "QuadratureError",
    "QuadratureResult", "RealLine", "RootFindingError", "Sphere", "TargetSet",
    "analytic_energy", "arakelov_height", "arch_energy_sum",
    "chebyshev_limit_integral", "chordal_distance", "complex_roots",
    "conformal_map", "convergence_table", "count_beating_pairs",
    "cyclotomic_polynomial", "density", "discrete_energy", "discriminant",
    "energy", "energy_via_balayage", "equally_spaced_energy",
    "exterior_map", "green_interval",
    "harmonic_measure_interval", "height_report", "is_cyclotomic",
    "lower_bound", "lower_bound_interval", "mass", "minimize",
    "newton_polygon", "nonarch_energy_sum", "nonarch_term",
    "p_adic_root_count", "parse_polynomial", "parse_polynomial_with_notices",
    "potential", "reverse", "single_place_beaters", "weil_height",
]
