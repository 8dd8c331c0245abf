"""Volumes and optimal linearization points for perspective relaxations of
convex power functions.

The package builds piecewise-linear tangent under-estimators of convex
univariate functions, computes exact volumes of the perspective and naive
relaxation bodies assembled from them, places linearization points
optimally via a monotone Newton iteration, and validates every closed form
against a seeded Monte-Carlo oracle.

Importing the package imports none of its modules.  A public name imports
its module on first access (PEP 562) and is read from that module on every
access, so nothing is copied here.
"""

from importlib import import_module

__version__ = "0.1.0"

# the module that defines each public name
_MODULES = {
    "errors": "DegenerateTangents DomainError HypothesisViolated MaxIterExceeded "
    "MonotonicityViolated PerspexError SingularJacobian",
    "mc": "KERNEL_BACKEND BodySpec McEstimate make_body mc_volume",
    "placement": "BracketGap NewtonTrace SinglePointBounds SweepResult bracket_gap "
    "min_bracket_gap newton_optimize optimize_quadratic single_point_bounds "
    "sweep_optimal_points",
    "power": "GradientSystem PowerFn RelaxationKind bordered_hessian_eigs gradient_system "
    "refinement_thresholds volume_extended_naive_quadratic volume_naive_quadratic "
    "volume_perspective_quadratic volume_pl_extended_naive volume_power_closed_form "
    "volume_quadratic",
    "underestimator": "Breakpoints ConvexFunction Interval PLUnderEstimator "
    "build_underestimator fan_triangle_areas volume_pl_perspective",
}
_SOURCE = {name: module for module, names in _MODULES.items() for name in names.split()}

__all__ = [*sorted(_SOURCE), "__version__"]


def __getattr__(name):
    try:
        module = _SOURCE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
