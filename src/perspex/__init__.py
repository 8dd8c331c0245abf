"""Volumes and optimal linearization points for perspective relaxations of
convex power functions.

The package builds piecewise-linear tangent under-estimators of convex
univariate functions, computes exact volumes of the perspective and naive
relaxation bodies assembled from them, places linearization points
optimally via a monotone Newton iteration, and validates every closed form
against a seeded Monte-Carlo oracle.
"""

from .errors import (
    DegenerateTangents,
    DomainError,
    HypothesisViolated,
    MaxIterExceeded,
    MonotonicityViolated,
    PerspexError,
    SingularJacobian,
)
from .mc import (
    KERNEL_BACKEND,
    BLOCK_SIZE,
    BodySpec,
    McEstimate,
    make_body,
    mc_volume,
)
from .placement import (
    BracketGap,
    NewtonTrace,
    SinglePointBounds,
    SweepResult,
    bracket_gap,
    min_bracket_gap,
    newton_optimize,
    optimize_quadratic,
    single_point_bounds,
    solve_tridiagonal,
    sweep_optimal_points,
)
from .power import (
    GradientSystem,
    PowerFn,
    RelaxationKind,
    bordered_hessian_eigs,
    gradient_system,
    refinement_thresholds,
    volume_extended_naive_quadratic,
    volume_naive_quadratic,
    volume_perspective_quadratic,
    volume_pl_extended_naive,
    volume_power_closed_form,
    volume_quadratic,
)
from .underestimator import (
    Breakpoints,
    ConvexFunction,
    Interval,
    PLUnderEstimator,
    build_underestimator,
    fan_triangle_areas,
    volume_pl_perspective,
)

__version__ = "0.1.0"

__all__ = [
    "BLOCK_SIZE",
    "BodySpec",
    "BracketGap",
    "Breakpoints",
    "ConvexFunction",
    "DegenerateTangents",
    "DomainError",
    "GradientSystem",
    "HypothesisViolated",
    "Interval",
    "KERNEL_BACKEND",
    "MaxIterExceeded",
    "McEstimate",
    "MonotonicityViolated",
    "NewtonTrace",
    "PLUnderEstimator",
    "PerspexError",
    "PowerFn",
    "RelaxationKind",
    "SinglePointBounds",
    "SingularJacobian",
    "SweepResult",
    "bordered_hessian_eigs",
    "bracket_gap",
    "build_underestimator",
    "fan_triangle_areas",
    "gradient_system",
    "make_body",
    "mc_volume",
    "min_bracket_gap",
    "newton_optimize",
    "optimize_quadratic",
    "refinement_thresholds",
    "single_point_bounds",
    "solve_tridiagonal",
    "sweep_optimal_points",
    "volume_extended_naive_quadratic",
    "volume_naive_quadratic",
    "volume_perspective_quadratic",
    "volume_pl_extended_naive",
    "volume_pl_perspective",
    "volume_power_closed_form",
    "volume_quadratic",
    "__version__",
]
