"""Volume growth, warping ODEs, and geodesic triangle calculus on
rotationally symmetric model geometries.

The package is organized bottom-up: curvature functions with declared tails,
warping solutions of m'' + k m = 0, volumes and growth ratios of n-models,
geodesic triangles on comparison surfaces, synthetic test manifolds, and the
pinching criteria that combine them. The ``radialgeo`` console script runs
scenario files end to end.
"""

__version__ = "0.1.0"

from .errors import (
    ConditionB1ViolatedError,
    ConjugatePointError,
    DomainError,
    GeometryError,
    ScenarioError,
    UnboundedError,
)
from .curvature import (
    NEG_INFINITY,
    ConstantTail,
    FormulaCore,
    MomentIntegral,
    PowerLawTail,
    RadialCurvature,
    SplineCore,
    ZeroTail,
    moment_integral,
    nonpositive_min,
)
from .warping import (
    DEFAULT_REL_TOL,
    ModelSurface,
    WarpingSolution,
    slope_limit,
    solve_warping,
    total_curvature_direct,
)
from .volume import (
    BallVolumeClass,
    GrowthRatio,
    bishop_monotonicity_check,
    cap_fraction,
    cap_volume,
    classify_ball_volume,
    growth_ratio,
    model_ball_volume,
    unit_sphere_volume,
)
from .geodesics import (
    GeodesicTriangle,
    SurfacePoint,
    comparison_triangle,
    distance,
    gauss_bonnet_residual,
)
from .synthetic import RotSymManifold
from .criteria import (
    DEFAULT_HORIZONS,
    CriterionReport,
    critical_angle,
    growth_threshold,
    ricci_pinch_check,
    sectional_pinch_check,
)

__all__ = [
    "__version__",
    # errors
    "GeometryError", "DomainError", "ConjugatePointError", "UnboundedError",
    "ConditionB1ViolatedError", "ScenarioError",
    # curvature
    "RadialCurvature", "SplineCore", "FormulaCore", "ZeroTail", "PowerLawTail",
    "ConstantTail", "MomentIntegral", "moment_integral", "nonpositive_min",
    "NEG_INFINITY",
    # warping
    "WarpingSolution", "solve_warping", "ModelSurface", "slope_limit",
    "total_curvature_direct", "DEFAULT_REL_TOL",
    # volume
    "unit_sphere_volume", "cap_fraction", "cap_volume", "model_ball_volume",
    "classify_ball_volume", "BallVolumeClass", "GrowthRatio", "growth_ratio",
    "bishop_monotonicity_check",
    # geodesics
    "SurfacePoint", "GeodesicTriangle", "distance", "comparison_triangle",
    "gauss_bonnet_residual",
    # synthetic
    "RotSymManifold",
    # criteria
    "CriterionReport", "critical_angle", "growth_threshold",
    "ricci_pinch_check", "sectional_pinch_check", "DEFAULT_HORIZONS",
]
