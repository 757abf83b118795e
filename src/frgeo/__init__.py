"""frgeo: Fisher-Rao geodesics of discrete and pixelated probability densities.

The package computes exact closed-form geodesics of the Fisher information
geometry on the open probability simplex and on densities over finite
measure spaces, approximates continuum densities on dyadic pixel grids, and
cross-checks everything against fixed-step Runge-Kutta integration of the
geodesic equations.
"""

from .boxes import (
    Box,
    BoxFunction,
    load_catalog,
    overlay,
)
from .catalogs import BUILTIN_CATALOGS
from .errors import (
    BoundaryTouch,
    ConfigError,
    DegenerateVelocity,
    FrgeoError,
    HypothesisViolation,
    InvalidCatalogFunction,
    LeftDomain,
    NonpositiveInitialDensity,
    NotCentered,
    NotUnitSpeed,
    SpaceMismatch,
    ZeroDirection,
)
from .geodesics import (
    GeodesicState,
    UnitVelocity,
    boundary_touch_time,
    density_at,
    ellipse_param_n2,
    ellipsoid_tangent,
    evaluate_scalar,
    geodesic_flow,
    normalize_velocity,
    simplex_flow_samples,
    simplex_state,
    simplex_trajectory,
)
from .kernels import (
    DOMAIN_EPS,
    IntegratorConfig,
    OdeTrajectory,
    integrate_coupled,
)
from .moments import (
    MomentCurve,
    mean_coefficients_direct,
    moments,
)
from .pixelation import (
    LadderLevel,
    PixelationLadder,
    TentFunction,
    build_ladder,
    test_functions_1d,
    test_functions_2d,
    three_term_errors,
    weak_error,
)
from .simplex import (
    SimplexPoint,
    TangentVector,
    metric_inner,
)
from .spaces import (
    CellClasses,
    DyadicGrid,
    FiniteDensity,
    FiniteMeasureSpace,
    SignedFunction,
    integrate,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
