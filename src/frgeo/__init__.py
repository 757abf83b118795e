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
    overlay_energy,
)
from .catalogs import BUILTIN_CATALOGS
from .errors import (
    BoundaryTouch,
    ConfigError,
    DegenerateVelocity,
    FrgeoError,
    HypothesisViolation,
    InsufficientPoints,
    InvalidAtom,
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
    simplex_positions,
    simplex_state,
    simplex_trajectory,
    solve_scalar_ivp,
    speed_density_at,
)
from .moments import (
    DEGENERATE,
    ELLIPSE,
    LINE,
    ConicFit,
    MomentCurve,
    classify_conic,
    fit_mean_coefficients,
    mean_coefficients_direct,
    moments,
)
from .oracle import (
    DOMAIN_EPS,
    IntegratorConfig,
    OdeTrajectory,
    integrate_coupled,
    integrate_decoupled,
)
from .pixelation import (
    LadderLevel,
    PixelationLadder,
    TentFunction,
    alpha_sequence,
    build_ladder,
    test_functions_1d,
    test_functions_2d,
    three_term_errors,
    weak_error,
)
from .simplex import (
    SimplexPoint,
    TangentVector,
    christoffel,
    euclidean_length,
    fisher_inverse,
    fisher_length,
    fisher_matrix,
    geodesic_residual_coupled,
    geodesic_residual_decoupled,
    metric_inner,
    rank_one_diag_det,
    rank_one_diag_inverse,
    score,
    score_covariance,
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
__all__ += ["write_ladder_csv", "write_moments_csv"]


# frgeo.cli's writers load on first use (PEP 562): importing frgeo.cli here
# would make ``python -m frgeo.cli`` run a second copy of the module
def __getattr__(name):
    if name in ("write_ladder_csv", "write_moments_csv"):
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
