"""Exception types shared across the package.

Domain violations raise subclasses of :class:`FrgeoError` so callers (and the
CLI) can distinguish "your input left the mathematical domain" from ordinary
programming errors.
"""

from __future__ import annotations


class FrgeoError(Exception):
    """Base class for all domain and configuration errors in frgeo."""


class InvalidCatalogFunction(FrgeoError):
    """Box catalog does not tile the unit cube (gap, overlap, or bad box)."""


class NonpositiveInitialDensity(FrgeoError):
    """Scalar geodesic initial value y0 <= 0."""


class SpaceMismatch(FrgeoError):
    """Two objects that must live on the same measure space do not."""


class NotUnitSpeed(FrgeoError):
    """Initial velocity fails the unit-speed normalization condition."""


class DegenerateVelocity(FrgeoError):
    """Velocity with (numerically) zero or overflowing energy cannot be normalized."""


class NotCentered(FrgeoError):
    """Velocity candidate has nonzero mean and cannot start a geodesic."""


class ZeroDirection(FrgeoError):
    """Zero vector passed where a direction is required."""


class BoundaryTouch(FrgeoError):
    """A sampled trajectory point landed on the simplex boundary.

    Carries the offending 1-based coordinate and the sample time.
    """

    def __init__(self, coordinate: int, time: float):
        self.coordinate = coordinate
        self.time = time
        super().__init__(
            f"coordinate {coordinate} reached the boundary at t={time!r}"
        )


class LeftDomain(FrgeoError):
    """Numerical integration left the open domain {theta_k > eps}.

    ``coordinate`` is the offending 1-based index when known (per-coordinate
    integrations), otherwise None.
    """

    def __init__(self, time: float, coordinate: int | None = None):
        self.time = time
        self.coordinate = coordinate
        where = f" (coordinate {coordinate})" if coordinate is not None else ""
        super().__init__(f"integration left the domain at t={time!r}{where}")


class HypothesisViolation(FrgeoError):
    """Continuum initial data violates a geodesic hypothesis.

    ``condition`` names the failed check.
    """

    def __init__(self, condition: str, detail: str = ""):
        self.condition = condition
        msg = condition if not detail else f"{condition}: {detail}"
        super().__init__(msg)


class ConfigError(FrgeoError):
    """Invalid experiment configuration. ``field`` names the bad key."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"config field '{field}': {message}")
