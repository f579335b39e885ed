"""Exception types raised by the geometry calculus.

All domain-specific failures derive from GeometryError so the CLI can map
them to a single nonzero exit code without enumerating modules.
"""


class GeometryError(Exception):
    """Base class for geometry-level failures."""


class DomainError(GeometryError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class ConjugatePointError(GeometryError):
    """The warping function crossed zero at t > 0: the model stops being
    homeomorphic to a plane beyond this radius."""

    def __init__(self, t: float, message: str | None = None):
        self.t = float(t)
        super().__init__(message or f"warping function vanishes at t = {self.t:.12g}")


class UnboundedError(GeometryError):
    """A total (curvature integral, moment, slope limit) diverges."""


class ConditionB1ViolatedError(GeometryError):
    """Denominator model volume stays bounded, so volume-growth ratios
    against it do not measure growth at infinity."""


class ScenarioError(GeometryError, ValueError):
    """Scenario file failed validation; message carries the field path."""
