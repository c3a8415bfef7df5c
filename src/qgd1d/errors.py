"""Exception types shared across the package."""


class QgdError(Exception):
    """Base class for package-specific errors."""


class NonPositiveDensity(QgdError):
    """Density left the admissible range rho > 0."""


class LengthMismatch(QgdError):
    """Array length inconsistent with the mesh or with a companion array."""


class InvalidKappa(QgdError):
    """Effective viscosity coefficient outside the range of the chosen variant."""


class DomainMismatch(QgdError):
    """Mesh does not span the requested domain."""


class EmptyTrajectory(QgdError):
    """Trajectory holds no snapshots to classify."""


class ConfigError(QgdError):
    """Invalid run configuration."""

