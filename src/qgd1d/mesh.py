"""Uniform 1D mesh, boundary rules and state.

Node arrays live on the main mesh x_k = x_min + k*h, k = 0..n-1.  The
boundary rule supplies one ghost node per side: periodic wrap, or copy of
the end value (zero-order extrapolation, for outflow).  The half-mesh
operators built on it live with the stepping kernel in `schemes`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch, NonPositiveDensity


class Boundary(enum.Enum):
    PERIODIC = "periodic"
    OUTFLOW = "outflow"


@dataclass(frozen=True)
class Mesh:
    """Uniform mesh with n nodes, spacing h, left endpoint x_min."""

    n: int
    h: float
    x_min: float = 0.0
    boundary: Boundary = Boundary.PERIODIC

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("mesh needs at least 3 nodes")
        if self.h <= 0.0:
            raise ValueError("mesh spacing must be > 0")

    @property
    def x_max(self) -> float:
        return self.x_min + (self.n - 1) * self.h

    @property
    def nodes(self) -> np.ndarray:
        return self.x_min + self.h * np.arange(self.n)


@dataclass(frozen=True)
class MeshState:
    """Density and velocity node arrays at one time level.

    Arrays are copied and frozen on construction; rho must be strictly
    positive everywhere (a violation raises rather than being clamped).
    """

    mesh: Mesh
    rho: np.ndarray
    u: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        rho = np.array(self.rho, dtype=float, copy=True)
        u = np.array(self.u, dtype=float, copy=True)
        if rho.shape != (self.mesh.n,) or u.shape != (self.mesh.n,):
            raise LengthMismatch(
                f"state arrays must have length {self.mesh.n}, got {rho.shape} and {u.shape}"
            )
        if not np.all(rho > 0.0):
            raise NonPositiveDensity("state contains non-positive density")
        rho.flags.writeable = False
        u.flags.writeable = False
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "u", u)

    @property
    def momentum(self) -> np.ndarray:
        return self.rho * self.u
