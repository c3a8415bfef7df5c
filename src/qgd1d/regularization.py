"""Regularization variants and scheme configuration; `schemes` states the
scheme equations and computes tau and mu."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .gas import GasModel


class Variant(enum.Enum):
    """Full regularization, or the simplified one with all d/dx(rho*u) terms dropped."""

    FULL_QGD = "qgd"
    SIMPLIFIED_QHD = "qhd"


class SchemeKind(enum.Enum):
    STANDARD = "standard"
    ENTHALPY = "enthalpy"


@dataclass(frozen=True)
class SchemeConfig:
    """Parameters of one scheme run.

    alpha scales the relaxation time tau = alpha*h/sqrt(p'(rho)); alpha_s
    scales the artificial viscosity mu = alpha_s*tau*rho*p'(rho).  beta is
    the Courant-like number; the time step is beta*h/c_ref with c_ref a
    reference sound speed (resolved from the initial data when left unset).
    """

    alpha: float
    beta: float
    alpha_s: float = 0.0
    regularization: Variant = Variant.FULL_QGD
    scheme: SchemeKind = SchemeKind.STANDARD
    c_ref: float | None = None

    def __post_init__(self):
        if self.alpha <= 0.0:
            raise ConfigError("alpha must be > 0")
        if self.beta <= 0.0:
            raise ConfigError("beta must be > 0")
        if self.alpha_s < 0.0:
            raise ConfigError("alpha_s must be >= 0")
        if self.c_ref is not None and self.c_ref <= 0.0:
            raise ConfigError("c_ref must be > 0 when given")

    @property
    def kappa(self) -> float:
        """Effective viscosity coefficient: alpha_s + 1 (full) or alpha_s (simplified)."""
        if self.regularization is Variant.FULL_QGD:
            return self.alpha_s + 1.0
        return self.alpha_s

    def time_step(self, h: float) -> float:
        if self.c_ref is None:
            raise ConfigError("c_ref is unset; resolve it before stepping")
        return self.beta * h / self.c_ref

    def resolve_c_ref(self, model: GasModel, rho: np.ndarray) -> "SchemeConfig":
        """Fill an unset c_ref with the fastest sound speed of the given density field."""
        if self.c_ref is not None:
            return self
        return replace(self, c_ref=math.sqrt(model.pressure(float(np.max(rho)))[1]))

