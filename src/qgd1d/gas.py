"""Barotropic gas models: pressure laws and the specific enthalpy integral.

A model bundles a monotone pressure law p(rho) with the enthalpy
h(rho) = integral from r0 to rho of p'(r)/r dr, which the weakly
conservative scheme uses in place of direct pressure differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import NonMonotonePressure, NonPositiveDensity

FloatOrArray = Union[float, np.ndarray]


def _check_density(rho) -> np.ndarray:
    arr = np.asarray(rho, dtype=float)
    if not np.all(arr > 0.0):
        raise NonPositiveDensity("density must be strictly positive")
    return arr


def _power(x: np.ndarray, e: float, out: np.ndarray) -> np.ndarray:
    """out = x ** e through the ** operator itself: it routes exponents such
    as 2.0 and 1.0 to np.square and a copy, which np.power(x, e, out=out)
    need not match bit for bit."""
    np.copyto(out, x)
    out **= e
    return out


@dataclass(frozen=True)
class IsentropicLaw:
    """Power law p(rho) = p1 * rho**gamma with p1 > 0, gamma > 1."""

    p1: float
    gamma: float

    def __post_init__(self):
        if not 0.0 < self.p1 < math.inf:
            raise ValueError("p1 must be finite and > 0")
        if not 1.0 < self.gamma < math.inf:
            raise ValueError("gamma must be finite and > 1")


@dataclass(frozen=True)
class TabulatedLaw:
    """Pressure law given by callables for p(rho) and p'(rho).

    Monotonicity p' > 0 is checked at every evaluation, not up front.
    """

    p: Callable[[np.ndarray], np.ndarray]
    p_prime: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class GasModel:
    """Pressure law plus the reference density r0 of the enthalpy integral.

    For an isentropic law the enthalpy has the closed form
    h(rho) = gamma/(gamma-1) * p(rho)/rho (shifted by a constant when
    r0 > 0); a tabulated law is integrated numerically and then r0 must
    be positive.
    """

    law: Union[IsentropicLaw, TabulatedLaw]
    r0: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.r0 < math.inf:
            raise ValueError("r0 must be finite and >= 0")

    @classmethod
    def isentropic(cls, p1: float = 1.0, gamma: float = 2.0, r0: float = 0.0) -> "GasModel":
        return cls(IsentropicLaw(p1, gamma), r0)

    def pressure(self, rho: FloatOrArray):
        """Return (p(rho), p'(rho)); raises if rho <= 0 or p' <= 0."""
        arr = _check_density(rho)
        p, dp = np.empty_like(arr), np.empty_like(arr)
        self._evaluate(arr, p=p, dp=dp)
        if np.ndim(rho) == 0:
            return float(p), float(dp)
        return p, dp

    def enthalpy(self, rho: FloatOrArray):
        """Return (h(rho), h'(rho)) with h'(rho) = p'(rho)/rho."""
        arr = _check_density(rho)
        h, hp = np.empty_like(arr), np.empty_like(arr)
        self._evaluate(arr, h=h, hp=hp)
        if np.ndim(rho) == 0:
            return float(h), float(hp)
        return h, hp

    def _evaluate(self, arr: np.ndarray, p=None, dp=None, h=None, hp=None) -> None:
        """p, p', h and h' of the positive float array arr, unchecked, into
        the arrays given (of arr's shape); an output left None is skipped.

        The isentropic p' and h share one arr**(gamma-1).  A tabulated law
        still checks p' > 0.
        """
        law = self.law
        if isinstance(law, IsentropicLaw):
            p1, g = law.p1, law.gamma
            if p is not None:
                np.multiply(_power(arr, g, p), p1, out=p)
            if h is not None:
                pw = _power(arr, g - 1.0, h)
                if dp is not None:
                    np.multiply(pw, g * p1, out=dp)
                coeff = g / (g - 1.0)
                h *= coeff * p1
                if self.r0 > 0.0:
                    h -= coeff * p1 * self.r0 ** (g - 1.0)
            elif dp is not None:
                np.multiply(_power(arr, g - 1.0, dp), g * p1, out=dp)
            if hp is not None:
                np.multiply(_power(arr, g - 2.0, hp), g * p1, out=hp)
            return
        if h is not None:
            if self.r0 <= 0.0:
                raise ValueError("a tabulated law needs r0 > 0 to anchor the enthalpy integral")
            # imported here: scipy takes longer to import than the rest of the
            # package, and only this branch needs it
            from scipy.integrate import quad

            h[...] = np.reshape([quad(lambda r: float(law.p_prime(r)) / r, self.r0, x,
                                      epsabs=1e-12, epsrel=1e-12)[0]
                                 for x in np.ravel(arr)], np.shape(arr))
        if p is not None:
            p[...] = law.p(arr)
        if dp is not None or hp is not None:
            dp_val = np.asarray(law.p_prime(arr), dtype=float)
            if not np.all(dp_val > 0.0):
                raise NonMonotonePressure("pressure law returned p'(rho) <= 0")
            if dp is not None:
                dp[...] = dp_val
            if hp is not None:
                np.divide(dp_val, arr, out=hp)

    def sound_speed(self, rho: FloatOrArray):
        """sqrt(p'(rho))."""
        _, dp = self.pressure(rho)
        return np.sqrt(dp)
