"""Barotropic gas model: the isentropic pressure law and its enthalpy.

The model is the power law p(rho) = p1 * rho**gamma (p1 > 0, gamma > 1) with
the specific enthalpy h(rho) = integral from r0 to rho of p'(r)/r dr, which
the weakly conservative scheme uses in place of direct pressure differences.
The integral has the closed form

    h(rho) = gamma/(gamma-1) * p1 * (rho**(gamma-1) - r0**(gamma-1)),

so the anchor r0 >= 0 only shifts h by a constant, with h(r0) = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import NonPositiveDensity

FloatOrArray = Union[float, np.ndarray]


def _check_density(rho) -> np.ndarray:
    arr = np.asarray(rho, dtype=float)
    if not (arr > 0.0).all():
        raise NonPositiveDensity("density must be strictly positive")
    return arr


def _power(x: np.ndarray, e: float, out: np.ndarray) -> np.ndarray:
    """x ** e in one pass (none for e == 1, which returns x, not out) with the
    bits of **: numpy's ** sends the exponent 1.0 to a copy, 2.0 to np.square
    and every other one to np.power.  test_core pins the equality."""
    if e == 1.0:
        return x
    if e == 2.0:
        return np.square(x, out=out)
    return np.power(x, e, out=out)


@dataclass(frozen=True)
class GasModel:
    """Isentropic law p(rho) = p1 * rho**gamma plus the reference density r0
    of the enthalpy integral."""

    p1: float = 1.0
    gamma: float = 2.0
    r0: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.p1 < math.inf:
            raise ValueError("p1 must be finite and > 0")
        if not 1.0 < self.gamma < math.inf:
            raise ValueError("gamma must be finite and > 1")
        if not 0.0 <= self.r0 < math.inf:
            raise ValueError("r0 must be finite and >= 0")

    def pressure(self, rho: FloatOrArray):
        """Return (p(rho), p'(rho)); raises if rho <= 0."""
        arr = _check_density(rho)
        p, dp = np.empty_like(arr), np.empty_like(arr)
        self._evaluate(arr, p=p, dp=dp)
        if np.ndim(rho) == 0:
            return float(p), float(dp)
        return p, dp

    def _evaluate(self, arr: np.ndarray, p=None, dp=None, h=None, hp=None) -> None:
        """p, p', h and h' of the positive float array arr, unchecked, into
        the arrays given (of arr's shape); an output left None is skipped.

        p' and h share one arr**(gamma-1).
        """
        p1, g = self.p1, self.gamma
        if p is not None:
            np.multiply(_power(arr, g, p), p1, out=p)
        if h is not None:
            pw = _power(arr, g - 1.0, h)
            if dp is not None:
                np.multiply(pw, g * p1, out=dp)
            coeff = g / (g - 1.0)
            np.multiply(pw, coeff * p1, out=h)
            if self.r0 > 0.0:
                h -= coeff * p1 * self.r0 ** (g - 1.0)
        elif dp is not None:
            np.multiply(_power(arr, g - 1.0, dp), g * p1, out=dp)
        if hp is not None:
            np.multiply(_power(arr, g - 2.0, hp), g * p1, out=hp)
