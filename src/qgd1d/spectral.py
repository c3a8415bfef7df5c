"""Linear stability analysis of the regularized schemes.

Both nonlinear schemes share one linearization around a constant background:
a two-level recurrence in the scaled perturbations (rho, u) whose Fourier
symbol is the 2x2 matrix G(xi).  This module provides that recurrence, the
symbol and its Gram matrix, closed-form stability predicates (the spectral
necessary condition and the L2 weak-conservativeness criterion, for both
regularization variants, plus a published sufficient bound for the scaled
shallow-water law), and a brute-force spectral scan used as an independent
oracle for all of them.

The scan and the worst-mode search read one memoised, read-only wavenumber
grid per sample count, so repeated scans share sin(xi/2)**2 and sin(xi).
The norm check steps all of its trials as one (rows, n) batch.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidKappa, LengthMismatch, ReportFailure
from .regularization import Variant

SW_KAPPA = 7.0 / 3.0  # effective viscosity of the published sufficient bound


@dataclass(frozen=True)
class LinearizedParams:
    """Parameters (alpha, beta, kappa) of the linearized recurrence.

    kappa = alpha_s + 1 for the full regularization (so kappa >= 1) and
    kappa = alpha_s for the simplified one (any kappa >= 0).
    """

    alpha: float
    beta: float
    kappa: float
    variant: Variant = Variant.FULL_QGD

    def __post_init__(self):
        if not 0.0 < self.alpha < math.inf:
            raise ValueError("alpha must be finite and > 0")
        if not 0.0 < self.beta < math.inf:
            raise ValueError("beta must be finite and > 0")
        _check_kappa(self.kappa, self.variant)

    @classmethod
    def from_alpha_s(cls, alpha: float, beta: float, alpha_s: float,
                     variant: Variant = Variant.FULL_QGD) -> "LinearizedParams":
        if alpha_s < 0.0:
            raise InvalidKappa("alpha_s must be >= 0")
        kappa = alpha_s + 1.0 if variant is Variant.FULL_QGD else alpha_s
        return cls(alpha, beta, kappa, variant)


def _check_kappa(kappa: float, variant: Variant) -> None:
    if not 0.0 <= kappa < math.inf:
        raise InvalidKappa("kappa must be finite and >= 0")
    if variant is Variant.FULL_QGD and kappa < 1.0:
        raise InvalidKappa("full regularization requires kappa = alpha_s + 1 >= 1")


# ---------------------------------------------------------------------------
# linearized recurrence and its symbol


def linearized_step(rho, u, params: LinearizedParams):
    """One step of the linearized scheme on a periodic mesh.

        rho+ = rho - (beta/2)(u_+ - u_-)   + alpha*beta       (rho_+ - 2 rho + rho_-)
        u+   = u   - (beta/2)(rho_+ - rho_-) + kappa*alpha*beta (u_+ - 2 u + u_-)

    rho and u are 1D arrays or (rows, n) batches of independent meshes; the
    mesh runs along the last axis, and each row equals its own 1D step bit
    for bit.  Complex-valued arrays are allowed.
    """
    rho = np.asarray(rho)
    u = np.asarray(u)
    if rho.shape != u.shape or rho.ndim not in (1, 2):
        raise LengthMismatch("rho and u must be 1D or (rows, n) arrays of equal shape")
    a, b, k = params.alpha, params.beta, params.kappa
    # the periodic neighbours v_{k+1} and v_{k-1}: np.roll(v, -1) and np.roll(v, 1)
    rho_p = np.concatenate((rho[..., 1:], rho[..., :1]), axis=-1)
    rho_m = np.concatenate((rho[..., -1:], rho[..., :-1]), axis=-1)
    u_p = np.concatenate((u[..., 1:], u[..., :1]), axis=-1)
    u_m = np.concatenate((u[..., -1:], u[..., :-1]), axis=-1)
    rho_new = rho - 0.5 * b * (u_p - u_m) + a * b * (rho_p - 2.0 * rho + rho_m)
    u_new = u - 0.5 * b * (rho_p - rho_m) + k * a * b * (u_p - 2.0 * u + u_m)
    return rho_new, u_new


@dataclass(frozen=True)
class AmplificationMatrix:
    """Fourier symbol G(xi) of the linearized step and its ingredients."""

    entries: np.ndarray  # 2x2 complex
    xi: float
    theta: float      # sin^2(xi/2)
    omega1: float     # 4*alpha*beta*theta
    omega2: float     # beta*sin(xi)


def _sines(xi):
    """theta = sin^2(xi/2) and sin(xi), the wavenumber factors of G(xi)."""
    xi = np.asarray(xi)
    return np.sin(xi / 2.0) ** 2, np.sin(xi)


@functools.lru_cache(maxsize=8)
def _wavenumber_grid(n_samples: int):
    """_sines on xi_j = 2*pi*j/n_samples, j = 0..n_samples-1, computed once
    per sample count and shared read-only by every caller."""
    theta, sin_xi = _sines(2.0 * np.pi * np.arange(n_samples) / n_samples)
    theta.flags.writeable = False
    sin_xi.flags.writeable = False
    return theta, sin_xi


def _omegas(theta, sin_xi, params: LinearizedParams):
    """omega1 = 4*alpha*beta*theta and omega2 = beta*sin(xi)."""
    return 4.0 * params.alpha * params.beta * theta, params.beta * sin_xi


def amplification_matrix(xi: float, params: LinearizedParams) -> AmplificationMatrix:
    """G(xi) = [[1 - w1, -i w2], [-i w2, 1 - kappa w1]]."""
    theta, sin_xi = _sines(float(xi))
    w1, w2 = _omegas(theta, sin_xi, params)
    g = np.array(
        [[1.0 - w1, -1j * w2],
         [-1j * w2, 1.0 - params.kappa * w1]],
        dtype=complex,
    )
    return AmplificationMatrix(entries=g, xi=float(xi), theta=float(theta),
                               omega1=float(w1), omega2=float(w2))


def gram_matrix(xi: float, params: LinearizedParams) -> np.ndarray:
    """The Hermitian product G(xi)^H G(xi), formed numerically."""
    g = amplification_matrix(xi, params).entries
    return g.conj().T @ g


def _gram_extremes(omega1, omega2, kappa):
    """Largest eigenvalue of G^H G from the 2x2 Hermitian closed form."""
    a = (1.0 - omega1) ** 2 + omega2**2
    d = (1.0 - kappa * omega1) ** 2 + omega2**2
    off = (1.0 - kappa) * omega1 * omega2
    return 0.5 * (a + d) + np.hypot(0.5 * (a - d), off)


def gram_max_eigen(xi: float, params: LinearizedParams) -> float:
    """Largest eigenvalue of G^H G at one wavenumber."""
    w1, w2 = _omegas(*_sines(float(xi)), params)
    return float(_gram_extremes(w1, w2, params.kappa))


def _spectral_radius(omega1, omega2, kappa):
    """max |eigenvalue of G| via the quadratic formula on trace/determinant."""
    tr = 2.0 - (kappa + 1.0) * omega1
    det = kappa * omega1**2 + omega2**2 + 1.0 - (kappa + 1.0) * omega1
    disc = tr**2 - 4.0 * det
    real_case = 0.5 * (np.abs(tr) + np.sqrt(np.maximum(disc, 0.0)))
    complex_case = np.sqrt(np.maximum(det, 0.0))
    return np.where(disc >= 0.0, real_case, complex_case)


@dataclass(frozen=True)
class SpectrumScan:
    """Brute-force maxima over a uniform wavenumber grid."""

    max_radius: float     # max over xi of the spectral radius of G
    max_gram: float       # max over xi of the largest eigenvalue of G^H G
    n_samples: int


def spectral_radius_scan(params: LinearizedParams, n_samples: int = 4096) -> SpectrumScan:
    """Scan xi_j = 2*pi*j/n_samples, j = 0..n_samples-1, for both spectra."""
    if n_samples < 64:
        raise ValueError("n_samples must be >= 64")
    w1, w2 = _omegas(*_wavenumber_grid(n_samples), params)
    radius = _spectral_radius(w1, w2, params.kappa)
    gram = _gram_extremes(w1, w2, params.kappa)
    return SpectrumScan(max_radius=float(radius.max()), max_gram=float(gram.max()),
                        n_samples=n_samples)


# ---------------------------------------------------------------------------
# closed-form thresholds and predicates


def necessary_beta_max(alpha: float, kappa: float, variant: Variant = Variant.FULL_QGD) -> float:
    """Largest beta admitted by the spectral (von Neumann) necessary condition."""
    _check_kappa(kappa, variant)
    if variant is Variant.SIMPLIFIED_QHD and kappa <= 1.0:
        return min((kappa + 1.0) * alpha, 1.0 / (2.0 * alpha))
    return min((kappa + 1.0) * alpha, 1.0 / (2.0 * kappa * alpha))


def max_stable_beta(alpha: float, kappa: float, variant: Variant = Variant.FULL_QGD) -> float:
    """Largest beta admitted by the weak-conservativeness criterion."""
    _check_kappa(kappa, variant)
    if variant is Variant.SIMPLIFIED_QHD and kappa <= 1.0:
        return min(2.0 * kappa * alpha, 1.0 / (2.0 * alpha))
    return min(2.0 * alpha, 1.0 / (2.0 * kappa * alpha))


def sufficient_beta_max_sw(alpha: float) -> float:
    """Published sufficient bound for p(rho) = rho**2 and kappa = 7/3."""
    return min(2.0 * alpha / (1.0 + 6.0 * alpha + 4.0 * alpha**2),
               4.0 * alpha / (1.0 + 6.0 * alpha + 16.0 * alpha**2))


def necessary_condition(params: LinearizedParams) -> bool:
    """True iff the spectral radius of G stays <= 1 for every wavenumber."""
    return params.beta <= necessary_beta_max(params.alpha, params.kappa, params.variant)


def weak_conservativeness_criterion(params: LinearizedParams) -> bool:
    """True iff the discrete L2 norm is non-increasing for every initial datum."""
    return params.beta <= max_stable_beta(params.alpha, params.kappa, params.variant)


def sufficient_condition_sw(alpha: float, beta: float) -> bool:
    """Sufficient-only bound; caller asserts the p = rho**2, kappa = 7/3 context."""
    return beta <= sufficient_beta_max_sw(alpha)


def optimal_alpha(kappa: float, variant: Variant = Variant.FULL_QGD) -> tuple[Optional[float], float]:
    """Argmax of the criterion threshold over alpha, with its value.

    Full variant: (1/(2 sqrt(kappa)), 1/sqrt(kappa)).  Simplified variant:
    same argmax with value sqrt(kappa) for kappa <= 1; no optimum exists at
    kappa = 0, where no beta > 0 is admitted.
    """
    _check_kappa(kappa, variant)
    if variant is Variant.SIMPLIFIED_QHD and kappa == 0.0:
        return None, 0.0
    alpha_star = 1.0 / (2.0 * math.sqrt(kappa))
    if variant is Variant.SIMPLIFIED_QHD and kappa <= 1.0:
        return alpha_star, math.sqrt(kappa)
    return alpha_star, 1.0 / math.sqrt(kappa)


# ---------------------------------------------------------------------------
# verdicts and the norm-monotonicity check

BOUNDARY_BAND = 1e-9  # |beta - threshold| below this is flagged as borderline


@dataclass(frozen=True)
class StabilityVerdict:
    """Closed-form verdicts next to the brute-force scan maxima."""

    necessary_ok: bool
    criterion_ok: bool
    sufficient_ok: Optional[bool]
    oracle_spectral_radius: float
    oracle_gram_max: float
    necessary_beta: float
    criterion_beta: float
    sufficient_beta: Optional[float]
    near_boundary: bool


def stability_verdict(params: LinearizedParams, n_samples: int = 4096) -> StabilityVerdict:
    """Evaluate all applicable conditions at one parameter point.

    The sufficient bound is only reported in its context: full variant with
    kappa = 7/3.
    """
    nec_b = necessary_beta_max(params.alpha, params.kappa, params.variant)
    crit_b = max_stable_beta(params.alpha, params.kappa, params.variant)
    shallow_water = params.variant is Variant.FULL_QGD and abs(params.kappa - SW_KAPPA) <= 1e-12
    suff_b = sufficient_beta_max_sw(params.alpha) if shallow_water else None
    scan = spectral_radius_scan(params, n_samples)
    near = min(abs(params.beta - nec_b), abs(params.beta - crit_b)) <= BOUNDARY_BAND
    return StabilityVerdict(
        necessary_ok=params.beta <= nec_b,
        criterion_ok=params.beta <= crit_b,
        sufficient_ok=None if suff_b is None else params.beta <= suff_b,
        oracle_spectral_radius=scan.max_radius,
        oracle_gram_max=scan.max_gram,
        necessary_beta=nec_b,
        criterion_beta=crit_b,
        sufficient_beta=suff_b,
        near_boundary=near,
    )


def oracle_mismatches() -> tuple[int, list[str]]:
    """Compare the closed-form necessary and criterion verdicts with the scan
    on a 30 x 32 (alpha, beta) grid for seven (kappa, variant) cases.

    A condition is skipped where beta lies within 1e-6 of its threshold;
    elsewhere "beta <= threshold" must equal "scan maximum <= 1 + 1e-10".
    Returns the number of points checked and one line per disagreement.
    """
    alphas = np.round(np.arange(1, 31) * 0.05, 10)
    betas = np.round(np.arange(1, 33) * 0.05, 10)
    cases = [(k, Variant.FULL_QGD) for k in (1.0, 7.0 / 3.0, 4.0)]
    cases += [(k, Variant.SIMPLIFIED_QHD) for k in (0.0, 0.5, 1.0, 2.0)]
    checked = 0
    mismatches = []
    for kappa, variant in cases:
        for alpha in alphas:
            nec_b = necessary_beta_max(float(alpha), kappa, variant)
            crit_b = max_stable_beta(float(alpha), kappa, variant)
            for beta in betas:
                scan = spectral_radius_scan(
                    LinearizedParams(float(alpha), float(beta), kappa, variant), 4096)
                for name, threshold, peak in (("necessary", nec_b, scan.max_radius),
                                              ("criterion", crit_b, scan.max_gram)):
                    if abs(beta - threshold) > 1e-6 and \
                            (beta <= threshold) != (peak <= 1.0 + 1e-10):
                        mismatches.append(f"{name} mismatch at alpha={alpha} beta={beta} "
                                          f"kappa={kappa} {variant.value}")
                checked += 1
    return checked, mismatches


@dataclass
class NormMonotonicityReport:
    """Outcome of the direct norm-monotonicity check on a periodic mesh."""

    params: LinearizedParams
    n: int
    steps: int
    trials: int
    criterion_holds: bool
    margin_checked: bool          # growth asserted only >= 5% beyond the threshold
    max_step_ratio: float         # max over trials/steps of ||y+|| / ||y||
    max_total_growth: float       # max over trials of max_m ||y^m|| / ||y^0||
    violations: list
    passed: bool


def _row_norms(rho, u) -> np.ndarray:
    """Discrete L2 norm of each row of a (rows, n) batch."""
    return np.sqrt(np.sum(np.abs(rho) ** 2 + np.abs(u) ** 2, axis=-1))


def _worst_mode_data(params: LinearizedParams, n: int):
    """Fourier mode (on the n-point mesh) maximizing the Gram eigenvalue,
    seeded with the corresponding top eigenvector."""
    gains = _gram_extremes(*_omegas(*_wavenumber_grid(n), params), params.kappa)
    xi_star = 2.0 * np.pi * int(np.argmax(gains)) / n
    m = gram_matrix(xi_star, params)
    eigvals, eigvecs = np.linalg.eigh(m)
    top = eigvecs[:, int(np.argmax(eigvals))]
    phase = np.exp(1j * xi_star * np.arange(n))
    return top[0] * phase, top[1] * phase


def verify_norm_monotonicity(params: LinearizedParams, n: int = 128, steps: int = 200,
                  trials: int = 8, seed: int = 0,
                  step_tol: float = 1e-12, growth_tol: float = 1e-6) -> NormMonotonicityReport:
    """Check norm monotonicity against the closed-form criterion.

    Inside the criterion every trial's norm must be non-increasing step by
    step.  Outside it by a margin of at least 5%, the worst-mode trial must
    grow.  Raises ReportFailure when the applicable assertion is violated.
    All trials advance together as one (rows, n) batch of linearized steps;
    trial 0 is the worst mode when the criterion fails.
    """
    rng = np.random.default_rng(seed)
    threshold = max_stable_beta(params.alpha, params.kappa, params.variant)
    criterion = params.beta <= threshold
    margin = (not criterion) and params.beta >= 1.05 * threshold

    datasets = []
    if not criterion:
        datasets.append(_worst_mode_data(params, n))
    for _ in range(trials):
        datasets.append((rng.standard_normal(n) + 1j * rng.standard_normal(n),
                         rng.standard_normal(n) + 1j * rng.standard_normal(n)))

    rho = np.array([d[0] for d in datasets], dtype=complex).reshape(-1, n)
    u = np.array([d[1] for d in datasets], dtype=complex).reshape(-1, n)
    norms = [_row_norms(rho, u)]
    for _ in range(steps):
        rho, u = linearized_step(rho, u, params)
        norms.append(_row_norms(rho, u))

    violations = []
    max_step_ratio = 0.0
    max_total_growth = 0.0
    for trial, history in enumerate(np.array(norms).T.tolist()):
        norm0 = prev = history[0]
        best = 1.0
        for m, cur in enumerate(history[1:], start=1):
            if prev > 0.0:
                ratio = cur / prev
                max_step_ratio = max(max_step_ratio, ratio)
                if criterion and ratio > 1.0 + step_tol:
                    violations.append((trial, m, ratio))
            if norm0 > 0.0:
                best = max(best, cur / norm0)
            prev = cur
        max_total_growth = max(max_total_growth, best)

    if criterion:
        passed = not violations
    elif margin:
        passed = max_total_growth > 1.0 + growth_tol
        if not passed:
            violations.append(("worst-mode", steps, max_total_growth))
    else:
        passed = True  # inside the 5% band: nothing asserted either way

    report = NormMonotonicityReport(
        params=params, n=n, steps=steps, trials=trials,
        criterion_holds=criterion, margin_checked=margin,
        max_step_ratio=max_step_ratio, max_total_growth=max_total_growth,
        violations=violations, passed=passed,
    )
    if not passed:
        raise ReportFailure(
            f"norm-monotonicity check failed at {len(violations)} point(s): {violations[:3]}",
            report=report,
        )
    return report
