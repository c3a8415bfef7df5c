"""Linear stability analysis of the regularized schemes.

Both nonlinear schemes share one linearization around a constant background:
a two-level recurrence in the scaled perturbations (rho, u) whose Fourier
symbol is the 2x2 matrix G(xi).  This module provides that recurrence,
closed-form stability thresholds (the spectral necessary condition and the
L2 weak-conservativeness criterion, for both regularization variants, plus a
published sufficient bound for the scaled shallow-water law), a brute-force
spectral scan used as an independent oracle for all of them, and a direct
check of norm monotonicity.

With w1 = 4*alpha*beta*sin^2(xi/2) and w2 = beta*sin(xi), the symbol is

    G(xi) = [[1 - w1, -i w2], [-i w2, 1 - kappa w1]] = H*I + M,
    H = 1 - (1 + kappa) w1/2,  D = (kappa - 1) w1/2,  M = [[D, -i w2], [-i w2, -D]].

Since M^2 = (D^2 - w2^2) I, the eigenvalues of G are H +- sqrt(E) with
E = D^2 - w2^2: the spectral radius is |H| + sqrt(E) for E >= 0 and
sqrt(H^2 - E) for E < 0, and G^H G = (H^2 + D^2 + w2^2) I
+ 2D K with K = [[H, -i w2], [i w2, -H]] has the top eigenvalue
(|D| + sqrt(H^2 + w2^2))^2 with, where D != 0 (D has the sign of kappa - 1),
the eigenvector of K for lam = sign(D) sqrt(H^2 + w2^2): (H + lam, i w2) if
|H + lam| >= |H - lam|, else (i w2, H - lam), so that no entry cancels.  Where
D = 0, G^H G is scalar and the norm check seeds its worst mode with (1, 0).
The scans factor beta out: with theta = sin^2(xi/2) and s = sin(xi), each
(alpha, kappa) column computes c = 2 alpha (1 + kappa) theta,
d = 2 alpha |kappa - 1| theta, e0 = (d - s)(d + s) and s^2 once, so that
H = 1 - beta c, |D| = beta d and E = beta^2 e0 (factored, so it does not
cancel where the eigenvalues meet).  The radius maximum is the larger of
sqrt(max(max_j (H^2 - beta^2 e0), 0)) and of max(|H| + beta sqrt(e0)) over
the samples with e0 >= 0, which is exact: where e0 < 0 the real form
|H| = sqrt(fl(H*H)) never exceeds sqrt(fl(H^2) - E).

Scans read the distinct half of the wavenumber grid, with a few alphas
stacked as rows and each beta a scalar, or the whole grid for the worst
mode.  Norm checks step all rows as one batch and return every report: a
failed check is a report whose passed is False, not an exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidKappa
from .regularization import Variant

_SCAN_ROWS = 6  # alphas per scan chunk: working rows of 6 x 2 049 float64, 96 KB each


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
        return cls(alpha, beta, variant.kappa(alpha_s), variant)


def _check_kappa(kappa: float, variant: Variant) -> None:
    if not 0.0 <= kappa < math.inf:
        raise InvalidKappa("kappa must be finite and >= 0")
    if variant is Variant.FULL_QGD and kappa < 1.0:
        raise InvalidKappa("full regularization requires kappa = alpha_s + 1 >= 1")


# ---------------------------------------------------------------------------
# linearized recurrence and its symbol


def _recurrence(rho, u, a, b, k):
    """One step of the linearized scheme on a periodic mesh,

        rho+ = rho - (b/2)(u_+ - u_-)   + a*b   (rho_+ - 2 rho + rho_-)
        u+   = u   - (b/2)(rho_+ - rho_-) + k*a*b (u_+ - 2 u + u_-),

    along the last axis of the (complex) rho and u, with alpha, beta and
    kappa as scalars a, b, k or as (rows, 1) columns, one value per row.
    Each row of a batch equals its own 1D step bit for bit."""
    # the periodic neighbours v_{k+1} and v_{k-1}: np.roll(v, -1) and np.roll(v, 1)
    rho_p = np.concatenate((rho[..., 1:], rho[..., :1]), axis=-1)
    rho_m = np.concatenate((rho[..., -1:], rho[..., :-1]), axis=-1)
    u_p = np.concatenate((u[..., 1:], u[..., :1]), axis=-1)
    u_m = np.concatenate((u[..., -1:], u[..., :-1]), axis=-1)
    rho_new = rho - 0.5 * b * (u_p - u_m) + a * b * (rho_p - 2.0 * rho + rho_m)
    u_new = u - 0.5 * b * (rho_p - rho_m) + k * a * b * (u_p - 2.0 * u + u_m)
    return rho_new, u_new


def _columns(alphas, kappa: float, n_samples: int, stop: int):
    """The beta-free c and d of the (alpha, kappa) columns, one row per alpha,
    and s = sin(xi), on xi_j = 2*pi*j/n_samples at j < stop."""
    xi = 2.0 * np.pi * np.arange(stop) / n_samples
    theta, s = np.sin(xi / 2.0) ** 2, np.sin(xi)
    a = np.asarray(alphas, dtype=float)[:, None]
    return 2.0 * a * (1.0 + kappa) * theta, 2.0 * a * abs(kappa - 1.0) * theta, s


def _norms(b: float, c, d, s2, h, h2, norm, scratch):
    """For the scalar beta b: H into h, H^2 into h2 and ||G||_2 into norm."""
    np.subtract(1.0, np.multiply(c, b, out=h), out=h)
    np.sqrt(np.add(np.square(h, out=h2), np.multiply(s2, b * b, out=norm), out=norm), out=norm)
    np.add(norm, np.multiply(d, b, out=scratch), out=norm)


def _scan_peaks(alphas, betas, kappa: float, n_samples: int):
    """Maxima of the spectral radius and of the top Gram eigenvalue over
    xi_j = 2*pi*j/n_samples, as (alphas, betas) arrays, on the distinct
    j = 0..n_samples//2 (G(-xi) only flips the sign of w2, which neither form
    sees).  Stacks the columns of _SCAN_ROWS alphas at a time and takes each
    beta as a scalar; each entry equals a one-point call bit for bit."""
    betas = np.asarray(betas, dtype=float).tolist()
    radius, norm_max, complex_max = np.empty((3, len(alphas), len(betas)))
    for i in range(0, len(alphas), _SCAN_ROWS):
        c, d, s = _columns(alphas[i:i + _SCAN_ROWS], kappa, n_samples, n_samples // 2 + 1)
        s2, e0 = np.tile(s * s, (len(c), 1)), (d - s) * (d + s)  # stacked s2: a broadcast row is 2x slower
        root = np.sqrt(e0, out=np.full_like(e0, -np.inf), where=e0 >= 0.0)  # -inf drops out of max
        h, h2, norm, t = np.empty((4, *c.shape))
        rows = slice(i, i + len(c))
        for j, b in enumerate(betas):
            _norms(b, c, d, s2, h, h2, norm, t)
            norm.max(axis=-1, out=norm_max[rows, j])
            np.subtract(h2, np.multiply(e0, b * b, out=t), out=t)
            t.max(axis=-1, out=complex_max[rows, j])
            np.add(np.abs(h, out=h), np.multiply(root, b, out=t), out=t)
            t.max(axis=-1, out=radius[rows, j])
    np.maximum(radius, np.sqrt(np.maximum(complex_max, 0.0)), out=radius)
    return radius, norm_max ** 2


@dataclass(frozen=True)
class SpectrumScan:
    """Brute-force maxima over a uniform wavenumber grid."""

    max_radius: float     # max over xi of the spectral radius of G
    max_gram: float       # max over xi of the largest eigenvalue of G^H G


def spectral_radius_scan(params: LinearizedParams, n_samples: int = 4096) -> SpectrumScan:
    """Scan xi_j = 2*pi*j/n_samples, j = 0..n_samples-1, for both spectra."""
    if isinstance(n_samples, bool) or not isinstance(n_samples, (int, np.integer)):
        raise ValueError("n_samples must be an integer")
    if n_samples < 64:
        raise ValueError("n_samples must be >= 64")
    radius, gram = _scan_peaks([params.alpha], [params.beta], params.kappa, n_samples)
    return SpectrumScan(max_radius=float(radius[0, 0]), max_gram=float(gram[0, 0]))


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


def _sufficient_applies(kappa: float, variant: Variant) -> bool:
    """True in the published sufficient bound's context: full variant, kappa = 7/3."""
    return variant is Variant.FULL_QGD and abs(kappa - 7.0 / 3.0) <= 1e-12


def sufficient_beta_max_sw(alpha: float) -> float:
    """Published sufficient bound for p(rho) = rho**2 and kappa = 7/3."""
    return min(2.0 * alpha / (1.0 + 6.0 * alpha + 4.0 * alpha**2),
               4.0 * alpha / (1.0 + 6.0 * alpha + 16.0 * alpha**2))


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
    applies = _sufficient_applies(params.kappa, params.variant)
    suff_b = sufficient_beta_max_sw(params.alpha) if applies else None
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
    kappas = dict.fromkeys(kappa for kappa, _ in cases)  # the symbol does not read the variant
    peaks = {kappa: _scan_peaks(alphas, betas, kappa, 4096) for kappa in kappas}
    mismatches = []
    for kappa, variant in cases:
        for alpha, *alpha_peaks in zip(alphas, *peaks[kappa]):
            thresholds = (necessary_beta_max(float(alpha), kappa, variant),
                          max_stable_beta(float(alpha), kappa, variant))
            bad = [(np.abs(betas - threshold) > 1e-6) & ((betas <= threshold) != (peak <= 1.0 + 1e-10))
                   for threshold, peak in zip(thresholds, alpha_peaks)]
            for i, which in zip(*np.nonzero(np.transpose(bad))):  # by beta, then by name
                mismatches.append(f"{('necessary', 'criterion')[which]} mismatch at alpha={alpha} "
                                  f"beta={betas[i]} kappa={kappa} {variant.value}")
    return len(cases) * alphas.size * betas.size, mismatches


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
    seeded with its top eigenvector in the closed form of the module docstring."""
    c, d, s = _columns([params.alpha], params.kappa, n, n)
    h, h2, norm, scratch = np.empty((4, 1, n))
    _norms(params.beta, c, d, s * s, h, h2, norm, scratch)
    j = int(np.argmax(norm))
    xi_star, hj, w2 = 2.0 * np.pi * j / n, float(h[0, j]), params.beta * float(s[j])
    lam = math.copysign(math.hypot(hj, w2), params.kappa - 1.0)  # D has the sign of kappa - 1
    top = (hj + lam, 1j * w2) if abs(hj + lam) >= abs(hj - lam) else (1j * w2, hj - lam)
    size = math.hypot(*map(abs, top))
    top = (top[0] / size, top[1] / size) if d[0, j] > 0.0 and size > 0.0 else (1.0, 0.0)
    phase = np.exp(1j * xi_star * np.arange(n))
    return top[0] * phase, top[1] * phase


@dataclass(frozen=True)
class NormCheck:
    """One check of verify_norm_batch: parameters, trials and seed."""

    params: LinearizedParams
    trials: int = 8
    seed: int = 0


_STEP_TOL = 1e-12    # inside the criterion a step ratio above 1 + _STEP_TOL is a violation
_GROWTH_TOL = 1e-6   # in the margin the worst mode must grow past 1 + _GROWTH_TOL


def _norm_report(check: NormCheck, n: int, steps: int, histories,
                 threshold: float) -> NormMonotonicityReport:
    """The report of one check from its rows' norm histories and its threshold."""
    params = check.params
    criterion = params.beta <= threshold
    margin = (not criterion) and params.beta >= 1.05 * threshold
    violations, max_step_ratio, max_total_growth = [], 0.0, 0.0
    for trial, history in enumerate(histories):
        norm0 = prev = history[0]
        best = 1.0
        for m, cur in enumerate(history[1:], start=1):
            if prev > 0.0:
                ratio = cur / prev
                max_step_ratio = max(max_step_ratio, ratio)
                if criterion and ratio > 1.0 + _STEP_TOL:
                    violations.append((trial, m, ratio))
            if norm0 > 0.0:
                best = max(best, cur / norm0)
            prev = cur
        max_total_growth = max(max_total_growth, best)
    if criterion:
        passed = not violations
    elif margin:
        passed = max_total_growth > 1.0 + _GROWTH_TOL
        if not passed:
            violations.append(("worst-mode", steps, max_total_growth))
    else:
        passed = True  # inside the 5% band: nothing asserted either way
    return NormMonotonicityReport(params, n, steps, check.trials, criterion, margin,
                                  max_step_ratio, max_total_growth, violations, passed)


def verify_norm_batch(checks, n: int = 128, steps: int = 200) -> list[NormMonotonicityReport]:
    """Check norm monotonicity for each check on one n-point mesh; their reports,
    in order, failed ones included.  Inside the criterion every trial's norm must
    be non-increasing step by step; outside it trial 0 is the worst mode, which
    must grow once beta exceeds the threshold by 5% or more.  The rows of all
    checks step as one (rows, n) batch, each row with its check's alpha, beta and
    kappa, and each report equals that of its check run alone."""
    checks = list(checks)
    datasets, columns, counts, thresholds = [], [], [], []
    for check in checks:
        params, rng = check.params, np.random.default_rng(check.seed)
        thresholds.append(max_stable_beta(params.alpha, params.kappa, params.variant))
        rows = [] if params.beta <= thresholds[-1] else [_worst_mode_data(params, n)]
        rows += [(rng.standard_normal(n) + 1j * rng.standard_normal(n),
                  rng.standard_normal(n) + 1j * rng.standard_normal(n)) for _ in range(check.trials)]
        datasets += rows
        columns += [(params.alpha, params.beta, params.kappa)] * len(rows)
        counts.append(len(rows))
    rho, u = (np.array([d[i] for d in datasets], dtype=complex).reshape(-1, n) for i in (0, 1))
    a, b, k = np.array(columns, dtype=float).reshape(-1, 3).T[..., None]
    norms = [_row_norms(rho, u)]
    for _ in range(steps):
        rho, u = _recurrence(rho, u, a, b, k)
        norms.append(_row_norms(rho, u))
    histories = iter(np.array(norms).T.tolist())
    return [_norm_report(check, n, steps, [next(histories) for _ in range(count)], threshold)
            for check, count, threshold in zip(checks, counts, thresholds)]
