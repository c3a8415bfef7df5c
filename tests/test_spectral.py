"""Amplification matrix, closed-form conditions, oracle scan, norm monotonicity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgd1d import spectral
from qgd1d import (
    InvalidKappa,
    LengthMismatch,
    LinearizedParams,
    ReportFailure,
    Variant,
    amplification_matrix,
    gram_matrix,
    gram_max_eigen,
    linearized_step,
    max_stable_beta,
    necessary_beta_max,
    necessary_condition,
    optimal_alpha,
    spectral_radius_scan,
    stability_verdict,
    sufficient_beta_max_sw,
    sufficient_condition_sw,
    verify_norm_monotonicity,
    weak_conservativeness_criterion,
)

QGD = Variant.FULL_QGD
QHD = Variant.SIMPLIFIED_QHD


class TestLinearizedStep:
    def test_constant_state_unchanged(self):
        p = LinearizedParams(0.5, 0.8, 2.0)
        rho, u = linearized_step(np.full(16, 1.3 + 0.2j), np.full(16, -0.7), p)
        assert np.allclose(rho, 1.3 + 0.2j, atol=1e-15)
        assert np.allclose(u, -0.7, atol=1e-15)

    def test_single_mode_multiplied_by_symbol(self):
        n = 32
        p = LinearizedParams(0.35, 0.6, 7.0 / 3.0)
        for mode in (1, 5, 16):
            xi = 2.0 * math.pi * mode / n
            wave = np.exp(1j * xi * np.arange(n))
            a, b = 0.8 - 0.1j, 0.4 + 0.9j
            rho, u = linearized_step(a * wave, b * wave, p)
            g = amplification_matrix(xi, p).entries
            expect = g @ np.array([a, b])
            assert np.allclose(rho, expect[0] * wave, rtol=1e-13, atol=1e-14)
            assert np.allclose(u, expect[1] * wave, rtol=1e-13, atol=1e-14)

    def test_norm_preserved_at_unit_gram(self):
        # (1 - w1)^2 + w2^2 = 1 identically for alpha=0.5, beta=1, kappa=1
        p = LinearizedParams(0.5, 1.0, 1.0)
        rng = np.random.default_rng(2)
        rho = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        u = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        norm0 = np.sqrt(np.sum(np.abs(rho) ** 2 + np.abs(u) ** 2))
        for _ in range(100):
            rho, u = linearized_step(rho, u, p)
        norm1 = np.sqrt(np.sum(np.abs(rho) ** 2 + np.abs(u) ** 2))
        assert norm1 == pytest.approx(norm0, rel=1e-12)

    def test_length_mismatch(self):
        p = LinearizedParams(0.5, 1.0, 1.0)
        with pytest.raises(LengthMismatch):
            linearized_step(np.zeros(4), np.zeros(5), p)

    def test_rank_and_shape_checked(self):
        p = LinearizedParams(0.5, 1.0, 1.0)
        with pytest.raises(LengthMismatch):
            linearized_step(np.zeros((2, 4)), np.zeros((4, 2)), p)
        with pytest.raises(LengthMismatch):
            linearized_step(np.zeros((2, 2, 4)), np.zeros((2, 2, 4)), p)

    def test_batched_rows_equal_single_steps(self):
        p = LinearizedParams(0.35, 0.7, 7.0 / 3.0)
        rng = np.random.default_rng(11)
        rho = rng.standard_normal((5, 48)) + 1j * rng.standard_normal((5, 48))
        u = rng.standard_normal((5, 48)) + 1j * rng.standard_normal((5, 48))
        rho_b, u_b = linearized_step(rho, u, p)
        for row in range(5):
            rho_1, u_1 = linearized_step(rho[row], u[row], p)
            assert np.array_equal(rho_b[row], rho_1)
            assert np.array_equal(u_b[row], u_1)

    @pytest.mark.parametrize("shape", [(48,), (5, 48), (3, 4)])
    def test_equals_np_roll_reference(self, shape):
        # the same formula with the neighbours taken by np.roll
        p = LinearizedParams(0.35, 0.7, 7.0 / 3.0)
        rng = np.random.default_rng(13)
        rho = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        u = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        a, b, k = p.alpha, p.beta, p.kappa
        rho_p, rho_m = np.roll(rho, -1, axis=-1), np.roll(rho, 1, axis=-1)
        u_p, u_m = np.roll(u, -1, axis=-1), np.roll(u, 1, axis=-1)
        rho_want = rho - 0.5 * b * (u_p - u_m) + a * b * (rho_p - 2.0 * rho + rho_m)
        u_want = u - 0.5 * b * (rho_p - rho_m) + k * a * b * (u_p - 2.0 * u + u_m)
        rho_new, u_new = linearized_step(rho, u, p)
        assert np.array_equal(rho_new, rho_want)
        assert np.array_equal(u_new, u_want)

    def test_matches_modewise_matrix_powers(self):
        # m steps equal the inverse transform of G(xi)^m applied per mode
        n, m = 64, 7
        p = LinearizedParams(0.45, 0.5, 1.5)
        rng = np.random.default_rng(14)
        rho = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        rho_hat, u_hat = np.fft.fft(rho), np.fft.fft(u)
        out_hat = np.empty((2, n), dtype=complex)
        for k in range(n):
            g = amplification_matrix(2.0 * math.pi * k / n, p).entries
            out_hat[:, k] = np.linalg.matrix_power(g, m) @ np.array([rho_hat[k], u_hat[k]])
        expect_rho = np.fft.ifft(out_hat[0])
        expect_u = np.fft.ifft(out_hat[1])
        for _ in range(m):
            rho, u = linearized_step(rho, u, p)
        assert np.allclose(rho, expect_rho, rtol=1e-10, atol=1e-10)
        assert np.allclose(u, expect_u, rtol=1e-10, atol=1e-10)


class TestAmplificationMatrix:
    def test_zero_wavenumber_is_identity(self):
        g = amplification_matrix(0.0, LinearizedParams(0.7, 0.9, 3.0))
        assert np.array_equal(g.entries, np.eye(2))
        assert g.theta == 0.0 and g.omega1 == 0.0 and g.omega2 == 0.0

    def test_pi_is_diagonal(self):
        p = LinearizedParams(0.7, 0.9, 3.0)
        g = amplification_matrix(math.pi, p)
        w1 = 4.0 * 0.7 * 0.9
        assert g.entries[0, 0] == pytest.approx(1.0 - w1, rel=1e-15)
        assert g.entries[1, 1] == pytest.approx(1.0 - 3.0 * w1, rel=1e-15)
        assert abs(g.entries[0, 1]) < 1e-15 and abs(g.entries[1, 0]) < 1e-15

    def test_quarter_wave_reference_point(self):
        g = amplification_matrix(math.pi / 2.0, LinearizedParams(0.5, 1.0, 1.0))
        expect = np.array([[0.0, -1j], [-1j, 0.0]])
        assert np.allclose(g.entries, expect, atol=1e-15)
        eig = np.linalg.eigvals(g.entries)
        assert np.allclose(np.abs(eig), 1.0, rtol=1e-14)

    def test_omega_identity(self):
        p = LinearizedParams(0.6, 1.3, 2.0)
        for xi in np.linspace(0.0, 2.0 * math.pi, 97):
            g = amplification_matrix(float(xi), p)
            assert g.omega2**2 == pytest.approx(
                4.0 * p.beta**2 * g.theta * (1.0 - g.theta), abs=1e-14 * (1.0 + p.beta**2)
            )


class TestGram:
    def test_gram_matches_direct_product(self):
        p = LinearizedParams(0.45, 0.8, 7.0 / 3.0)
        for xi in (0.3, 1.1, 2.9, 5.5):
            g = amplification_matrix(xi, p).entries
            m = gram_matrix(xi, p)
            assert np.allclose(m, g.conj().T @ g, rtol=1e-15)
            top = gram_max_eigen(xi, p)
            assert top == pytest.approx(float(np.linalg.eigvalsh(m)[-1]), rel=1e-13)

    def test_scalar_at_kappa_one(self):
        p = LinearizedParams(0.4, 0.9, 1.0)
        for xi in np.linspace(0.0, 2.0 * math.pi, 33):
            m = gram_matrix(float(xi), p)
            assert abs(m[0, 1]) < 1e-15 and abs(m[1, 0]) < 1e-15
            assert m[0, 0] == pytest.approx(m[1, 1], rel=1e-15)

    def test_unit_at_zero_wavenumber(self):
        assert gram_max_eigen(0.0, LinearizedParams(0.9, 1.4, 4.0)) == pytest.approx(1.0)


def _reference_scan(params, n_samples):
    """The scan with its own wavenumber grid, built at every call."""
    xi = 2.0 * np.pi * np.arange(n_samples) / n_samples
    theta = np.sin(xi / 2.0) ** 2
    w1 = 4.0 * params.alpha * params.beta * theta
    w2 = params.beta * np.sin(xi)
    radius = spectral._spectral_radius(w1, w2, params.kappa)
    gram = spectral._gram_extremes(w1, w2, params.kappa)
    return float(radius.max()), float(gram.max())


@st.composite
def _linearized_params(draw):
    variant = draw(st.sampled_from([QGD, QHD]))
    kappa = draw(st.floats(1.0 if variant is QGD else 0.0, 5.0))
    alpha = draw(st.floats(0.01, 2.0))
    beta = draw(st.floats(0.01, 2.0))
    return LinearizedParams(alpha, beta, kappa, variant)


class TestScan:
    @settings(max_examples=80, deadline=None)
    @given(_linearized_params(), st.sampled_from([64, 512, 4096]))
    def test_shared_grid_equals_per_call_reference(self, params, n_samples):
        scan = spectral_radius_scan(params, n_samples)
        assert (scan.max_radius, scan.max_gram) == _reference_scan(params, n_samples)

    def test_shared_grid_is_read_only(self):
        theta, sin_xi = spectral._wavenumber_grid(256)
        for grid in (theta, sin_xi):
            with pytest.raises(ValueError):
                grid[0] = 1.0
        assert spectral._wavenumber_grid(256)[0] is theta

    def test_boundary_case_is_marginal(self):
        scan = spectral_radius_scan(LinearizedParams(0.5, 1.0, 1.0), 4096)
        assert scan.max_radius == pytest.approx(1.0, abs=1e-12)
        assert scan.max_gram == pytest.approx(1.0, abs=1e-12)

    def test_detects_criterion_violation(self):
        # threshold at alpha=0.4, kappa=7/3 is 15/28 ~ 0.5357
        assert spectral_radius_scan(LinearizedParams(0.4, 0.55, 7.0 / 3.0), 4096).max_gram > 1.0 + 1e-6
        assert spectral_radius_scan(LinearizedParams(0.4, 0.52, 7.0 / 3.0), 4096).max_gram <= 1.0 + 1e-12

    def test_minimum_sample_count_enforced(self):
        with pytest.raises(ValueError):
            spectral_radius_scan(LinearizedParams(0.5, 1.0, 1.0), 32)

    def test_stable_beta_set_is_an_interval(self):
        for alpha, kappa, variant in ((0.3, 1.0, QGD), (0.45, 7.0 / 3.0, QGD), (0.8, 0.5, QHD)):
            oks = []
            for beta in np.arange(0.02, 1.62, 0.02):
                scan = spectral_radius_scan(
                    LinearizedParams(alpha, float(beta), kappa, variant), 512)
                oks.append(scan.max_gram <= 1.0 + 1e-10)
            flips = sum(1 for a, b in zip(oks, oks[1:]) if a != b)
            assert flips <= 1 and (not oks[-1])


def _numeric_peaks(params, n_samples=2048):
    """max |eigenvalue of G(xi)| and max eigenvalue of G(xi)^H G(xi) over
    xi_j = 2*pi*j/n_samples, from numpy's general and Hermitian eigensolvers
    on the stacked 2x2 matrices."""
    xi = 2.0 * np.pi * np.arange(n_samples) / n_samples
    w1 = 4.0 * params.alpha * params.beta * np.sin(xi / 2.0) ** 2
    w2 = params.beta * np.sin(xi)
    g = np.empty((n_samples, 2, 2), dtype=complex)
    g[:, 0, 0] = 1.0 - w1
    g[:, 0, 1] = g[:, 1, 0] = -1j * w2
    g[:, 1, 1] = 1.0 - params.kappa * w1
    radius = np.abs(np.linalg.eigvals(g)).max()
    gram = np.linalg.eigvalsh(np.swapaxes(g, -1, -2).conj() @ g).max()
    return float(radius), float(gram)


class TestClosedForms:
    def test_necessary_thresholds(self):
        assert necessary_beta_max(0.5, 1.0) == pytest.approx(1.0, rel=1e-15)
        assert necessary_beta_max(0.2, 7.0 / 3.0) == pytest.approx(2.0 / 3.0, rel=1e-14)
        assert necessary_beta_max(0.5, 1.0, QHD) == pytest.approx(1.0, rel=1e-15)

    def test_necessary_predicate_boundary(self):
        assert necessary_condition(LinearizedParams(0.5, 1.0, 1.0))
        assert not necessary_condition(LinearizedParams(0.5, 1.0001, 1.0))

    def test_criterion_thresholds(self):
        assert max_stable_beta(0.4, 7.0 / 3.0) == pytest.approx(15.0 / 28.0, rel=1e-14)
        assert max_stable_beta(0.2, 7.0 / 3.0) == pytest.approx(0.4, rel=1e-15)
        # at alpha >= alpha* the criterion and necessary thresholds coincide
        assert max_stable_beta(0.4, 7.0 / 3.0) == pytest.approx(
            necessary_beta_max(0.4, 7.0 / 3.0), rel=1e-15)
        # below alpha* they split
        assert max_stable_beta(0.2, 7.0 / 3.0) < necessary_beta_max(0.2, 7.0 / 3.0)

    def test_qhd_small_alpha_s_branch(self):
        # kappa = alpha_s = 0.5: criterion min(2*0.5*alpha, 1/(2 alpha))
        assert max_stable_beta(0.4, 0.5, QHD) == pytest.approx(0.4, rel=1e-15)
        assert max_stable_beta(2.0, 0.5, QHD) == pytest.approx(0.25, rel=1e-15)

    def test_qhd_no_stability_without_viscosity(self):
        for alpha in (0.1, 0.5, 1.5):
            assert max_stable_beta(alpha, 0.0, QHD) == 0.0
            assert not weak_conservativeness_criterion(
                LinearizedParams(alpha, 1e-6, 0.0, QHD))

    def test_invalid_kappa(self):
        with pytest.raises(InvalidKappa):
            LinearizedParams(0.5, 0.5, 0.5, QGD)
        with pytest.raises(InvalidKappa):
            max_stable_beta(0.5, -1.0, QHD)

    def test_sufficient_bound_values(self):
        assert sufficient_beta_max_sw(0.5) == pytest.approx(0.2, rel=1e-14)
        assert sufficient_beta_max_sw(0.4) == pytest.approx(0.19801980198019797, rel=1e-14)
        assert sufficient_condition_sw(0.5, 0.2)
        assert not sufficient_condition_sw(0.5, 0.2001)

    def test_sufficient_first_fraction_smaller_below_crossover(self):
        crossover = (3.0 + math.sqrt(17.0)) / 8.0
        for alpha in (0.1, 0.5, 0.88):
            f1 = 2.0 * alpha / (1.0 + 6.0 * alpha + 4.0 * alpha**2)
            f2 = 4.0 * alpha / (1.0 + 6.0 * alpha + 16.0 * alpha**2)
            assert (f1 < f2) == (alpha < crossover)
        assert sufficient_beta_max_sw(0.95) == pytest.approx(
            4.0 * 0.95 / (1.0 + 6.0 * 0.95 + 16.0 * 0.95**2), rel=1e-15)

    def test_optimal_alpha(self):
        assert optimal_alpha(1.0) == (0.5, 1.0)
        a, b = optimal_alpha(4.0)
        assert a == 0.25 and b == 0.5
        a, b = optimal_alpha(1.0, QHD)
        assert a == pytest.approx(0.5) and b == pytest.approx(1.0)
        a, b = optimal_alpha(0.0, QHD)
        assert a is None and b == 0.0
        # QHD with alpha_s < 1: maximum is sqrt(alpha_s)
        a, b = optimal_alpha(0.25, QHD)
        assert a == pytest.approx(1.0) and b == pytest.approx(0.5)

    def test_optimal_alpha_is_the_argmax(self):
        for kappa, variant in ((1.7, QGD), (3.2, QGD), (0.6, QHD), (2.5, QHD)):
            a_star, b_max = optimal_alpha(kappa, variant)
            assert max_stable_beta(a_star, kappa, variant) == pytest.approx(b_max, rel=1e-12)
            for a in (0.8 * a_star, 1.2 * a_star):
                assert max_stable_beta(a, kappa, variant) < b_max

    @settings(max_examples=40, deadline=None)
    @given(_linearized_params())
    def test_closed_forms_agree_with_numeric_eigenvalues(self, params):
        # an oracle that shares no eigen formula with the closed forms or the
        # scan; points within 1 % of a threshold are left out
        radius, gram = _numeric_peaks(params)
        a, k, variant = params.alpha, params.kappa, params.variant
        for verdict, threshold, peak in (
                (necessary_condition(params), necessary_beta_max(a, k, variant), radius),
                (weak_conservativeness_criterion(params), max_stable_beta(a, k, variant), gram)):
            if abs(params.beta - threshold) > 0.01 * threshold:
                assert verdict == (peak <= 1.0 + 1e-10), (threshold, peak)


class TestVerdict:
    def test_condition_inclusions_on_grid(self):
        alphas = np.arange(0.1, 1.3, 0.1)
        betas = np.arange(0.1, 1.3, 0.1)
        for kappa, variant in ((1.0, QGD), (7.0 / 3.0, QGD), (0.5, QHD), (2.0, QHD)):
            for a in alphas:
                for b in betas:
                    v = stability_verdict(LinearizedParams(float(a), float(b), kappa, variant),
                                          n_samples=128)
                    assert not (v.criterion_ok and not v.necessary_ok)
                    if v.sufficient_ok:
                        assert v.criterion_ok

    def test_sufficient_reported_only_in_context(self):
        v = stability_verdict(LinearizedParams(0.4, 0.3, 7.0 / 3.0, QGD), n_samples=128)
        assert v.sufficient_ok is not None
        v = stability_verdict(LinearizedParams(0.4, 0.3, 2.0, QGD), n_samples=128)
        assert v.sufficient_ok is None
        v = stability_verdict(LinearizedParams(0.4, 0.3, 7.0 / 3.0, QHD), n_samples=128)
        assert v.sufficient_ok is None


class TestLemma1:
    def test_inside_criterion_never_grows(self):
        report = verify_norm_monotonicity(LinearizedParams(0.5, 0.9, 1.0), n=128, steps=150,
                               trials=4, seed=1)
        assert report.passed and report.criterion_holds
        assert report.max_step_ratio <= 1.0 + 1e-12

    def test_outside_criterion_worst_mode_grows(self):
        report = verify_norm_monotonicity(LinearizedParams(0.5, 1.1, 1.0), n=128, steps=150,
                               trials=2, seed=2)
        assert report.passed and not report.criterion_holds and report.margin_checked
        assert report.max_total_growth > 1.0 + 1e-6

    def test_zero_data_stays_zero(self):
        p = LinearizedParams(0.5, 0.9, 1.0)
        rho, u = linearized_step(np.zeros(32, complex), np.zeros(32, complex), p)
        assert np.all(rho == 0) and np.all(u == 0)

    def test_report_failure_raised_on_forced_violation(self):
        # inside the criterion with an impossible tolerance must report
        with pytest.raises(ReportFailure) as err:
            verify_norm_monotonicity(LinearizedParams(0.5, 0.9, 1.0), n=64, steps=50,
                          trials=2, seed=3, step_tol=-0.5)
        assert err.value.report is not None
        assert err.value.report.violations


def _serial_norm_check(params, n, steps, trials, seed, step_tol=1e-12, growth_tol=1e-6):
    """The norm check as a loop over trials, each stepped alone on 1D arrays."""
    rng = np.random.default_rng(seed)
    threshold = max_stable_beta(params.alpha, params.kappa, params.variant)
    criterion = params.beta <= threshold
    margin = (not criterion) and params.beta >= 1.05 * threshold
    datasets = []
    if not criterion:
        modes = 2.0 * np.pi * np.arange(n) / n
        theta = np.sin(modes / 2.0) ** 2
        gains = spectral._gram_extremes(4.0 * params.alpha * params.beta * theta,
                                        params.beta * np.sin(modes), params.kappa)
        xi_star = float(modes[int(np.argmax(gains))])
        eigvals, eigvecs = np.linalg.eigh(gram_matrix(xi_star, params))
        top = eigvecs[:, int(np.argmax(eigvals))]
        phase = np.exp(1j * xi_star * np.arange(n))
        datasets.append((top[0] * phase, top[1] * phase))
    for _ in range(trials):
        datasets.append((rng.standard_normal(n) + 1j * rng.standard_normal(n),
                         rng.standard_normal(n) + 1j * rng.standard_normal(n)))

    def norm(rho, u):
        return math.sqrt(float(np.sum(np.abs(rho) ** 2 + np.abs(u) ** 2)))

    violations = []
    max_step_ratio = max_total_growth = 0.0
    for trial, (rho, u) in enumerate(datasets):
        norm0 = prev = norm(rho, u)
        best = 1.0
        for m in range(1, steps + 1):
            rho, u = linearized_step(rho, u, params)
            cur = norm(rho, u)
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
        passed = True
    return max_step_ratio, max_total_growth, passed, violations


@pytest.mark.parametrize("params, tols", [
    (LinearizedParams(0.5, 0.9, 1.0), {}),                        # inside the criterion
    (LinearizedParams(0.45, 1.1, 1.5, QHD), {}),                  # in the margin
    (LinearizedParams(0.5, 1.02, 1.0), {}),                       # in the 5 % band
    (LinearizedParams(0.3, 0.4, 2.0), {"step_tol": -5e-3}),       # failing inside
    (LinearizedParams(0.5, 1.1, 1.0), {"growth_tol": 1e9}),       # failing in the margin
])
def test_batched_norm_check_equals_serial_loop(params, tols):
    expect = _serial_norm_check(params, n=64, steps=80, trials=3, seed=5, **tols)
    try:
        report = verify_norm_monotonicity(params, n=64, steps=80, trials=3, seed=5, **tols)
    except ReportFailure as exc:
        report = exc.report
        assert not report.passed
    got = (report.max_step_ratio, report.max_total_growth, report.passed, report.violations)
    assert got == expect
    if tols.get("step_tol"):
        # some steps but not all violate, and they are listed in (trial, step) order
        assert 0 < len(report.violations) < 3 * 80
        assert [v[:2] for v in report.violations] == sorted(v[:2] for v in report.violations)
