"""Linearized step, symbol, closed-form conditions, oracle scan, norm monotonicity."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qgd1d import cli, spectral
from qgd1d import (
    InvalidKappa,
    LinearizedParams,
    NormCheck,
    Variant,
    max_stable_beta,
    necessary_beta_max,
    optimal_alpha,
    spectral_radius_scan,
    stability_verdict,
    sufficient_beta_max_sw,
    verify_norm_batch,
)

QGD = Variant.FULL_QGD
QHD = Variant.SIMPLIFIED_QHD


def _step(rho, u, p):
    """One step of the linearized recurrence with the parameters p."""
    return spectral._recurrence(rho, u, p.alpha, p.beta, p.kappa)


def _norm_check(params, n, steps, trials, seed):
    """The report of one norm check, run alone."""
    return verify_norm_batch([NormCheck(params, trials, seed)], n, steps)[0]


def _symbol_matrix(xi, params):
    """G(xi) = [[1 - w1, -i w2], [-i w2, 1 - kappa w1]] with w1 = 4*alpha*beta*sin^2(xi/2)
    and w2 = beta*sin(xi), built from the definition."""
    w1 = 4.0 * params.alpha * params.beta * math.sin(xi / 2.0) ** 2
    w2 = params.beta * math.sin(xi)
    return np.array([[1.0 - w1, -1j * w2], [-1j * w2, 1.0 - params.kappa * w1]])


class TestLinearizedStep:
    def test_constant_state_unchanged(self):
        p = LinearizedParams(0.5, 0.8, 2.0)
        rho, u = _step(np.full(16, 1.3 + 0.2j), np.full(16, -0.7), p)
        assert np.allclose(rho, 1.3 + 0.2j, atol=1e-15)
        assert np.allclose(u, -0.7, atol=1e-15)

    def test_single_mode_multiplied_by_symbol(self):
        n = 32
        p = LinearizedParams(0.35, 0.6, 7.0 / 3.0)
        for mode in (1, 5, 16):
            xi = 2.0 * math.pi * mode / n
            wave = np.exp(1j * xi * np.arange(n))
            a, b = 0.8 - 0.1j, 0.4 + 0.9j
            rho, u = _step(a * wave, b * wave, p)
            expect = _symbol_matrix(xi, p) @ np.array([a, b])
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
            rho, u = _step(rho, u, p)
        norm1 = np.sqrt(np.sum(np.abs(rho) ** 2 + np.abs(u) ** 2))
        assert norm1 == pytest.approx(norm0, rel=1e-12)

    def test_batched_rows_equal_single_steps(self):
        p = LinearizedParams(0.35, 0.7, 7.0 / 3.0)
        rng = np.random.default_rng(11)
        rho = rng.standard_normal((5, 48)) + 1j * rng.standard_normal((5, 48))
        u = rng.standard_normal((5, 48)) + 1j * rng.standard_normal((5, 48))
        rho_b, u_b = _step(rho, u, p)
        for row in range(5):
            rho_1, u_1 = _step(rho[row], u[row], p)
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
        rho_new, u_new = _step(rho, u, p)
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
            g = _symbol_matrix(2.0 * math.pi * k / n, p)
            out_hat[:, k] = np.linalg.matrix_power(g, m) @ np.array([rho_hat[k], u_hat[k]])
        expect_rho = np.fft.ifft(out_hat[0])
        expect_u = np.fft.ifft(out_hat[1])
        for _ in range(m):
            rho, u = _step(rho, u, p)
        assert np.allclose(rho, expect_rho, rtol=1e-10, atol=1e-10)
        assert np.allclose(u, expect_u, rtol=1e-10, atol=1e-10)


def _mode_norms(params, n):
    """||G(xi_j)||_2 at xi_j = 2*pi*j/n, j < n, from the scan's _columns and _norms."""
    c, d, s = spectral._columns([params.alpha], params.kappa, n, n)
    h, h2, norm, scratch = np.empty((4, 1, n))
    spectral._norms(params.beta, c, d, s * s, h, h2, norm, scratch)
    return norm[0]


class TestGram:
    def test_scalar_at_kappa_one(self):
        # G^H G = ((1 - w1)^2 + w2^2) I: ||G|| is the root of that scalar, and every
        # vector is a top eigenvector, so the worst mode is seeded with (1, 0)
        n = 32
        for beta in (0.5, 0.9, 1.3):
            p = LinearizedParams(0.4, beta, 1.0)
            for j, norm in enumerate(_mode_norms(p, n)):
                g = _symbol_matrix(2.0 * math.pi * j / n, p)
                assert norm ** 2 == pytest.approx(abs(g[0, 0]) ** 2 + abs(g[0, 1]) ** 2, rel=1e-14)
            rho, u = spectral._worst_mode_data(p, n)
            assert np.allclose(np.abs(rho), 1.0, rtol=1e-15) and np.array_equal(u, np.zeros(n))

    def test_identity_at_zero_wavenumber(self):
        assert _mode_norms(LinearizedParams(0.9, 1.4, 4.0), 64)[0] == 1.0
        # inside the criterion no mode is longer than the constant one, whose seed is (1, 0)
        rho, u = spectral._worst_mode_data(LinearizedParams(0.5, 0.3, 2.0), 64)
        assert np.array_equal(rho, np.ones(64)) and np.array_equal(u, np.zeros(64))

    def test_diagonal_at_pi(self):
        # G(pi) = diag(1 - w1, 1 - kappa w1): ||G|| is the larger entry, and the
        # worst mode (here at pi) is seeded with that entry's unit vector
        p = LinearizedParams(0.7, 0.9, 3.0)
        w1 = 4.0 * 0.7 * 0.9
        norms = _mode_norms(p, 64)
        assert norms[32] == pytest.approx(abs(1.0 - 3.0 * w1), rel=1e-15)
        assert int(np.argmax(norms)) == 32
        rho, u = spectral._worst_mode_data(p, 64)
        assert np.max(np.abs(rho)) < 1e-15
        assert np.allclose(u, u[0] * (-1.0) ** np.arange(64), rtol=0.0, atol=1e-13)
        assert abs(u[0]) == pytest.approx(1.0, rel=1e-15)

    def test_unitary_quarter_wave_reference_point(self):
        # G(pi/2) = [[0, -i], [-i, 0]] at alpha=0.5, beta=1, kappa=1
        assert _mode_norms(LinearizedParams(0.5, 1.0, 1.0), 64)[16] == pytest.approx(1.0, abs=1e-15)


def _reference_spectra(params, n_samples):
    """Spectral radius and ||G||_2 at every xi_j = 2*pi*j/n_samples, from the
    scan's beta-scaled closed forms on a grid built at every call, with the
    real form of the radius taken at every sample."""
    xi = 2.0 * np.pi * np.arange(n_samples) / n_samples
    theta, s = np.sin(xi / 2.0) ** 2, np.sin(xi)
    a, b, k = params.alpha, params.beta, params.kappa
    c = 2.0 * a * (1.0 + k) * theta
    d = 2.0 * a * abs(k - 1.0) * theta
    e0 = (d - s) * (d + s)
    h = 1.0 - b * c
    radius = np.maximum(np.abs(h) + b * np.sqrt(np.maximum(e0, 0.0)),
                        np.sqrt(np.maximum(h * h - (b * b) * e0, 0.0)))
    return radius, b * d + np.sqrt(h * h + (b * b) * (s * s))


def _reference_scan(params, n_samples, distinct_only=False):
    """The scan's maxima from _reference_spectra, over the full circle or over
    its distinct half j = 0..n_samples//2.  The Gram maximum is the norm
    maximum times itself, correctly rounded: a scalar ** 2 goes through pow(),
    which can miss by an ulp near a halfway case."""
    stop = n_samples // 2 + 1 if distinct_only else n_samples
    radius, norm = (v[:stop] for v in _reference_spectra(params, n_samples))
    return float(radius.max()), float(norm.max() * norm.max())


class _NanEmptyNumpy:
    """numpy whose empty() and empty_like() fill with NaN, so that a scan
    entry or a buffer value read before it is written shows in the result."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(shape, dtype=float):
        return np.full(shape, np.nan, dtype)

    @staticmethod
    def empty_like(a, dtype=None):
        return np.full_like(a, np.nan, dtype)


@st.composite
def _linearized_params(draw):
    """alpha uniform or log-uniform on [0.01, 2] (the thresholds' branches
    scale as alpha and 1/alpha); beta drawn independently, or within 10 % of
    a closed-form threshold, where a verdict can flip."""
    variant = draw(st.sampled_from([QGD, QHD]))
    kappa = draw(st.floats(1.0 if variant is QGD else 0.0, 5.0))
    alpha = draw(st.floats(0.01, 2.0)
                 | st.floats(0.0, math.log(200.0)).map(lambda t: 0.01 * math.exp(t)))
    beta = draw(st.floats(0.01, 2.0))
    scale = draw(st.sampled_from([max_stable_beta, necessary_beta_max, None]))
    threshold = scale(alpha, kappa, variant) if scale else 0.0
    if threshold > 0.0:
        beta = threshold * draw(st.floats(0.9, 1.1))
    return LinearizedParams(alpha, beta, kappa, variant)


def _seed_case(params, n):
    """Check the worst mode's seed against numpy's Hermitian eigensolver on the
    Gram matrix built from _symbol_matrix at the mode; return the case it met:
    "scalar" (G^H G a multiple of I, where the seed is (1, 0)), or the mode
    ("pi" or "interior") and the candidate the closed form takes ("H+lam",
    "H-lam"), for K = [[H, -i w2], [i w2, -H]] and lam = sign(D) sqrt(H^2 + w2^2)."""
    rho, u = spectral._worst_mode_data(params, n)
    j = int(np.argmax(_reference_spectra(params, n)[1]))
    xi = 2.0 * math.pi * j / n
    seed = np.array([rho[0], u[0]])
    phase = np.exp(1j * xi * np.arange(n))
    assert np.allclose(rho, seed[0] * phase, rtol=0.0, atol=1e-12)
    assert np.allclose(u, seed[1] * phase, rtol=0.0, atol=1e-12)
    assert abs(np.vdot(seed, seed) - 1.0) <= 1e-15
    g = _symbol_matrix(xi, params)
    if g[0, 0] == g[1, 1]:                         # D = 0: G^H G = (H^2 + w2^2) I
        assert np.array_equal(seed, [1.0, 0.0])
        return ("scalar",)
    vals, vecs = np.linalg.eigh(g.conj().T @ g)
    gap = (vals[1] - vals[0]) / vals[1]
    if gap <= 1e-6:
        return ("close",)                          # eigh's vector is ill-conditioned there
    # eigh's vector is good to about eps_mach / gap, up to a phase; the seed must match
    # it that closely, which taking the cancelling candidate fails next to xi = pi
    inner = np.vdot(vecs[:, 1], seed)
    assert np.max(np.abs(seed - inner / abs(inner) * vecs[:, 1])) <= 8.0 * np.finfo(float).eps / gap
    h, d = (g[0, 0].real + g[1, 1].real) / 2.0, (g[0, 0].real - g[1, 1].real) / 2.0
    lam = math.copysign(math.hypot(h, abs(g[0, 1])), d)
    return ("pi" if 2 * j == n else "interior", "H+lam" if abs(h + lam) >= abs(h - lam) else "H-lam")


class TestWorstMode:
    @settings(max_examples=80, deadline=None)
    @given(_linearized_params(), st.sampled_from([64, 101, 128]))
    def test_seed_is_the_top_gram_eigenvector(self, params, n):
        _seed_case(params, n)

    @pytest.mark.parametrize("params, n, case", [
        (LinearizedParams(0.4, 1.5, 0.5, QHD), 64, ("interior", "H+lam")),     # D < 0
        (LinearizedParams(0.1, 0.3, 0.5, QHD), 64, ("interior", "H-lam")),     # D < 0
        (LinearizedParams(0.7, 0.8, 0.5, QHD), 64, ("pi", "H+lam")),           # D < 0
        (LinearizedParams(0.7, 0.8, 0.5, QHD), 1001, ("interior", "H+lam")),   # next to pi
        (LinearizedParams(0.1, 0.3, 7.0 / 3.0), 64, ("interior", "H+lam")),
        (LinearizedParams(0.2, 1.5, 7.0 / 3.0), 64, ("interior", "H-lam")),
        (LinearizedParams(0.7, 0.9, 3.0), 64, ("pi", "H-lam")),
        (LinearizedParams(0.7, 0.9, 3.0), 1001, ("interior", "H-lam")),        # next to pi
        (LinearizedParams(0.5, 1.1, 1.0), 64, ("scalar",)),                    # kappa = 1
        (LinearizedParams(0.5, 0.3, 2.0), 64, ("scalar",)),                    # xi = 0
    ])
    def test_seed_cases(self, params, n, case):
        assert _seed_case(params, n) == case


class TestScan:
    @settings(max_examples=80, deadline=None)
    @given(_linearized_params(), st.sampled_from([64, 101, 512, 4096]))
    def test_shared_grid_equals_per_call_reference(self, params, n_samples):
        scan = spectral_radius_scan(params, n_samples)
        assert (scan.max_radius, scan.max_gram) == \
            _reference_scan(params, n_samples, distinct_only=True)

    @settings(max_examples=80, deadline=None)
    @given(_linearized_params(), st.sampled_from([64, 101, 512, 4096]))
    def test_half_circle_bounds_full_circle(self, params, n_samples):
        # mirrored samples j and n - j differ only by the rounding of xi
        scan = spectral_radius_scan(params, n_samples)
        for got, want in zip((scan.max_radius, scan.max_gram),
                             _reference_scan(params, n_samples)):
            assert abs(got - want) <= 1e-14 * max(1.0, abs(want))
            assert (got <= 1.0 + 1e-10) == (want <= 1.0 + 1e-10)

    @settings(max_examples=80, deadline=None)
    @given(_linearized_params(), st.sampled_from([64, 101, 512, 4096]))
    def test_maxima_match_numeric_eigensolvers(self, params, n_samples):
        scan = spectral_radius_scan(params, n_samples)
        for got, want in zip((scan.max_radius, scan.max_gram), _numeric_peaks(params, n_samples)):
            assert abs(got - want) <= 1e-14 * max(1.0, abs(want))

    def test_radius_exact_where_discriminant_cancels(self):
        # kappa = 1 makes E = -omega2^2, which the trace/determinant form
        # tr^2 - 4 det recovers only after cancellation
        scan = spectral_radius_scan(LinearizedParams(1.4, 0.35714285357142855, 1.0))
        assert scan.max_radius <= 1.0 + 1e-15
        scan = spectral_radius_scan(LinearizedParams(1.5, 1.45, 1.0))
        assert scan.max_radius == pytest.approx(7.7, rel=1e-15, abs=0.0)

    def test_block_rows_equal_one_row_scans(self, monkeypatch):
        # the columns differ in how many samples have e0 >= 0 (kappa = 1 only
        # xi = 0, kappa = 4 at large alpha most), so a stale row would show
        alphas = [0.35, 1.45, 0.05, 0.9, 1.2]
        betas = np.round(np.arange(1, 8) * 0.15, 10)
        columns = [(7.0 / 3.0, QGD), (0.5, QHD), (1.0, QGD), (4.0, QGD), (0.0, QHD)]
        expect = {col: [[spectral_radius_scan(LinearizedParams(alpha, float(b), *col), 512)
                         for b in betas] for alpha in alphas] for col in columns}
        monkeypatch.setattr(spectral, "np", _NanEmptyNumpy())
        for rows in range(1, len(alphas) + 1):  # short last blocks included
            # 257 samples per row at 512; a remainder short of one more row adds none
            monkeypatch.setattr(spectral, "_SCAN_ENTRIES", rows * 257 + 256)
            assert spectral._block_rows(512) == rows
            for kappa, variant in columns:
                radii, grams = spectral._scan_peaks(alphas, betas, kappa, 512)
                scans = expect[kappa, variant]
                assert radii.tolist() == [[s.max_radius for s in row] for row in scans]
                assert grams.tolist() == [[s.max_gram for s in row] for row in scans]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_linearized_params(), min_size=1, max_size=8),
           st.sampled_from([64, 101, 512, 4096]))
    @example([LinearizedParams(0.267578125, 0.018000000000000002, 0.0, QHD)], 64)  # pow() misses here
    def test_stacked_scan_equals_per_call_reference(self, points, n_samples):
        # the first point's kappa and variant, every point's alpha and beta
        kappa, variant = points[0].kappa, points[0].variant
        alphas, betas = [p.alpha for p in points], [p.beta for p in points[::-1]]
        radii, grams = spectral._scan_peaks(alphas, betas, kappa, n_samples)
        for i, alpha in enumerate(alphas):
            for j, beta in enumerate(betas):
                params = LinearizedParams(alpha, beta, kappa, variant)
                assert (radii[i, j], grams[i, j]) == _reference_scan(params, n_samples, distinct_only=True)

    def test_oracle_scans_each_kappa_once(self, monkeypatch):
        # each kappa once on the 64-sample subgrid, then 6-alpha blocks at 4 096
        # samples for the betas up to the last one the subgrid leaves undecided
        calls = []

        def scan(alphas, betas, kappa, n_samples, scan_peaks=spectral._scan_peaks):
            calls.append((n_samples, kappa, list(alphas), len(betas)))
            return scan_peaks(alphas, betas, kappa, n_samples)

        monkeypatch.setattr(spectral, "_scan_peaks", scan)
        checked, _ = spectral.oracle_mismatches()
        assert checked == 6720
        alphas = np.round(np.arange(1, 31) * 0.05, 10).tolist()
        subgrid = [call for call in calls if call[0] == 64]
        full = [call for call in calls if call[0] == 4096]
        assert len(subgrid) + len(full) == len(calls)
        assert sorted(kappa for _, kappa, _, _ in subgrid) == [0.0, 0.5, 1.0, 2.0, 7.0 / 3.0, 4.0]
        assert all(scanned == alphas and n_betas == 32 for _, _, scanned, n_betas in subgrid)
        assert sum(len(scanned) * n_betas for *_, scanned, n_betas in subgrid) == 5760
        assert all(len(scanned) == 6 and scanned[0] in alphas[::6] for _, _, scanned, _ in full)
        assert sum(len(scanned) * n_betas for *_, scanned, n_betas in full) == 1734

    @pytest.mark.parametrize("kappa", [0.0, 0.5, 1.0, 2.0, 7.0 / 3.0, 4.0])
    def test_subgrid_columns_are_every_64th_full_column(self, kappa):
        # at the oracle's alphas: the subgrid's c, d and s are the full grid's bits
        sub, full = spectral._SUBGRID_SAMPLES, spectral._ORACLE_SAMPLES
        assert (sub, full % sub) == (64, 0)
        alphas = np.round(np.arange(1, 31) * 0.05, 10)
        for got, want in zip(spectral._columns(alphas, kappa, sub, sub // 2 + 1),
                             spectral._columns(alphas, kappa, full, full // 2 + 1)):
            assert got.tobytes() == np.ascontiguousarray(want[..., ::full // sub]).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_linearized_params(), min_size=1, max_size=14), st.floats(0.0, 1e-3))
    @example([LinearizedParams(0.05, 0.1001, 7.0 / 3.0)], 0.0)                # subgrid misses the Gram peak
    @example([LinearizedParams(0.05, 0.16683333333333333, 7.0 / 3.0)], 0.0)  # and the radius peak
    def test_oracle_decisions_equal_the_full_scan(self, points, shift):
        # the first point's kappa; its positive thresholds raised by shift give
        # betas just past them, where the subgrid's verdict can differ from the full one
        kappa, variant = points[0].kappa, points[0].variant
        thresholds = [f(points[0].alpha, kappa, variant) for f in (necessary_beta_max, max_stable_beta)]
        alphas = np.array([p.alpha for p in points])
        betas = np.array([t * (1.0 + shift) for t in thresholds if t > 0.0] + [p.beta for p in points[::-1]])
        got = spectral._oracle_peaks(alphas, betas, kappa)
        want = spectral._scan_peaks(alphas, betas, kappa, 4096)
        for g, w in zip(got, want):
            assert ((g <= 1.0 + 1e-10) == (w <= 1.0 + 1e-10)).all()

    def test_oracle_mismatches_equal_scalar_loop(self, monkeypatch):
        # thresholds raised by 20 % make both conditions disagree with the scan
        for name in ("necessary_beta_max", "max_stable_beta"):
            monkeypatch.setattr(spectral, name, lambda *args, f=getattr(spectral, name): 1.2 * f(*args))
        checked, mismatches = spectral.oracle_mismatches()
        expect = _scalar_oracle_mismatches()
        assert checked == 6720 and len(mismatches) > 100
        assert {m.split()[0] for m in mismatches} == {"necessary", "criterion"}
        assert mismatches == expect

    def test_boundary_case_is_marginal(self):
        scan = spectral_radius_scan(LinearizedParams(0.5, 1.0, 1.0), 4096)
        assert scan.max_radius == pytest.approx(1.0, abs=1e-12)
        assert scan.max_gram == pytest.approx(1.0, abs=1e-12)

    def test_detects_criterion_violation(self):
        # threshold at alpha=0.4, kappa=7/3 is 15/28 ~ 0.5357
        assert spectral_radius_scan(LinearizedParams(0.4, 0.55, 7.0 / 3.0), 4096).max_gram > 1.0 + 1e-6
        assert spectral_radius_scan(LinearizedParams(0.4, 0.52, 7.0 / 3.0), 4096).max_gram <= 1.0 + 1e-12

    @pytest.mark.parametrize("alpha, kappa", [(1e308, 1.0), (1.0, 1e308), (1e200, 1.0)])
    def test_overflowing_scan_rejected(self, alpha, kappa):
        # 1e200: H^2 overflows although the radius is about 1e200
        with pytest.raises(ValueError, match="the spectral scan overflows float64"):
            spectral_radius_scan(LinearizedParams(alpha, 0.5, kappa))

    def test_minimum_sample_count_enforced(self):
        with pytest.raises(ValueError):
            spectral_radius_scan(LinearizedParams(0.5, 1.0, 1.0), 32)

    @pytest.mark.parametrize("n_samples", [4096.0, np.float64(4096), True, "4096"],
                             ids=["float", "np.float64", "bool", "str"])
    def test_non_integer_sample_count_rejected(self, n_samples):
        with pytest.raises(ValueError, match="integer"):
            spectral_radius_scan(LinearizedParams(0.5, 1.0, 1.0), n_samples)
        scan = spectral_radius_scan(LinearizedParams(0.5, 1.0, 1.0), np.int64(4096))
        assert scan.max_gram == spectral_radius_scan(LinearizedParams(0.5, 1.0, 1.0)).max_gram

    def test_stable_beta_set_is_an_interval(self):
        for alpha, kappa, variant in ((0.3, 1.0, QGD), (0.45, 7.0 / 3.0, QGD), (0.8, 0.5, QHD)):
            oks = []
            for beta in np.arange(0.02, 1.62, 0.02):
                scan = spectral_radius_scan(
                    LinearizedParams(alpha, float(beta), kappa, variant), 512)
                oks.append(scan.max_gram <= 1.0 + 1e-10)
            flips = sum(1 for a, b in zip(oks, oks[1:]) if a != b)
            assert flips <= 1 and (not oks[-1])


def _scalar_oracle_mismatches():
    """oracle_mismatches as a loop of one-point spectral_radius_scan calls."""
    alphas = np.round(np.arange(1, 31) * 0.05, 10)
    betas = np.round(np.arange(1, 33) * 0.05, 10)
    cases = [(k, QGD) for k in (1.0, 7.0 / 3.0, 4.0)] + [(k, QHD) for k in (0.0, 0.5, 1.0, 2.0)]
    mismatches = []
    for kappa, variant in cases:
        for alpha in alphas:
            nec_b = spectral.necessary_beta_max(float(alpha), kappa, variant)
            crit_b = spectral.max_stable_beta(float(alpha), kappa, variant)
            for beta in betas:
                scan = spectral_radius_scan(LinearizedParams(float(alpha), float(beta), kappa, variant))
                for name, threshold, peak in (("necessary", nec_b, scan.max_radius),
                                              ("criterion", crit_b, scan.max_gram)):
                    if abs(beta - threshold) > 1e-6 and (beta <= threshold) != (peak <= 1.0 + 1e-10):
                        mismatches.append(f"{name} mismatch at alpha={alpha} beta={beta} "
                                          f"kappa={kappa} {variant.value}")
    return mismatches


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
        assert 1.0 <= necessary_beta_max(0.5, 1.0) < 1.0001

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

    def test_invalid_kappa(self):
        with pytest.raises(InvalidKappa):
            LinearizedParams(0.5, 0.5, 0.5, QGD)
        with pytest.raises(InvalidKappa):
            max_stable_beta(0.5, -1.0, QHD)
        for variant in (QGD, QHD):
            with pytest.raises(InvalidKappa, match="alpha_s must be >= 0"):
                LinearizedParams.from_alpha_s(0.5, 0.5, -1.0, variant)

    def test_sufficient_bound_values(self):
        assert sufficient_beta_max_sw(0.5) == pytest.approx(0.2, rel=1e-14)
        assert sufficient_beta_max_sw(0.4) == pytest.approx(0.19801980198019797, rel=1e-14)
        assert 0.2 <= sufficient_beta_max_sw(0.5) < 0.2001

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
    @example(LinearizedParams(1.0, 2.125e-5, 1e-5, QHD))  # 1.0625 x the criterion threshold
    def test_closed_forms_agree_with_numeric_eigenvalues(self, params):
        # an oracle that shares no eigen formula with the closed forms or the
        # scan.  A beta eps above a threshold raises a peak by about eps^2/2
        # (long waves) or more, whatever the threshold's size, so points within
        # 1e-3 of a threshold, where the rise can fall below 100 times the
        # 1e-10 tolerance, are left out
        radius, gram = _numeric_peaks(params)
        a, k, variant = params.alpha, params.kappa, params.variant
        nec, crit = necessary_beta_max(a, k, variant), max_stable_beta(a, k, variant)
        for verdict, threshold, peak in ((params.beta <= nec, nec, radius),
                                         (params.beta <= crit, crit, gram)):
            if abs(params.beta - threshold) > 1e-3:
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
        report = _norm_check(LinearizedParams(0.5, 0.9, 1.0), n=128, steps=150, trials=4, seed=1)
        assert report.passed and report.criterion_holds
        assert report.max_step_ratio <= 1.0 + 1e-12

    def test_outside_criterion_worst_mode_grows(self):
        report = _norm_check(LinearizedParams(0.5, 1.1, 1.0), n=128, steps=150, trials=2, seed=2)
        assert report.passed and not report.criterion_holds and report.margin_checked
        assert report.max_total_growth > 1.0 + 1e-6

    def test_zero_data_stays_zero(self):
        p = LinearizedParams(0.5, 0.9, 1.0)
        rho, u = _step(np.zeros(32, complex), np.zeros(32, complex), p)
        assert np.all(rho == 0) and np.all(u == 0)


class TestNormReport:
    """_norm_report on synthetic norm histories, which no correct scheme produces."""

    def test_growth_inside_the_criterion_fails_with_each_point(self):
        check = NormCheck(LinearizedParams(0.5, 0.9, 1.0), trials=2)
        histories = [[1.0, 1.0, 1.5, 1.2, 1.3], [2.0, 2.0 + 1e-12, 2.0 + 1e-12, 2.0 + 1e-10, 1.0]]
        report = spectral._norm_report(check, 16, 4, histories, threshold=1.0)
        assert report.criterion_holds and not report.margin_checked and not report.passed
        # listed in (trial, step) order; a flat step and a growth within 1e-12 are none
        assert report.violations == [(0, 2, 1.5), (0, 4, 1.3 / 1.2),
                                     (1, 3, (2.0 + 1e-10) / (2.0 + 1e-12))]
        assert (report.max_step_ratio, report.max_total_growth) == (1.5, 1.5)
        assert (report.n, report.steps, report.trials) == (16, 4, 2)

    def test_flat_worst_mode_past_the_margin_fails(self):
        check = NormCheck(LinearizedParams(0.5, 1.1, 1.0), trials=1)
        histories = [[1.0, 1.0, 1.0 + 1e-7], [3.0, 2.0, 1.0]]      # worst mode, then a trial
        report = spectral._norm_report(check, 16, 2, histories, threshold=1.0)
        assert not report.criterion_holds and report.margin_checked and not report.passed
        assert report.violations == [("worst-mode", 2, 1.0 + 1e-7)]
        assert report.max_total_growth == 1.0 + 1e-7

    def test_growth_past_the_margin_passes_and_the_band_asserts_nothing(self):
        check = NormCheck(LinearizedParams(0.5, 1.1, 1.0), trials=0)
        grown = spectral._norm_report(check, 16, 1, [[1.0, 1.0 + 2e-6]], threshold=1.0)
        assert grown.passed and grown.violations == []
        flat = spectral._norm_report(check, 16, 1, [[1.0, 1.0]], threshold=1.08)
        assert flat.passed and not flat.criterion_holds and not flat.margin_checked


def _serial_norm_check(params, n, steps, trials, seed):
    """The norm check as a loop over trials, each stepped alone on 1D arrays."""
    rng = np.random.default_rng(seed)
    threshold = max_stable_beta(params.alpha, params.kappa, params.variant)
    criterion = params.beta <= threshold
    margin = (not criterion) and params.beta >= 1.05 * threshold
    datasets = []
    if not criterion:
        datasets.append(spectral._worst_mode_data(params, n))  # its vector: TestWorstMode
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
            rho, u = _step(rho, u, params)
            cur = norm(rho, u)
            if prev > 0.0:
                ratio = cur / prev
                max_step_ratio = max(max_step_ratio, ratio)
                if criterion and ratio > 1.0 + 1e-12:
                    violations.append((trial, m, ratio))
            if norm0 > 0.0:
                best = max(best, cur / norm0)
            prev = cur
        max_total_growth = max(max_total_growth, best)
    if criterion:
        passed = not violations
    elif margin:
        passed = max_total_growth > 1.0 + 1e-6
        if not passed:
            violations.append(("worst-mode", steps, max_total_growth))
    else:
        passed = True
    return max_step_ratio, max_total_growth, passed, violations


_MIXED_CASES = [  # each check with the factor a faulty scheme multiplies its steps by
    (LinearizedParams(0.5, 0.9, 1.0), 1.0),                       # inside the criterion
    (LinearizedParams(0.45, 1.1, 1.5, QHD), 1.0),                 # in the margin
    (LinearizedParams(0.5, 1.02, 1.0), 1.0),                      # in the 5 % band
    (LinearizedParams(0.3, 0.4, 2.0), 1.005),                     # failing inside
    (LinearizedParams(0.55, 1.2, 1.0), 0.5),                      # failing in the margin
]


def _break_recurrence(monkeypatch, cases):
    """Make spectral._recurrence multiply each step of the rows whose alpha is that
    of a case by the case's factor, in a batch and in a 1D step alike."""
    factors = {params.alpha: factor for params, factor in cases if factor != 1.0}
    if not factors:
        return
    recurrence = spectral._recurrence

    def faulty(rho, u, a, b, k):
        f = np.ones(np.shape(a))
        for alpha, factor in factors.items():
            f = np.where(a == alpha, factor, f)
        rho, u = recurrence(rho, u, a, b, k)
        return f * rho, f * u

    monkeypatch.setattr(spectral, "_recurrence", faulty)


def _fields(report):
    return (report.max_step_ratio, report.max_total_growth, report.passed, report.violations)


@pytest.mark.parametrize("params, factor", _MIXED_CASES)
def test_batched_norm_check_equals_serial_loop(monkeypatch, params, factor):
    _break_recurrence(monkeypatch, [(params, factor)])
    expect = _serial_norm_check(params, n=64, steps=80, trials=3, seed=5)
    report = _norm_check(params, n=64, steps=80, trials=3, seed=5)
    assert _fields(report) == expect
    assert report.passed == (factor == 1.0)
    if factor > 1.0:
        # some steps but not all violate, and they are listed in (trial, step) order
        assert 0 < len(report.violations) < 3 * 80
        assert [v[:2] for v in report.violations] == sorted(v[:2] for v in report.violations)
    if factor < 1.0:
        assert report.violations == [("worst-mode", 80, 1.0)]


def test_mixed_norm_batch_equals_serial_loops(monkeypatch):
    _break_recurrence(monkeypatch, _MIXED_CASES)
    checks = [NormCheck(params, trials=3, seed=5 + i) for i, (params, _) in enumerate(_MIXED_CASES)]
    reports = verify_norm_batch(checks, n=64, steps=80)
    assert [_fields(r) for r in reports] == [
        _serial_norm_check(c.params, 64, 80, c.trials, c.seed) for c in checks]
    assert [r.passed for r in reports] == [True, True, True, False, False]


def test_failing_checks_report_in_a_batch_as_alone(monkeypatch):
    # the batch returns every report, a failed check's among them, and raises for none
    _break_recurrence(monkeypatch, _MIXED_CASES)
    checks = [NormCheck(params, trials=2, seed=9) for params, _ in _MIXED_CASES]
    reports = verify_norm_batch(iter(checks), n=64, steps=80)
    assert reports == [_norm_check(c.params, n=64, steps=80, trials=2, seed=9) for c in checks]
    assert [r.passed for r in reports] == [True, True, True, False, False]
    assert reports[3].criterion_holds and reports[3].violations
    assert reports[4].violations == [("worst-mode", 80, 1.0)]


def test_cli_norm_suite_equals_one_check_runs(monkeypatch):
    # the suite's reports and every row's norm history equal one-check runs
    histories, suites = [], []
    report, batch = spectral._norm_report, cli.verify_norm_batch

    def recording_report(check, n, steps, rows, threshold):
        histories.append(rows)
        return report(check, n, steps, rows, threshold)

    def recording_batch(checks, n, steps):
        suites.append((checks, batch(checks, n, steps)))
        return suites[-1][1]

    monkeypatch.setattr(spectral, "_norm_report", recording_report)
    monkeypatch.setattr(cli, "verify_norm_batch", recording_batch)
    assert cli._verify_norm_monotonicity_suite() == (True, "20 parameter points")
    (checks, reports), = suites
    batch_histories, histories[:] = list(histories), []
    alone = [_norm_check(c.params, n=128, steps=120, trials=c.trials, seed=c.seed)
             for c in checks]
    assert len(reports) == 20 and reports == alone
    assert batch_histories == histories
    assert [r.criterion_holds for r in reports] == [True, False] * 10
