"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the measured values.
"""

import math

import numpy as np
import pytest

from qgd1d import (
    Boundary,
    Classification,
    ClassifyThresholds,
    GasModel,
    LinearizedParams,
    Mesh,
    MeshState,
    NormCheck,
    RiemannSetup,
    SchemeConfig,
    SchemeKind,
    Variant,
    classify_run,
    compare_transition,
    estimate_signal_speed,
    max_stable_beta,
    necessary_beta_max,
    optimal_alpha,
    oracle_mismatches,
    riemann_initial,
    run_simulation,
    spectral_radius_scan,
    step_batch,
    sufficient_beta_max_sw,
    sweep_region,
    verify_norm_batch,
)
from qgd1d.spectral import _recurrence

QGD = Variant.FULL_QGD
QHD = Variant.SIMPLIFIED_QHD
MODEL = GasModel(p1=1.0, gamma=2.0)
PAPER_SETUP = RiemannSetup(rho_left=1.0, u_left=0.1, rho_right=0.1, u_right=0.0,
                           x0=0.0, x_min=-1.0, x_max=1.0, h=1.0 / 125.0, t_end=0.5)


def _report(name):
    print(f"[acceptance] {name}: PASS")


def _step(state, cfg):
    """One step of cfg.scheme on a MeshState, at cfg's time step."""
    dt = cfg.time_step(state.mesh.h)
    return MeshState(state.mesh, *step_batch(state.rho, state.u, MODEL, cfg, state.mesh,
                                             cfg.alpha, dt), state.t + dt)


def _enthalpy_cfg(alpha, beta, c_ref):
    return SchemeConfig(alpha=alpha, beta=beta, alpha_s=4.0 / 3.0,
                        regularization=QGD, scheme=SchemeKind.ENTHALPY, c_ref=c_ref)


def test_criterion_1_optimal_alpha_closed_form():
    assert optimal_alpha(1.0, QGD) == (0.5, 1.0)
    for kappa in (1.5, 7.0 / 3.0, 4.0):
        a_star, b_max = optimal_alpha(kappa, QGD)
        assert abs(a_star - 1.0 / (2.0 * math.sqrt(kappa))) <= 1e-14
        assert abs(b_max - 1.0 / math.sqrt(kappa)) <= 1e-14
        # the returned point is a maximum of the criterion threshold
        assert max_stable_beta(a_star, kappa, QGD) == pytest.approx(b_max, rel=1e-12)
        assert max_stable_beta(0.9 * a_star, kappa, QGD) < b_max
        assert max_stable_beta(1.1 * a_star, kappa, QGD) < b_max
    _report("criterion 1: CFL coincidence and optimal alpha")


def test_criterion_2_oracle_matches_closed_forms():
    checked, mismatches = oracle_mismatches()
    assert checked > 6000
    assert mismatches == []
    _report(f"criterion 2: oracle equivalence on {checked} parameter points")


def test_criterion_3_norm_monotonicity():
    rng = np.random.default_rng(2024)
    checks = []
    for i in range(20):
        if i % 5 < 3:
            kappa, variant = float(rng.uniform(1.0, 4.0)), QGD
        else:
            kappa, variant = float(rng.uniform(0.3, 2.5)), QHD
        alpha = float(rng.uniform(0.1, 1.2))
        threshold = max_stable_beta(alpha, kappa, variant)
        beta_in = float(threshold * rng.uniform(0.15, 0.98))
        beta_out = float(threshold * rng.uniform(1.06, 1.5))
        checks += [NormCheck(LinearizedParams(alpha, beta_in, kappa, variant), trials=3, seed=100 + i),
                   NormCheck(LinearizedParams(alpha, beta_out, kappa, variant), trials=2, seed=200 + i)]
    reports = verify_norm_batch(checks, n=128, steps=200)
    inside = outside = 0
    for rep_in, rep_out in zip(reports[0::2], reports[1::2]):
        assert rep_in.criterion_holds and rep_in.max_step_ratio <= 1.0 + 1e-12
        inside += 1
        assert rep_out.margin_checked and rep_out.max_total_growth > 1.0 + 1e-6
        outside += 1
    assert inside == 20 and outside == 20
    _report("criterion 3: norm monotonicity inside, growth outside")


def test_criterion_4_kappa_one_gram_is_scalar():
    xi = 2.0 * np.pi * np.arange(4096) / 4096
    sin_xi = np.sin(xi)
    theta = np.sin(xi / 2.0) ** 2
    worst = 0.0
    for alpha in np.arange(0.1, 1.6, 0.2):
        for beta in np.arange(0.1, 1.6, 0.2):
            w1 = 4.0 * alpha * beta * theta
            w2 = beta * sin_xi
            g00, g01 = 1.0 - w1, -1j * w2
            g10, g11 = -1j * w2, 1.0 - 1.0 * w1
            off = np.conj(g00) * g01 + np.conj(g10) * g11
            worst = max(worst, float(np.max(np.abs(off))))
    assert worst < 1e-15
    _report(f"criterion 4: kappa=1 gram off-diagonal max {worst:.2e}")


def test_criterion_5_inclusion_chain_shallow_water():
    kappa = 7.0 / 3.0
    alpha_star = 1.0 / (2.0 * math.sqrt(kappa))
    for alpha in np.round(np.arange(1, 31) * 0.05, 10):
        a = float(alpha)
        suff = sufficient_beta_max_sw(a)
        crit = max_stable_beta(a, kappa, QGD)
        nec = necessary_beta_max(a, kappa, QGD)
        assert suff <= crit <= nec
        if a < alpha_star:
            assert nec - crit > 1e-12
        else:
            assert abs(nec - crit) <= 1e-14
    _report("criterion 5: sufficient <= criterion <= necessary with the alpha* split")


def test_criterion_6_nonlinear_scheme_structure():
    n = 48
    mesh = Mesh(n=n, h=1.0 / n, boundary=Boundary.PERIODIC)
    rng = np.random.default_rng(6)
    rho0 = 1.0 + 0.08 * rng.uniform(-1.0, 1.0, n)
    u0 = 0.08 * rng.uniform(-1.0, 1.0, n)

    for kind in (SchemeKind.STANDARD, SchemeKind.ENTHALPY):
        cfg = SchemeConfig(alpha=0.5, beta=0.3, alpha_s=0.5, scheme=kind).resolve_c_ref(MODEL, rho0)

        const = MeshState(mesh, np.full(n, 0.9), np.full(n, 0.2))
        state = const
        for _ in range(1000):
            state = _step(state, cfg)
        assert float(np.max(np.abs(state.rho - 0.9))) < 1e-12
        assert float(np.max(np.abs(state.u - 0.2))) < 1e-12

        state = MeshState(mesh, rho0, u0)
        mass0 = float(np.sum(state.rho)) * mesh.h
        mom0 = float(np.sum(state.rho * state.u)) * mesh.h
        for _ in range(1000):
            state = _step(state, cfg)
        assert float(np.sum(state.rho)) * mesh.h == pytest.approx(mass0, rel=1e-12)
        if kind is SchemeKind.STANDARD:
            assert float(np.sum(state.rho * state.u)) * mesh.h == pytest.approx(mom0, abs=1e-12)

    # first-order decay of the (nonlinear - linearized)/eps mismatch
    r = rng.standard_normal(n)
    v = rng.standard_normal(n)
    c_star = math.sqrt(MODEL.pressure(1.0)[1])
    for kind in (SchemeKind.STANDARD, SchemeKind.ENTHALPY):
        params = LinearizedParams.from_alpha_s(0.4, 0.3, 4.0 / 3.0, QGD)
        cfg = SchemeConfig(alpha=0.4, beta=0.3, alpha_s=4.0 / 3.0, scheme=kind, c_ref=c_star)
        scaled = []
        for eps in (1e-4, 1e-5, 1e-6):
            state = MeshState(mesh, 1.0 + eps * r, eps * v)
            out = _step(state, cfg)
            rho_t, u_t = _recurrence(eps * r, eps * v / c_star, params.alpha, params.beta, params.kappa)
            mismatch = max(float(np.max(np.abs(out.rho - (1.0 + rho_t)))),
                           float(np.max(np.abs(out.u - c_star * u_t))))
            scaled.append(mismatch / eps)
        assert scaled[1] < 0.2 * scaled[0]
        assert scaled[2] < 0.2 * scaled[1]
    _report("criterion 6: fixed points, conservation, linearization consistency")


def _classify_paper_run(beta, c_ref):
    mesh = PAPER_SETUP.mesh()
    initial = riemann_initial(PAPER_SETUP, mesh)
    traj = run_simulation(initial, MODEL, _enthalpy_cfg(0.4, beta, c_ref),
                          PAPER_SETUP.t_end, record_every=10)
    return classify_run(traj, ClassifyThresholds.for_setup(PAPER_SETUP))


def test_criterion_7_riemann_transition_bracket():
    # pinned configuration: enthalpy scheme, full regularization, alpha_s = 4/3,
    # h = 1/125, c_ref = sqrt(p'(1)) = sqrt(2)
    c_ref = math.sqrt(2.0)
    betas = [0.30, 0.35, 0.40, 0.45, 0.50, 0.55, 0.589, 0.60, 0.643, 0.66, 0.70]
    verdicts = {b: _classify_paper_run(b, c_ref).classification for b in betas}
    for b in betas:
        print(f"    beta={b:<6} -> {verdicts[b].value}")
    cons = [b for b in betas if verdicts[b] is Classification.CONSERVATIVE]
    non = [b for b in betas if verdicts[b] is not Classification.CONSERVATIVE]
    largest_cons = max(cons) if cons else None
    smallest_non = min(non) if non else None
    assert largest_cons is not None and smallest_non is not None \
        and largest_cons < smallest_non, "column not monotone"
    transition = 0.5 * (largest_cons + smallest_non)
    print(f"    measured transition at alpha=0.4, c_ref=sqrt(2): "
          f"{transition:.4f} (bracket [{largest_cons}, {smallest_non}])")
    assert 0.55 <= transition <= 0.70, (
        f"transition {transition:.4f} outside the required [0.55, 0.70]; "
        f"with dt = beta*h/sqrt(2) the dam-break front carries signal speeds "
        f"max(|u|+c) ~ 2.02 > sqrt(2), so the run leaves the stable region at "
        f"beta ~ {transition:.3f} = criterion * sqrt(2)/2.02"
    )
    assert verdicts[0.589] is Classification.CONSERVATIVE
    assert verdicts[0.643] is not Classification.CONSERVATIVE
    _report("criterion 7: Riemann transition bracket at the pinned c_ref")


def test_criterion_8_region_tracks_criterion_curve():
    c_ref = estimate_signal_speed(PAPER_SETUP, MODEL, _enthalpy_cfg(0.4, 1.0, None))
    alphas = [round(0.1 * k, 10) for k in range(2, 11)]
    factors = np.round(np.linspace(0.6, 1.37, 12), 10)
    region = sweep_region(PAPER_SETUP, MODEL, _enthalpy_cfg(0.4, 1.0, c_ref),
                          alphas=alphas, betas=factors, beta_mode="relative",
                          thresholds=ClassifyThresholds.for_setup(PAPER_SETUP),
                          record_every=10, workers=1)
    rows = compare_transition(region)
    good = 0
    for row, crit, suff in zip(rows, region.overlays.criterion, region.overlays.sufficient):
        if row.transition is None or not row.monotone:
            status = "unresolved"
        else:
            ratio = row.transition / float(crit)
            ok = abs(ratio - 1.0) <= 0.25 and row.transition > float(suff)
            good += 1 if ok else 0
            status = f"ratio {ratio:.3f} {'ok' if ok else 'OUT'}"
        print(f"    alpha={row.alpha:.1f} criterion={float(crit):.4f} "
              f"transition={row.transition} {status}")
    # monotone-column check on the paper configuration: after three
    # consecutive non-conservative cells every larger beta is too
    for i in range(len(alphas)):
        _, verdicts = region.column(i)
        bad = [v.classification is not Classification.CONSERVATIVE for v in verdicts]
        run = 0
        for j, flag in enumerate(bad):
            run = run + 1 if flag else 0
            if run >= 3:
                assert all(bad[j:]), f"column {alphas[i]} not monotone past 3 bad cells"
                break
    assert good >= 7, f"only {good}/9 columns track the criterion within 25%"
    _report(f"criterion 8: {good}/9 columns track the criterion curve "
            f"(c_ref = fastest signal speed {c_ref:.4f})")


def test_criterion_9_qhd_without_viscosity_is_unstable():
    for alpha in (0.1, 0.25, 0.5, 1.0, 1.5):
        for beta in (0.01, 0.05, 0.1, 0.5, 1.0, 1.6):
            params = LinearizedParams(alpha, beta, 0.0, QHD)
            assert beta > max_stable_beta(alpha, 0.0, QHD)
            assert spectral_radius_scan(params, 4096).max_gram > 1.0 + 1e-12
    assert max_stable_beta(0.7, 0.0, QHD) == 0.0
    _report("criterion 9: no weak conservativeness at alpha_s = 0")
