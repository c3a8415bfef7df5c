"""Nonlinear steppers: flux formulas, conservation, fixed points, linearization."""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from qgd1d import (
    Boundary,
    ConfigError,
    GasModel,
    LengthMismatch,
    LinearizedParams,
    Mesh,
    MeshState,
    NonPositiveDensity,
    SchemeConfig,
    SchemeKind,
    TabulatedLaw,
    Variant,
    linearized_step,
    run_simulation,
    step_batch,
)
from qgd1d.schemes import _half_mesh, _Workspace, run_batch

MODEL = GasModel.isentropic(p1=1.0, gamma=2.0)


def _step(state, model, cfg, dt=None):
    """One step of cfg.scheme from a MeshState to a MeshState (which raises
    NonPositiveDensity for a non-positive or NaN new density)."""
    dt = cfg.time_step(state.mesh.h) if dt is None else dt
    return MeshState(state.mesh, *step_batch(state.rho, state.u, model, cfg, state.mesh,
                                             cfg.alpha, dt), state.t + dt)


def _fluxes(state, cfg):
    """The kernel's half-mesh j, pi, w and w_hat for one state."""
    padded, half, _ = _Workspace(state.rho.shape).views(state.rho.shape)
    j, pi, srho_w, srho_what, srho, _, _ = _half_mesh(state.rho, state.u, MODEL, cfg,
                                                      state.mesh, cfg.alpha, padded, half)
    return SimpleNamespace(j=j, pi=pi, w=srho_w / srho, w_hat=srho_what / srho)


def periodic_state(n=32, h=0.05, seed=0, amp=0.2, u_amp=0.3):
    rng = np.random.default_rng(seed)
    mesh = Mesh(n=n, h=h, boundary=Boundary.PERIODIC)
    rho = 1.0 + amp * rng.uniform(-1.0, 1.0, n)
    u = u_amp * rng.uniform(-1.0, 1.0, n)
    return MeshState(mesh, rho, u)


# ---------------------------------------------------------------------------
# scalar reference implementation, written index-by-index from the flux
# definitions, as an independent check on the vectorized code


def _scalar_fluxes(state, model, cfg, kind):
    mesh = state.mesh
    n, h = mesh.n, mesh.h
    if mesh.boundary is Boundary.PERIODIC:
        idx = lambda k: k % n
    else:
        idx = lambda k: min(max(k, 0), n - 1)
    rho = [float(state.rho[idx(k)]) for k in range(-1, n + 1)]
    u = [float(state.u[idx(k)]) for k in range(-1, n + 1)]

    def p(r):
        return model.pressure(r)

    def hfun(r):
        return model.enthalpy(r)

    full = cfg.regularization is Variant.FULL_QGD
    j = np.empty(n + 1)
    pi = np.empty(n + 1)
    for i in range(n + 1):
        rl, rr = rho[i], rho[i + 1]
        ul, ur = u[i], u[i + 1]
        srho = 0.5 * (rl + rr)
        su = 0.5 * (ul + ur)
        du = (ur - ul) / h
        tau_l = cfg.alpha * h / math.sqrt(p(rl)[1])
        tau_r = cfg.alpha * h / math.sqrt(p(rr)[1])
        stau = 0.5 * (tau_l + tau_r)
        pp_half = p(srho)[1]
        mu_half = cfg.alpha_s * stau * srho * pp_half
        if kind is SchemeKind.STANDARD:
            dp = (p(rr)[0] - p(rl)[0]) / h
            drhou = (rr * ur - rl * ul) / h
            srho_what = stau * (srho * su * du + dp)
            srho_w = stau * drhou * su + srho_what if full else srho_what
            j[i] = srho * su - srho_w
            pi[i] = mu_half * du + su * srho_what + (stau * pp_half * drhou if full else 0.0)
        else:
            dh = (hfun(rr)[0] - hfun(rl)[0]) / h
            what = stau * (su * du + dh)
            ratio_l = tau_l / hfun(rl)[1]
            ratio_r = tau_r / hfun(rr)[1]
            t_half = 0.5 * (ratio_l + ratio_r) * (dh * su + pp_half * du) if full else 0.0
            j[i] = srho * su - (t_half * su + srho * what)
            pi[i] = mu_half * du + su * srho * what + pp_half * t_half
    return j, pi


def _scalar_step(state, model, cfg, kind, dt):
    mesh = state.mesh
    n, h = mesh.n, mesh.h
    j, pi = _scalar_fluxes(state, model, cfg, kind)
    if mesh.boundary is Boundary.PERIODIC:
        idx = lambda k: k % n
    else:
        idx = lambda k: min(max(k, 0), n - 1)
    rho = [float(state.rho[idx(k)]) for k in range(-1, n + 1)]
    u = [float(state.u[idx(k)]) for k in range(-1, n + 1)]
    rho_new = np.empty(n)
    m_new = np.empty(n)
    for k in range(n):
        su_l = 0.5 * (u[k] + u[k + 1])        # half node k - 1/2
        su_r = 0.5 * (u[k + 1] + u[k + 2])    # half node k + 1/2
        rho_new[k] = rho[k + 1] - dt * (j[k + 1] - j[k]) / h
        if kind is SchemeKind.STANDARD:
            pl = model.pressure(0.5 * (rho[k] + rho[k + 1]))[0]
            pr = model.pressure(0.5 * (rho[k + 1] + rho[k + 2]))[0]
            fl = j[k] * su_l + pl - pi[k]
            fr = j[k + 1] * su_r + pr - pi[k + 1]
            m_new[k] = rho[k + 1] * u[k + 1] - dt * (fr - fl) / h
        else:
            fl = j[k] * su_l - pi[k]
            fr = j[k + 1] * su_r - pi[k + 1]
            srho_l = 0.5 * (rho[k] + rho[k + 1])
            srho_r = 0.5 * (rho[k + 1] + rho[k + 2])
            dh_l = (model.enthalpy(rho[k + 1])[0] - model.enthalpy(rho[k])[0]) / h
            dh_r = (model.enthalpy(rho[k + 2])[0] - model.enthalpy(rho[k + 1])[0]) / h
            force = 0.5 * (srho_l * dh_l + srho_r * dh_r)
            m_new[k] = rho[k + 1] * u[k + 1] - dt * ((fr - fl) / h + force)
    return rho_new, m_new / rho_new


@pytest.mark.parametrize("kind", [SchemeKind.STANDARD, SchemeKind.ENTHALPY])
@pytest.mark.parametrize("variant", [Variant.FULL_QGD, Variant.SIMPLIFIED_QHD])
@pytest.mark.parametrize("boundary", [Boundary.PERIODIC, Boundary.OUTFLOW])
def test_step_matches_scalar_reference(kind, variant, boundary):
    rng = np.random.default_rng(42)
    mesh = Mesh(n=17, h=0.08, boundary=boundary)
    state = MeshState(mesh, 0.8 + 0.4 * rng.uniform(size=17), 0.7 * rng.uniform(-1, 1, 17))
    cfg = SchemeConfig(alpha=0.37, beta=0.3, alpha_s=1.1, regularization=variant,
                       scheme=kind, c_ref=2.0)
    dt = cfg.time_step(mesh.h)
    j_ref, pi_ref = _scalar_fluxes(state, MODEL, cfg, kind)
    f = _fluxes(state, cfg)
    assert np.allclose(f.j, j_ref, rtol=1e-13, atol=1e-15)
    assert np.allclose(f.pi, pi_ref, rtol=1e-13, atol=1e-15)
    rho_ref, u_ref = _scalar_step(state, MODEL, cfg, kind, dt)
    out = _step(state, MODEL, cfg)
    assert np.allclose(out.rho, rho_ref, rtol=1e-13, atol=1e-15)
    assert np.allclose(out.u, u_ref, rtol=1e-13, atol=1e-15)


# ---------------------------------------------------------------------------
# structural properties


@pytest.mark.parametrize("kind", [SchemeKind.STANDARD, SchemeKind.ENTHALPY])
@pytest.mark.parametrize("u_star", [0.0, 0.6])
def test_constant_state_fluxes_and_fixed_point(kind, u_star):
    mesh = Mesh(n=12, h=0.1, boundary=Boundary.PERIODIC)
    state = MeshState(mesh, np.full(12, 0.8), np.full(12, u_star))
    cfg = SchemeConfig(alpha=0.5, beta=0.4, alpha_s=1.0, scheme=kind, c_ref=1.5)
    f = _fluxes(state, cfg)
    assert np.allclose(f.w, 0.0, atol=1e-15)
    assert np.allclose(f.w_hat, 0.0, atol=1e-15)
    assert np.allclose(f.j, 0.8 * u_star, rtol=1e-15, atol=1e-15)
    assert np.allclose(f.pi, 0.0, atol=1e-15)
    out = _step(state, MODEL, cfg)
    assert np.allclose(out.rho, state.rho, rtol=0, atol=1e-15)
    assert np.allclose(out.u, state.u, rtol=0, atol=1e-15)


def test_small_velocity_bump_mass_flux():
    # rho = 1, u = (0, eps, 0): regularizing velocities are O(eps^2), so
    # j deviates from (s rho)(s u) only at second order
    eps = 1e-6
    mesh = Mesh(n=3, h=0.1, boundary=Boundary.PERIODIC)
    state = MeshState(mesh, np.ones(3), np.array([0.0, eps, 0.0]))
    cfg = SchemeConfig(alpha=0.5, beta=0.4, alpha_s=1.0, c_ref=1.5)
    f = _fluxes(state, cfg)
    su = np.array([(0.0 + 0.0) / 2, (0.0 + eps) / 2, (eps + 0.0) / 2, 0.0])
    assert np.allclose(f.j, su, atol=50 * eps**2)
    assert np.max(np.abs(f.w)) < 50 * eps**2


@pytest.mark.parametrize("kind,check_momentum", [(SchemeKind.STANDARD, True),
                                                 (SchemeKind.ENTHALPY, False)])
def test_periodic_conservation(kind, check_momentum):
    state = periodic_state(n=48, h=1.0 / 48.0, seed=3, amp=0.1, u_amp=0.1)
    cfg = SchemeConfig(alpha=0.5, beta=0.3, alpha_s=0.5, scheme=kind,
                       c_ref=float(MODEL.sound_speed(np.max(state.rho))))
    h = state.mesh.h
    mass0 = h * float(np.sum(state.rho))
    mom0 = h * float(np.sum(state.momentum))
    for _ in range(300):
        state = _step(state, MODEL, cfg)
    assert h * float(np.sum(state.rho)) == pytest.approx(mass0, rel=1e-12)
    if check_momentum:
        assert h * float(np.sum(state.momentum)) == pytest.approx(mom0, abs=1e-12)


@pytest.mark.parametrize("kind", [SchemeKind.STANDARD, SchemeKind.ENTHALPY])
def test_qhd_equals_qgd_when_momentum_terms_vanish(kind):
    # with u identically zero every dropped term's input is zero
    rng = np.random.default_rng(9)
    mesh = Mesh(n=20, h=0.05, boundary=Boundary.PERIODIC)
    state = MeshState(mesh, 0.6 + 0.5 * rng.uniform(size=20), np.zeros(20))
    out = {}
    for variant in Variant:
        cfg = SchemeConfig(alpha=0.45, beta=0.3, alpha_s=0.9, regularization=variant,
                           scheme=kind, c_ref=1.6)
        out[variant] = _step(state, MODEL, cfg)
    assert np.array_equal(out[Variant.FULL_QGD].rho, out[Variant.SIMPLIFIED_QHD].rho)
    assert np.array_equal(out[Variant.FULL_QGD].u, out[Variant.SIMPLIFIED_QHD].u)


def test_qhd_regularizing_velocities_coincide():
    state = periodic_state(n=16, h=0.1, seed=1)
    for kind in (SchemeKind.STANDARD, SchemeKind.ENTHALPY):
        cfg = SchemeConfig(alpha=0.4, beta=0.3, alpha_s=0.7,
                           regularization=Variant.SIMPLIFIED_QHD, scheme=kind, c_ref=1.6)
        f = _fluxes(state, cfg)
        assert np.array_equal(f.w, f.w_hat)


@pytest.mark.parametrize("kind", [SchemeKind.STANDARD, SchemeKind.ENTHALPY])
@pytest.mark.parametrize("variant", [Variant.FULL_QGD, Variant.SIMPLIFIED_QHD])
def test_linearization_agreement(kind, variant):
    # one nonlinear step around a constant background equals one step of the
    # linearized recurrence up to O(eps^2)
    n = 64
    mesh = Mesh(n=n, h=1.0 / n, boundary=Boundary.PERIODIC)
    rng = np.random.default_rng(12)
    r = rng.standard_normal(n)
    v = rng.standard_normal(n)
    rho_star, alpha, beta, alpha_s = 1.0, 0.4, 0.3, 4.0 / 3.0
    c_star = float(MODEL.sound_speed(rho_star))
    params = LinearizedParams.from_alpha_s(alpha, beta, alpha_s, variant)
    ratios = []
    for eps in (1e-4, 1e-5, 1e-6):
        cfg = SchemeConfig(alpha=alpha, beta=beta, alpha_s=alpha_s, regularization=variant,
                           scheme=kind, c_ref=c_star)
        state = MeshState(mesh, rho_star + eps * r, eps * v)
        out = _step(state, MODEL, cfg)
        rho_t, u_t = linearized_step(eps * r / rho_star, eps * v / c_star, params)
        mismatch = max(
            float(np.max(np.abs(out.rho - rho_star * (1.0 + rho_t)))),
            float(np.max(np.abs(out.u - c_star * u_t))),
        )
        ratios.append(mismatch / eps)
    assert ratios[1] < 0.2 * ratios[0]
    assert ratios[2] < 0.2 * ratios[1]


def test_enthalpy_and_standard_steps_agree_to_second_order():
    n = 64
    mesh = Mesh(n=n, h=1.0 / n, boundary=Boundary.PERIODIC)
    rng = np.random.default_rng(4)
    r = rng.standard_normal(n)
    v = rng.standard_normal(n)
    diffs = []
    for eps in (1e-5, 1e-6):
        state = MeshState(mesh, 1.0 + eps * r, eps * v)
        outs = []
        for kind in (SchemeKind.STANDARD, SchemeKind.ENTHALPY):
            cfg = SchemeConfig(alpha=0.4, beta=0.3, alpha_s=4.0 / 3.0, scheme=kind,
                               c_ref=math.sqrt(2.0))
            outs.append(_step(state, MODEL, cfg))
        diffs.append(max(float(np.max(np.abs(outs[0].rho - outs[1].rho))),
                         float(np.max(np.abs(outs[0].u - outs[1].u)))))
    assert diffs[0] < 1e-7  # O(eps^2) at eps = 1e-5, with margin
    assert diffs[1] < 0.05 * diffs[0]


def test_step_rejects_vanishing_density():
    mesh = Mesh(n=8, h=0.1, boundary=Boundary.PERIODIC)
    u = np.array([-5.0, -5.0, -5.0, -5.0, 5.0, 5.0, 5.0, 5.0])
    state = MeshState(mesh, np.full(8, 0.5), u)
    cfg = SchemeConfig(alpha=0.4, beta=0.3, alpha_s=1.0, c_ref=1.0)
    with pytest.raises(NonPositiveDensity):
        _step(state, MODEL, cfg, dt=0.05)


@pytest.mark.parametrize("kind", [SchemeKind.STANDARD, SchemeKind.ENTHALPY])
@pytest.mark.parametrize("variant", [Variant.FULL_QGD, Variant.SIMPLIFIED_QHD])
def test_step_batch_rows_match_single_steps(kind, variant):
    # every row of a batch, with its own alpha and dt, is exactly the state
    # stepped alone
    states = [periodic_state(n=24, h=0.05, seed=s) for s in range(5)]
    alphas = np.array([0.2, 0.35, 0.5, 0.8, 1.1])
    dts = np.array([0.004, 0.01, 0.007, 0.02, 0.013])
    cfg = SchemeConfig(alpha=1.0, beta=0.3, alpha_s=0.9, regularization=variant,
                       scheme=kind, c_ref=1.5)
    rho = np.stack([s.rho for s in states])
    u = np.stack([s.u for s in states])
    mesh = states[0].mesh
    rho_new, u_new = step_batch(rho, u, MODEL, cfg, mesh, alphas[:, None], dts[:, None])
    for k, state in enumerate(states):
        alone = _step(state, MODEL, replace(cfg, alpha=float(alphas[k])), dt=float(dts[k]))
        assert np.array_equal(rho_new[k], alone.rho)
        assert np.array_equal(u_new[k], alone.u)
    with pytest.raises(LengthMismatch):
        step_batch(rho[:, :-1], u[:, :-1], MODEL, cfg, mesh, 0.5, 0.01)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_step_batch_overflowing_row_is_silent():
    # a row that overflows raises no numpy warning and leaves its neighbour
    # exactly as if stepped alone
    state = periodic_state(n=16, h=0.1, seed=2)
    cfg = SchemeConfig(alpha=0.4, beta=0.3, alpha_s=1.0, c_ref=1.5)
    rho = np.stack([state.rho, state.rho])
    u = np.stack([state.u, 1e200 * state.u])
    rho_new, u_new = step_batch(rho, u, MODEL, cfg, state.mesh, cfg.alpha, 0.01)
    alone = _step(state, MODEL, cfg, dt=0.01)
    assert np.array_equal(rho_new[0], alone.rho) and np.array_equal(u_new[0], alone.u)
    assert not (np.all(np.isfinite(rho_new[1])) and np.all(np.isfinite(u_new[1])))


@pytest.mark.parametrize("kind", [SchemeKind.STANDARD, SchemeKind.ENTHALPY])
@pytest.mark.parametrize("variant", [Variant.FULL_QGD, Variant.SIMPLIFIED_QHD])
def test_step_batch_workspace_changes_nothing(kind, variant):
    # one workspace reused across batches of other sizes gives exactly the
    # steps of a fresh one, and a step never returns one of its buffers
    cfg = SchemeConfig(alpha=1.0, beta=0.3, alpha_s=0.9, regularization=variant,
                       scheme=kind, c_ref=1.5)
    first = [periodic_state(n=24, h=0.05, seed=s) for s in range(5)]
    other = [periodic_state(n=24, h=0.05, seed=s, amp=0.4, u_amp=0.6) for s in range(10, 13)]
    mesh = first[0].mesh
    alphas, dts = np.array([[0.2], [0.35], [0.5], [0.8], [1.1]]), 0.01
    rho, u = np.stack([s.rho for s in first]), np.stack([s.u for s in first])
    rho2, u2 = np.stack([s.rho for s in other]), np.stack([s.u for s in other])
    work = _Workspace(rho.shape)
    plain = step_batch(rho, u, MODEL, cfg, mesh, alphas, dts)
    plain2 = step_batch(rho2, u2, MODEL, cfg, mesh, alphas[:3], dts)
    for _ in range(2):
        got = step_batch(rho, u, MODEL, cfg, mesh, alphas, dts, work=work)
        got2 = step_batch(rho2, u2, MODEL, cfg, mesh, alphas[:3], dts, work=work)
        for want, out in ((plain, got), (plain2, got2)):
            assert all(np.array_equal(w, g) for w, g in zip(want, out))
            assert not any(np.shares_memory(g, b) for g in out for b in work._buffers)
    # a single state and another mesh size re-size the workspace
    alone = _step(first[0], MODEL, cfg, dt=dts)
    got = step_batch(first[0].rho, first[0].u, MODEL, cfg, mesh, cfg.alpha, dts, work=work)
    assert np.array_equal(got[0], alone.rho) and np.array_equal(got[1], alone.u)
    small = periodic_state(n=9, h=0.05, seed=4)
    alone = _step(small, MODEL, cfg, dt=dts)
    got = step_batch(small.rho[None], small.u[None], MODEL, cfg, small.mesh, cfg.alpha, dts,
                     work=work)
    assert np.array_equal(got[0][0], alone.rho) and np.array_equal(got[1][0], alone.u)


@pytest.mark.parametrize("bad", [0.0, -0.2, math.nan])
def test_step_batch_rejects_non_positive_input_density(bad):
    state = periodic_state(n=16, h=0.1, seed=2)
    cfg = SchemeConfig(alpha=0.4, beta=0.3, alpha_s=1.0, c_ref=1.5)
    rho = np.stack([state.rho, state.rho])
    rho[1, 7] = bad
    with pytest.raises(NonPositiveDensity):
        step_batch(rho, np.stack([state.u, state.u]), MODEL, cfg, state.mesh, 0.4, 0.01)


@pytest.mark.parametrize("kind", [SchemeKind.STANDARD, SchemeKind.ENTHALPY])
def test_tabulated_law_steps_like_the_isentropic_law(kind):
    # p = rho**2 given as callables, with its enthalpy integrated by quad,
    # against the closed form with the same anchor r0
    tabulated = GasModel(TabulatedLaw(p=lambda r: np.asarray(r) ** 2,
                                      p_prime=lambda r: 2.0 * np.asarray(r)), r0=0.5)
    closed = GasModel.isentropic(p1=1.0, gamma=2.0, r0=0.5)
    cfg = SchemeConfig(alpha=0.4, beta=0.3, alpha_s=1.0, scheme=kind, c_ref=1.5)
    a = b = periodic_state(n=16, h=0.1, seed=3)
    for _ in range(3):
        a, b = _step(a, tabulated, cfg), _step(b, closed, cfg)
    assert np.allclose(a.rho, b.rho, rtol=0.0, atol=1e-10)
    assert np.allclose(a.u, b.u, rtol=0.0, atol=1e-10)
    assert not np.array_equal(a.u, periodic_state(n=16, h=0.1, seed=3).u)


# ---------------------------------------------------------------------------
# the driver


def _reference_run(initial, cfg, t_end, record_every):
    """The per-step loop over single MeshState steps that run_simulation
    batches: (steps, overflow, diagnostic rows, snapshot states)."""
    cfg = cfg.resolve_c_ref(MODEL, initial.rho)
    dt = cfg.time_step(initial.mesh.h)

    def diag(state):
        h = state.mesh.h
        return (state.t, h * float(np.sum(state.rho)), h * float(np.sum(state.momentum)),
                float(np.min(state.rho)), float(np.max(np.abs(state.u))))

    state, steps, overflow = initial, 0, False
    rows, snapshots = [diag(state)], [state]
    eps = 1e-12 * max(1.0, abs(t_end))
    while state.t < t_end - eps:
        try:
            new_state = _step(state, MODEL, cfg, dt=min(dt, t_end - state.t))
        except NonPositiveDensity:
            overflow = True
            break
        if not (np.all(np.isfinite(new_state.rho)) and np.all(np.isfinite(new_state.u))):
            overflow = True
            break
        state = new_state
        steps += 1
        rows.append(diag(state))
        if steps % record_every == 0:
            snapshots.append(state)
    if not overflow and snapshots[-1].t < state.t:
        snapshots.append(state)
    return steps, overflow, rows, snapshots


@pytest.mark.parametrize("kind", [SchemeKind.STANDARD, SchemeKind.ENTHALPY])
@pytest.mark.parametrize("beta,boundary", [(0.4, Boundary.OUTFLOW), (0.4, Boundary.PERIODIC),
                                           (3.0, Boundary.OUTFLOW)])
def test_run_matches_per_step_reference(kind, beta, boundary):
    state = periodic_state(n=40, h=0.025, seed=5, amp=0.4, u_amp=0.4)
    initial = MeshState(Mesh(n=40, h=0.025, boundary=boundary), state.rho, state.u)
    cfg = SchemeConfig(alpha=0.4, beta=beta, alpha_s=4.0 / 3.0, scheme=kind)
    traj = run_simulation(initial, MODEL, cfg, t_end=0.3, record_every=4)
    steps, overflow, rows, snapshots = _reference_run(initial, cfg, 0.3, 4)
    assert (traj.steps, traj.overflow) == (steps, overflow)
    assert overflow is (beta > 1.0)
    d = traj.diagnostics
    assert list(zip(d.t, d.mass, d.momentum, d.min_rho, d.max_abs_u)) == rows
    assert [t for t, _ in traj.snapshots] == [s.t for s in snapshots]
    for (_, got), want in zip(traj.snapshots, snapshots):
        assert np.array_equal(got.rho, want.rho) and np.array_equal(got.u, want.u)


@pytest.mark.parametrize("kind", [SchemeKind.STANDARD, SchemeKind.ENTHALPY])
@pytest.mark.parametrize("variant", [Variant.FULL_QGD, Variant.SIMPLIFIED_QHD])
def test_run_batch_rows_match_per_step_reference(kind, variant):
    # the four rows leave at four different steps (two overflows, then two
    # completions), so the later steps run on leading-row workspace views
    mesh = Mesh(n=60, h=1.0 / 60.0, boundary=Boundary.OUTFLOW)
    x = mesh.nodes
    initial = MeshState(mesh, np.where(x < 0.5, 1.0, 0.1), np.where(x < 0.5, 0.1, 0.0))
    cfg = SchemeConfig(alpha=0.4, beta=0.3, alpha_s=4.0 / 3.0, regularization=variant,
                       scheme=kind)
    alphas, betas = [0.3, 0.6, 0.4, 0.8], [0.2, 0.3, 1.1, 2.5]
    rows = dict(run_batch(initial, MODEL, cfg, alphas, betas, t_end=0.15, record_every=3))
    assert [rows[r].overflow for r in range(4)] == [False, False, True, True]
    assert len({traj.steps for traj in rows.values()}) == 4
    for r, traj in rows.items():
        row_cfg = replace(cfg, alpha=alphas[r], beta=betas[r])
        steps, overflow, diag_rows, snapshots = _reference_run(initial, row_cfg, 0.15, 3)
        assert (traj.steps, traj.overflow) == (steps, overflow)
        d = traj.diagnostics
        assert list(zip(d.t, d.mass, d.momentum, d.min_rho, d.max_abs_u)) == diag_rows
        assert [t for t, _ in traj.snapshots] == [s.t for s in snapshots]
        for (_, got), want in zip(traj.snapshots, snapshots):
            assert np.array_equal(got.rho, want.rho) and np.array_equal(got.u, want.u)


@pytest.mark.parametrize("alphas,betas", [(0.4, 0.3), ([[0.4, 0.5]], [[0.3, 0.3]]),
                                          ([[0.4], [0.5]], [[0.3], [0.3]]),
                                          ([0.4, 0.5], [0.3])],
                         ids=["scalar", "row", "column", "unequal"])
def test_run_batch_rejects_malformed_grids(alphas, betas):
    state = periodic_state(n=16, h=0.1, seed=2)
    cfg = SchemeConfig(alpha=0.4, beta=0.3, alpha_s=1.0, c_ref=1.5)
    with pytest.raises(ConfigError, match="1-D grids of equal length"):
        next(run_batch(state, MODEL, cfg, alphas, betas, t_end=0.1))


def test_nan_density_reported_as_non_finite():
    # alpha*h/sqrt(p'(0.2)) overflows tau to inf, and inf*0 on a constant
    # state turns every density of that row NaN in the first step
    mesh = Mesh(n=16, h=1.0, boundary=Boundary.PERIODIC)
    initial = MeshState(mesh, np.full(16, 0.2), np.full(16, 0.1))
    cfg = SchemeConfig(alpha=0.4, beta=0.3, alpha_s=4.0 / 3.0, c_ref=1.0)
    alphas = [0.4, 1.7e308]
    rho_new, _ = step_batch(np.tile(initial.rho, (2, 1)), np.tile(initial.u, (2, 1)), MODEL,
                            cfg, mesh, np.array(alphas)[:, None], 0.3)
    assert np.all(np.isnan(rho_new[1])) and np.all(rho_new[0] > 0.0)
    rows = dict(run_batch(initial, MODEL, cfg, alphas, [0.3, 0.3], t_end=0.9))
    assert (rows[1].overflow, rows[1].steps) == (True, 0)
    assert rows[1].note == "non-finite value at t=0.3"
    assert rows[0].completed and rows[0].steps == 3


def test_run_constant_state_round_trip():
    mesh = Mesh(n=10, h=0.1, boundary=Boundary.OUTFLOW)
    state = MeshState(mesh, np.full(10, 1.2), np.full(10, -0.3))
    cfg = SchemeConfig(alpha=0.5, beta=0.5, alpha_s=0.0, scheme=SchemeKind.ENTHALPY)
    traj = run_simulation(state, MODEL, cfg, t_end=0.123, record_every=3)
    assert traj.completed and not traj.overflow
    t_final, final = traj.snapshots[-1]
    assert t_final == pytest.approx(0.123, rel=1e-12)
    assert np.allclose(final.rho, 1.2, atol=1e-13)
    assert np.allclose(final.u, -0.3, atol=1e-13)
    assert len(traj.diagnostics.t) == traj.steps + 1
    assert np.all(np.diff([t for t, _ in traj.snapshots]) > 0)


def test_run_flags_overflow_instead_of_raising():
    state = periodic_state(n=32, h=1.0 / 32.0, seed=8, amp=0.3, u_amp=0.5)
    cfg = SchemeConfig(alpha=0.3, beta=6.0, alpha_s=1.0, scheme=SchemeKind.STANDARD)
    traj = run_simulation(state, MODEL, cfg, t_end=1.0)
    assert traj.overflow and not traj.completed
    assert traj.note


def test_run_resolves_c_ref_from_initial_data():
    mesh = Mesh(n=10, h=0.1, boundary=Boundary.PERIODIC)
    state = MeshState(mesh, np.array([1.0] * 9 + [2.0]), np.zeros(10))
    cfg = SchemeConfig(alpha=0.5, beta=0.4, alpha_s=0.0)
    traj = run_simulation(state, MODEL, cfg, t_end=0.1)
    # dt = beta*h/sqrt(p'(2)) = 0.4*0.1/2
    assert traj.diagnostics.t[1] == pytest.approx(0.4 * 0.1 / 2.0, rel=1e-12)
