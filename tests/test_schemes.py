"""Nonlinear steppers: flux formulas, conservation, fixed points, linearization."""

import math
import tracemalloc
import warnings
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
    Variant,
    run_simulation,
    step_batch,
)
from qgd1d import schemes
from qgd1d.experiments import RiemannSetup, riemann_initial
from qgd1d.schemes import (_diagnostics, _half_mesh, _next_window, _update, _window, _Workspace,
                           run_batch)
from qgd1d.spectral import _recurrence

MODEL = GasModel(p1=1.0, gamma=2.0)


def _enthalpy(model, rho):
    """(h(rho), h'(rho)) through the kernel's unchecked GasModel._evaluate."""
    arr = np.asarray(rho, dtype=float)
    h, hp = np.empty_like(arr), np.empty_like(arr)
    model._evaluate(arr, h=h, hp=hp)
    return h, hp


def _step(state, model, cfg, dt=None):
    """One step of cfg.scheme from a MeshState to a MeshState (which raises
    NonPositiveDensity for a non-positive or NaN new density)."""
    dt = cfg.time_step(state.mesh.h) if dt is None else dt
    return MeshState(state.mesh, *step_batch(state.rho, state.u, model, cfg, state.mesh,
                                             cfg.alpha, dt), state.t + dt)


def _fluxes(state, cfg):
    """The kernel's half-mesh j, pi, w and w_hat for one state: the first n + 1
    entries of its flat runs."""
    views = _Workspace().views(state.rho.shape)
    fluxes = _half_mesh(state.rho, state.u, MODEL, cfg, state.mesh, cfg.alpha, views)
    j, pi, srho_w, srho_what, srho, _, _ = (v[:state.mesh.n + 1] for v in fluxes)
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
        return _enthalpy(model, r)

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
            dh_l = (_enthalpy(model, rho[k + 1])[0] - _enthalpy(model, rho[k])[0]) / h
            dh_r = (_enthalpy(model, rho[k + 2])[0] - _enthalpy(model, rho[k + 1])[0]) / h
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
    cfg = SchemeConfig(alpha=0.5, beta=0.3, alpha_s=0.5, scheme=kind).resolve_c_ref(MODEL, state.rho)
    h = state.mesh.h
    mass0 = h * float(np.sum(state.rho))
    mom0 = h * float(np.sum(state.rho * state.u))
    for _ in range(300):
        state = _step(state, MODEL, cfg)
    assert h * float(np.sum(state.rho)) == pytest.approx(mass0, rel=1e-12)
    if check_momentum:
        assert h * float(np.sum(state.rho * state.u)) == pytest.approx(mom0, abs=1e-12)


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
    c_star = math.sqrt(MODEL.pressure(rho_star)[1])
    params = LinearizedParams.from_alpha_s(alpha, beta, alpha_s, variant)
    ratios = []
    for eps in (1e-4, 1e-5, 1e-6):
        cfg = SchemeConfig(alpha=alpha, beta=beta, alpha_s=alpha_s, regularization=variant,
                           scheme=kind, c_ref=c_star)
        state = MeshState(mesh, rho_star + eps * r, eps * v)
        out = _step(state, MODEL, cfg)
        rho_t, u_t = _recurrence(eps * r / rho_star, eps * v / c_star,
                                 params.alpha, params.beta, params.kappa)
        mismatch = max(
            float(np.max(np.abs(out.rho - rho_star * (1.0 + rho_t)))),
            float(np.max(np.abs(out.u - c_star * u_t))),
        )
        ratios.append(mismatch / eps)
    assert ratios[1] < 0.2 * ratios[0]
    assert ratios[2] < 0.2 * ratios[1]


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(list(SchemeKind)), variant=st.sampled_from(list(Variant)),
       alpha=st.floats(0.05, 1.5), beta=st.floats(0.05, 1.5), alpha_s=st.floats(0.0, 3.0),
       gamma=st.floats(1.0, 3.0, exclude_min=True), p1=st.floats(0.5, 2.0),
       rho0=st.floats(0.5, 2.0))
@example(SchemeKind.ENTHALPY, Variant.FULL_QGD, 1.0, 1.0, 0.0, 1.0078125, 1.0, 1.0)
def test_linearization_stencil_is_exact(kind, variant, alpha, beta, alpha_s, gamma, p1, rho0):
    # the 2x2 blocks d(rho+, u+)_j / d(rho, u)_k of one step at rest, by central
    # differences in the scaled perturbations (rho / rho0, u / c) at one node k,
    # equal the linearized recurrence's, node for node, to 1e-8.  The enthalpy
    # h = gamma/(gamma - 1) p1 (rho^(gamma-1) - r0^(gamma-1)) cancels as gamma -> 1:
    # its rounding reaches the quotient as about beta eps_mach / ((gamma - 1) eps)
    n, k, eps = 8, 3, 1e-6
    cancel = 4.0 * beta * np.finfo(float).eps / ((gamma - 1.0) * eps)
    tol = 1e-8 + (cancel if kind is SchemeKind.ENTHALPY else 0.0)
    model = GasModel(p1=p1, gamma=gamma)
    c = math.sqrt(model.pressure(rho0)[1])
    cfg = SchemeConfig(alpha=alpha, beta=beta, alpha_s=alpha_s, regularization=variant,
                       scheme=kind, c_ref=c)
    mesh = Mesh(n=n, h=1.0 / n, boundary=Boundary.PERIODIC)
    scale = np.array([[rho0], [c]])
    for col in range(2):
        outs = []
        for sign in (1.0, -1.0):
            rho, u = np.full(n, rho0), np.zeros(n)
            (rho, u)[col][k] += sign * eps * scale[col, 0]
            outs.append(np.array(step_batch(rho, u, model, cfg, mesh, alpha, cfg.time_step(mesh.h))))
        got = (outs[0] - outs[1]) / (2.0 * eps * scale)
        impulse = np.zeros((2, n))
        impulse[col, k] = 1.0
        want = np.array(_recurrence(*impulse, alpha, beta, cfg.kappa))
        assert np.max(np.abs(got - want)) <= tol, (col, got - want)


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
    # one workspace reused across batches of other sizes and widths gives exactly
    # the steps of a fresh one, and a step never returns one of its buffers; the
    # block is poisoned before each step, so no entry a step leaves unwritten,
    # nor one that straddles two runs it passes over as one span, reaches a result
    cfg = SchemeConfig(alpha=1.0, beta=0.3, alpha_s=0.9, regularization=variant,
                       scheme=kind, c_ref=1.5)
    first = [periodic_state(n=24, h=0.05, seed=s) for s in range(5)]
    other = [periodic_state(n=24, h=0.05, seed=s, amp=0.4, u_amp=0.6) for s in range(10, 13)]
    mesh = first[0].mesh
    alphas, dts = np.array([[0.2], [0.35], [0.5], [0.8], [1.1]]), 0.01
    rho, u = np.stack([s.rho for s in first]), np.stack([s.u for s in first])
    rho2, u2 = np.stack([s.rho for s in other]), np.stack([s.u for s in other])
    work = _Workspace()
    plain = step_batch(rho, u, MODEL, cfg, mesh, alphas, dts)
    plain2 = step_batch(rho2, u2, MODEL, cfg, mesh, alphas[:3], dts)
    for poison in (math.nan, math.inf, -math.inf):
        work._block[:] = poison
        got = step_batch(rho, u, MODEL, cfg, mesh, alphas, dts, work=work)
        work._block[:] = poison
        got2 = step_batch(rho2, u2, MODEL, cfg, mesh, alphas[:3], dts, work=work)
        for want, out in ((plain, got), (plain2, got2)):
            assert all(np.array_equal(w, g) for w, g in zip(want, out))
            assert not any(np.shares_memory(g, work._block) for g in out)
    # a single state and another mesh size re-size the workspace
    alone = _step(first[0], MODEL, cfg, dt=dts)
    got = step_batch(first[0].rho, first[0].u, MODEL, cfg, mesh, cfg.alpha, dts, work=work)
    assert np.array_equal(got[0], alone.rho) and np.array_equal(got[1], alone.u)
    small = periodic_state(n=9, h=0.05, seed=4)
    alone = _step(small, MODEL, cfg, dt=dts)
    got = step_batch(small.rho[None], small.u[None], MODEL, cfg, small.mesh, cfg.alpha, dts,
                     work=work)
    assert np.array_equal(got[0][0], alone.rho) and np.array_equal(got[1][0], alone.u)
    # outflow windows of changing widths on the one block, poisoned between steps
    outflow = Mesh(n=24, h=0.05, boundary=Boundary.OUTFLOW)
    for k, poison in enumerate((math.nan, math.inf, -math.inf, math.nan)):
        front = np.arange(24) < 8 + 3 * k
        rho_o, u_o = np.stack([np.where(front, 1.0 + 0.1 * k, 0.7)] * 3), np.zeros((3, 24))
        rho_o[:, 8:16 - k] += np.linspace(0.0, 0.2, 8 - k)
        window = _window(rho_o, u_o)
        want = step_batch(rho_o, u_o, MODEL, cfg, outflow, alphas[:3], dts)
        work._block[:] = poison
        got = step_batch(rho_o, u_o, MODEL, cfg, outflow, alphas[:3], dts, work=work, window=window)
        assert all(np.array_equal(w.view(np.int64), g.view(np.int64)) for w, g in zip(want, got))


@pytest.mark.parametrize("bad", [0.0, -0.2, math.nan])
def test_step_batch_rejects_non_positive_input_density(bad):
    state = periodic_state(n=16, h=0.1, seed=2)
    cfg = SchemeConfig(alpha=0.4, beta=0.3, alpha_s=1.0, c_ref=1.5)
    rho = np.stack([state.rho, state.rho])
    rho[1, 7] = bad
    with pytest.raises(NonPositiveDensity):
        step_batch(rho, np.stack([state.u, state.u]), MODEL, cfg, state.mesh, 0.4, 0.01)


@pytest.mark.parametrize("bad", [0.0, -0.2, math.nan])
@pytest.mark.parametrize("run", [slice(0, 6), slice(10, 16)], ids=["left", "right"])
def test_step_batch_rejects_a_non_positive_end_run(bad, run):
    # an outflow step computes one node of each uniform end run, and checks it
    mesh = Mesh(n=16, h=0.1, boundary=Boundary.OUTFLOW)
    cfg = SchemeConfig(alpha=0.4, beta=0.3, alpha_s=1.0, c_ref=1.5)
    rho, u = np.ones((2, 16)), np.zeros((2, 16))
    rho[:, 7:9] = 1.2
    rho[1, run] = bad
    with pytest.raises(NonPositiveDensity):
        step_batch(rho, u, MODEL, cfg, mesh, 0.4, 0.01)


_RHO_VALUES, _U_VALUES = [0.5, 0.7, 1.0, 1.3], [0.0, -0.0, 0.1, -0.2]


@st.composite
def _end_run_steps(draw):
    """Arguments of one step_batch call whose rows each have a left and a right
    end run of independent lengths 0..n (the right one may cover the left),
    some of them NaN in u, over few values; up to 3 nodes just inside a run
    take its rho and negated u, so that -0.0 meets 0.0."""
    n = draw(st.sampled_from([3, 4, 5, 40]))
    rows = draw(st.sampled_from([0, 1, 3]))              # 0: one state as 1-D arrays
    rho = draw(arrays(float, (max(rows, 1), n), elements=st.sampled_from(_RHO_VALUES)))
    u = draw(arrays(float, (max(rows, 1), n), elements=st.sampled_from(_U_VALUES)))
    for k in range(rho.shape[0]):
        left, right = draw(st.integers(0, n)), draw(st.integers(0, n))
        flip = draw(st.integers(0, 3))
        for run, inner in ((slice(0, left), slice(left, left + flip)),
                           (slice(n - right, n), slice(max(n - right - flip, 0), n - right))):
            rho_run, u_run = draw(st.sampled_from(_RHO_VALUES)), draw(st.sampled_from(_U_VALUES))
            rho[k, run], u[k, run] = rho_run, (u_run if draw(st.booleans()) else math.nan)
            if run.start < run.stop:
                rho[k, inner], u[k, inner] = rho_run, -u[k, run.start]   # -0.0 beside 0.0
    alpha, dt = draw(st.floats(0.2, 1.5)), draw(st.floats(1e-3, 0.05))
    if rows and draw(st.booleans()):
        alpha = np.array(draw(st.lists(st.floats(0.2, 1.5), min_size=rows, max_size=rows)))[:, None]
        dt = np.array(draw(st.lists(st.floats(1e-3, 0.05), min_size=rows, max_size=rows)))[:, None]
    mesh = Mesh(n=n, h=0.05, boundary=draw(st.sampled_from(Boundary)))
    return (rho, u) if rows else (rho[0], u[0]), mesh, alpha, dt


def _signed_zero_runs(order=1):
    """A run of 0.0 velocities, then -0.0, before a density bump (order -1:
    after it): a value compare would take both for one run."""
    rho, u = np.ones(40), np.zeros(40)
    rho[20:24] = 1.3
    u[8:20] = -0.0
    return rho[::order].copy(), u[::order].copy()


@settings(max_examples=200, deadline=None)
@given(_end_run_steps(), st.sampled_from(SchemeKind), st.sampled_from(Variant))
@example((_signed_zero_runs(), Mesh(n=40, h=0.05, boundary=Boundary.OUTFLOW), 0.4, 0.01),
         SchemeKind.STANDARD, Variant.FULL_QGD)
@example((_signed_zero_runs(-1), Mesh(n=40, h=0.05, boundary=Boundary.OUTFLOW), 0.4, 0.01),
         SchemeKind.ENTHALPY, Variant.SIMPLIFIED_QHD)
def test_step_batch_equals_the_update_of_every_node(case, kind, variant):
    # a step of the window _window finds, completed by _next_window, steps only
    # the nodes between the end runs of an outflow mesh; NaN lands on the nodes
    # where stepping all nodes puts it, and every other node gets its bits, zero
    # signs included
    (rho, u), mesh, alpha, dt = case
    cfg = SchemeConfig(alpha=1.0, beta=0.3, alpha_s=0.9, regularization=variant, scheme=kind,
                       c_ref=1.5)
    want = rho.copy(), u.copy()                  # the kernel over the whole mesh
    _update(*want, MODEL, cfg, mesh, alpha, dt, _Workspace())
    _assert_bits_but_nans(want, _windowed_step(rho, u, mesh, cfg, alpha, dt))


def _windowed_step(rho, u, mesh, cfg, alpha, dt):
    """As run_batch steps: step_batch of the window _window finds (all of a
    periodic mesh), in place on copies of rho and u, then _next_window."""
    rho, u = rho.copy(), u.copy()
    rows = rho.reshape(-1, mesh.n), u.reshape(-1, mesh.n)
    periodic = mesh.boundary is Boundary.PERIODIC
    window = (0, mesh.n) if periodic else _window(*rows)
    step_batch(rho, u, MODEL, cfg, mesh, alpha, dt, window=window)
    _next_window(*rows, None, window, periodic)
    return rho, u


def _assert_bits_but_nans(want, got):
    """Every array of got has the bits of want's, but for NaN, compared by position:
    numpy's add and multiply of two NaNs (+NaN and -NaN, or two payloads) return
    one operand's NaN in their vector loop and the other's in its scalar tail, so
    which NaN a node gets depends on where a pass starts."""
    for w, g in zip(want, got):
        assert g.shape == w.shape
        nan = np.isnan(w)
        assert np.array_equal(np.isnan(g), nan)
        assert np.array_equal(w[~nan].view(np.int64), g[~nan].view(np.int64))


@settings(max_examples=100, deadline=None)
@given(_end_run_steps(), st.sampled_from(SchemeKind), st.sampled_from(Variant))
@example((_signed_zero_runs(), Mesh(n=40, h=0.05, boundary=Boundary.OUTFLOW), 0.4, 0.01),
         SchemeKind.STANDARD, Variant.FULL_QGD)
def test_step_batch_in_place_and_window_give_the_fresh_bits(case, kind, variant):
    # a step of the window (0, n) writes in place every node with the bits of a
    # fresh step, which leaves its inputs as they were; one of the window _window
    # finds writes only its nodes, and with _next_window gives the fresh step
    (rho, u), mesh, alpha, dt = case
    cfg = SchemeConfig(alpha=1.0, beta=0.3, alpha_s=0.9, regularization=variant, scheme=kind,
                       c_ref=1.5)
    before = rho.copy(), u.copy()
    want = step_batch(rho, u, MODEL, cfg, mesh, alpha, dt)
    assert all(np.array_equal(b.view(np.int64), v.view(np.int64)) for b, v in zip(before, (rho, u)))
    in_place = rho.copy(), u.copy()
    got = step_batch(*in_place, MODEL, cfg, mesh, alpha, dt, window=(0, mesh.n))
    assert all(g is i for g, i in zip(got, in_place))
    assert all(np.array_equal(w.view(np.int64), g.view(np.int64)) for w, g in zip(want, got))
    if mesh.boundary is Boundary.OUTFLOW:
        lo, hi = _window(rho, u)
        got = step_batch(*before, MODEL, cfg, mesh, alpha, dt, window=(lo, hi))
        outside = (np.arange(mesh.n) < lo) | (np.arange(mesh.n) >= hi)
        for b, g in zip((rho, u), got):
            assert np.array_equal(b[..., outside].view(np.int64), g[..., outside].view(np.int64))
    _assert_bits_but_nans(want, _windowed_step(rho, u, mesh, cfg, alpha, dt))


@pytest.mark.parametrize("boundary, case, window", [
    (Boundary.OUTFLOW, "float32", None), (Boundary.OUTFLOW, "list", None),
    (Boundary.OUTFLOW, "shared", None), (Boundary.OUTFLOW, "overlapping", None),
    (Boundary.OUTFLOW, "read-only", None), (Boundary.OUTFLOW, "non-positive", None),
    (Boundary.OUTFLOW, None, (5, 5)), (Boundary.OUTFLOW, None, (-1, 10)),
    (Boundary.OUTFLOW, None, (0, 17)), (Boundary.PERIODIC, None, (6, 10)),
], ids=["in-place-float32", "in-place-list", "in-place-shared", "in-place-overlapping",
        "in-place-read-only", "in-place-non-positive", "window-empty", "window-negative",
        "window-past-n", "window-on-periodic"])
def test_step_batch_rejects_a_bad_in_place_or_window(boundary, case, window):
    # a window takes only writeable float64 arrays that share no memory, and is
    # checked against 0 <= lo < hi <= n (all of the mesh when periodic); a
    # rejected step writes nothing
    mesh = Mesh(n=16, h=0.1, boundary=boundary)
    cfg = SchemeConfig(alpha=0.4, beta=0.3, alpha_s=1.0, c_ref=1.5)
    block, u = np.ones((2, 17)), np.zeros((2, 16))
    block[:, 7:9] = 1.2
    rho = block[:, :-1]
    non_positive = rho.copy()
    non_positive[1, 7] = 0.0
    read_only = u.copy()
    read_only.flags.writeable = False
    args = {"float32": (rho.astype(np.float32), u), "list": (rho.tolist(), u), "shared": (rho, rho),
            "overlapping": (rho, block[:, 1:]),              # all but one node of rho
            "read-only": (rho, read_only),                   # u is written after rho
            "non-positive": (non_positive, u), None: (rho, u)}[case]
    before = [np.array(v) for v in args]
    with pytest.raises(NonPositiveDensity if case == "non-positive" else ValueError):
        step_batch(*args, MODEL, cfg, mesh, 0.4, 0.01, window=window or (0, 16))
    assert all(np.array_equal(np.asarray(v), b) for v, b in zip(args, before))


def test_step_batch_in_place_copies_no_row():
    # in place on a workspace warmed by a step of its window, as in run_batch, a step
    # of a 25 000-node Riemann row whose front spans some 500 nodes allocates
    # less than one row
    n = 25_000
    mesh = Mesh(n=n, h=1.0 / n, boundary=Boundary.OUTFLOW)
    cfg = SchemeConfig(alpha=0.4, beta=0.3, alpha_s=1.0, c_ref=1.5)
    front = np.interp(np.arange(n), [n // 2 - 250, n // 2 + 250], [1.0, 0.0])[None]
    rho, u = 0.1 + 0.9 * front, 0.1 * front
    lo, hi = _window(rho, u)
    assert 400 < hi - lo < 600
    work = _Workspace()
    step_batch(rho, u, MODEL, cfg, mesh, 0.4, 1e-6, work=work, window=(lo, hi))
    tracemalloc.start()
    try:
        step_batch(rho, u, MODEL, cfg, mesh, 0.4, 1e-6, work=work, window=(lo, hi))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * 8


def test_enthalpy_anchor_r0_only_shifts_h():
    anchored, plain = GasModel(p1=1.3, gamma=1.6, r0=0.7), GasModel(p1=1.3, gamma=1.6)
    assert _enthalpy(anchored, 0.7)[0] == pytest.approx(0.0, abs=1e-15)
    rho = np.array([0.3, 1.1, 2.4, 4.0])
    assert np.allclose(np.diff(_enthalpy(anchored, rho)[0]), np.diff(_enthalpy(plain, rho)[0]),
                       rtol=0.0, atol=1e-14)
    # the enthalpy scheme reads h only through its differences
    cfg = SchemeConfig(alpha=0.4, beta=0.3, alpha_s=1.0, scheme=SchemeKind.ENTHALPY, c_ref=1.5)
    a = b = periodic_state(n=16, h=0.1, seed=3)
    for _ in range(3):
        a, b = _step(a, GasModel(r0=0.5), cfg), _step(b, GasModel(), cfg)
    assert np.allclose(a.rho, b.rho, rtol=0.0, atol=1e-12)
    assert np.allclose(a.u, b.u, rtol=0.0, atol=1e-12)
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
        return (state.t, h * float(np.sum(state.rho)), h * float(np.sum(state.rho * state.u)),
                float(np.min(state.rho)), float(np.max(np.abs(state.u))),
                float(np.max(state.rho)))

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
    assert list(zip(d.t, d.mass, d.momentum, d.min_rho, d.max_abs_u, d.max_rho)) == rows
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
        assert list(zip(d.t, d.mass, d.momentum, d.min_rho, d.max_abs_u, d.max_rho)) == diag_rows
        assert [t for t, _ in traj.snapshots] == [s.t for s in snapshots]
        for (_, got), want in zip(traj.snapshots, snapshots):
            assert np.array_equal(got.rho, want.rho) and np.array_equal(got.u, want.u)


def _plain_run(initial, cfg, alpha, beta, t_end, record_every):
    """run_batch's row (alpha, beta) as a plain loop of whole-row step_batch
    calls and whole-row reductions: (diagnostic rows, snapshots, steps, note)."""
    mesh, h = initial.mesh, initial.mesh.h
    cfg = replace(cfg, alpha=alpha, beta=beta).resolve_c_ref(MODEL, initial.rho)
    dt, eps = cfg.time_step(h), 1e-12 * max(1.0, abs(t_end))
    rho, u, t, steps, note = initial.rho, initial.u, initial.t, 0, ""

    def diag():
        return [t, h * np.sum(rho), h * np.sum(rho * u), np.min(rho), np.max(np.abs(u)),
                np.max(rho)]

    rows, snapshots = [diag()], [(t, rho, u)]
    while t < t_end - eps:
        step_dt = min(dt, t_end - t)
        rho, u = step_batch(rho, u, MODEL, cfg, mesh, alpha, step_dt)
        t += step_dt
        row = diag()
        if not (row[3] > 0.0 and row[5] < math.inf and math.isfinite(row[4])):
            note = (f"density became non-positive at t={t}" if row[3] <= 0.0
                    else f"non-finite value at t={t}")
            break
        steps += 1
        rows.append(row)
        if steps % record_every == 0:
            snapshots.append((t, rho, u))
    if not note and snapshots[-1][0] < t:
        snapshots.append((t, rho, u))
    return np.array(rows, dtype=float), snapshots, steps, note


@st.composite
def _riemann_batches(draw):
    """An outflow Riemann state (its jump anywhere, even at an end, and up to two
    nodes with the negated velocity of their side, so that -0.0 meets 0.0 and
    -NaN meets NaN) and per-row alphas and betas, from stable to overflowing."""
    n = draw(st.sampled_from([3, 4, 9, 30]))
    mesh = Mesh(n=n, h=0.05, boundary=Boundary.OUTFLOW)
    left = np.arange(n) < draw(st.integers(0, n))
    rho = np.where(left, draw(st.sampled_from(_RHO_VALUES)), draw(st.sampled_from(_RHO_VALUES)))
    u_values = st.sampled_from([*_U_VALUES, math.nan])
    u = np.where(left, draw(u_values), draw(u_values))
    for k in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        u[k] = -u[k]
    rows = draw(st.integers(1, 4))
    alphas = draw(st.lists(st.floats(0.2, 1.5), min_size=rows, max_size=rows))
    betas = draw(st.lists(st.floats(0.05, 3.0), min_size=rows, max_size=rows))
    return (MeshState(mesh, rho, u), alphas, betas, draw(st.sampled_from([0.05, 0.3])),
            draw(st.sampled_from([1, 3])))


def _one_ulp_bump():
    """A state whose one-ulp velocity bump the first step rounds away, so
    that no edge changes across the second step."""
    u = np.full(9, 0.1)
    u[4] = np.nextafter(0.1, 0.0)
    return MeshState(Mesh(n=9, h=0.05, boundary=Boundary.OUTFLOW), np.full(9, 0.7), u)


@settings(max_examples=60, deadline=None)
@given(_riemann_batches(), st.sampled_from(SchemeKind), st.sampled_from(Variant))
@example((_one_ulp_bump(), [0.4, 0.4], [0.1, 0.3], 0.05, 1), SchemeKind.STANDARD, Variant.FULL_QGD)
def test_run_batch_equals_a_plain_whole_row_loop(batch, kind, variant):
    # stepping in place on a carried window, with the extrema taken over it,
    # changes no bit of any row, whichever step the other rows leave at; each
    # window carried into a step is the one step_batch would find itself
    initial, alphas, betas, t_end, record_every = batch
    cfg = SchemeConfig(alpha=0.4, beta=0.3, alpha_s=4.0 / 3.0, regularization=variant, scheme=kind)

    def step(rho, u, *args, window, **kwargs):
        assert window == _window(rho, u)
        return step_batch(rho, u, *args, window=window, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(schemes, "step_batch", step)
        got = dict(run_batch(initial, MODEL, cfg, alphas, betas, t_end, record_every))
    assert sorted(got) == list(range(len(alphas)))
    for r, traj in got.items():
        rows, snapshots, steps, note = _plain_run(initial, cfg, alphas[r], betas[r], t_end,
                                                  record_every)
        assert (traj.steps, traj.overflow, traj.note) == (steps, bool(note), note)
        d = np.stack([getattr(traj.diagnostics, f.name) for f in fields(traj.diagnostics)], axis=1)
        assert np.array_equal(d.view(np.int64), rows.view(np.int64))
        assert [t for t, _ in traj.snapshots] == [t for t, _, _ in snapshots]
        for (_, state), (_, rho, u) in zip(traj.snapshots, snapshots):
            assert np.array_equal(state.rho.view(np.int64), rho.view(np.int64))
            assert np.array_equal(state.u.view(np.int64), u.view(np.int64))
        assert _hex(traj.tv) == [_hex(np.sum(np.abs(np.diff(rho)))) for _, rho, _ in snapshots]


# values whose bits a window compares: both zeros, and NaNs of two payloads
_EDGE_VALUES = np.array([0.7, 1.0, 0.0, -0.0, math.nan, math.nan])
_EDGE_VALUES.view(np.int64)[-1] += 1


def _as_stepped(rho, u, lo, hi):
    """(rho, u, (lo, hi)) with nodes 0..lo and hi-1..n-1 of every row set to the
    bits of nodes lo and hi-1, as a step of the window (lo, hi) and _next_window
    leave them."""
    for v in (rho, u):
        v[:, :lo] = v[:, lo:lo + 1]
        v[:, hi:] = v[:, hi - 1:hi]
    return rho, u, (lo, hi)


def _old_runs(rho, u, lo, hi):
    """(rho, u, (lo, hi)) with nodes 0..lo-1 and hi..n-1 of every row set to the bits
    of nodes 0 and n-1, as a step of the window (lo, hi) leaves them: the end runs
    keep their bits from before the step and only nodes lo..hi-1 are new."""
    for v in (rho, u):
        v[:, :lo] = v[:, :1]
        v[:, hi:] = v[:, -1:]
    return rho, u, (lo, hi)


def _edge_rows(draw, n, rows):
    """(rho, u) of the given shape, each node drawn from _EDGE_VALUES."""
    pick = arrays(np.intp, (rows, n), elements=st.integers(0, _EDGE_VALUES.size - 1))
    return _EDGE_VALUES[draw(pick)], _EDGE_VALUES[draw(pick)]


@st.composite
def _windowed_steps(draw):
    """Rows as a step of some window (lo, hi) that _window could give (at least
    three nodes wide) leaves them, their nodes drawn from _EDGE_VALUES."""
    n, rows = draw(st.integers(3, 10)), draw(st.integers(1, 3))
    lo = draw(st.integers(0, n - 3))
    hi = draw(st.integers(lo + 3, n))
    return _old_runs(*_edge_rows(draw, n, rows), lo, hi)


def _front(n, nodes):
    """One row of n nodes: 0.7 but for 1.0 at the given nodes."""
    rho = np.full((1, n), 0.7)
    rho[0, nodes] = 1.0
    return rho


def _sentinel():
    """A float whose bits no product of the tests' values has."""
    return np.frombuffer(bytes.fromhex("0123456789abcdef"), dtype=float)[0]


@settings(max_examples=300, deadline=None)
@given(_windowed_steps())
@example(_old_runs(_front(12, [3, 8]), np.zeros((1, 12)), 3, 9))          # grows at both ends
@example(_old_runs(_front(12, [5]), np.zeros((1, 12)), 3, 9))             # no change
@example(_old_runs(_front(12, [5]), np.zeros((1, 12)), 4, 9))             # shrinks at the left
@example(_old_runs(np.full((2, 12), 0.7), np.zeros((2, 12)), 3, 9))       # turns uniform
@example(_old_runs(np.full((1, 12), 0.7), np.where(np.arange(12) == 5, -0.0, 0.0)[None],
                   3, 9))                                                # -0.0 beside 0.0
@example(_old_runs(np.full((1, 12), 0.7), np.where(np.arange(12) < 3, -0.0, 0.0)[None],
                   3, 9))                                                # a run's zero turns +0.0
@example(_old_runs(np.full((1, 12), 0.7), np.where(np.arange(12) == 8, 0.1, 0.0)[None],
                   3, 9))                                                # only u's right run moves
@example(_old_runs(np.ones((1, 12)), _EDGE_VALUES[[4] * 6 + [5] * 6][None], 3, 9))   # NaNs
@example(_old_runs(_front(12, [0, 11]), np.zeros((1, 12)), 0, 12))        # both mesh ends
def test_next_window_equals_the_full_scan_after_a_step(stepped):
    # after a step of a window, _next_window writes its end nodes over the end runs
    # where their bits changed, keeps rho*u on every node (taking it over the window
    # and those end runs only), and walking the edges inward from the window's ends
    # finds the window a scan of every edge of every row finds; without rho*u it
    # does the same
    rho, u, window = stepped
    want = _as_stepped(rho.copy(), u.copy(), *window)[:2]
    lo, hi = window
    rho_u = rho * u                              # the end runs' product from before the step
    rho_u[:, lo:hi] = _sentinel()
    bare = rho.copy(), u.copy()
    assert _next_window(rho, u, rho_u, window, False) == _window(*want)
    assert _next_window(*bare, None, window, False) == _window(*want)
    for got in ((rho, u), bare):
        assert all(np.array_equal(_bits(w), _bits(g)) for w, g in zip(want, got))
    _assert_bits_but_nans([want[0] * want[1]], [rho_u])


@st.composite
def _rows_leaving(draw):
    """Rows of _EDGE_VALUES with end runs of their own lengths, and a mask of the
    rows that stay (none, some or all)."""
    n, rows = draw(st.integers(3, 10)), draw(st.integers(1, 4))
    rho, u = _edge_rows(draw, n, rows)
    for r in range(rows):
        lo = draw(st.integers(0, n - 1))
        _as_stepped(rho[r:r + 1], u[r:r + 1], lo, draw(st.integers(lo + 1, n)))
    return rho, u, np.array(draw(st.lists(st.booleans(), min_size=rows, max_size=rows)))


@settings(max_examples=300, deadline=None)
@given(_rows_leaving())
@example((np.concatenate([_front(12, [2, 9]), _front(12, [5])]), np.zeros((2, 12)),
          np.array([False, True])))                                      # the wide row leaves
def test_next_window_walks_to_the_full_scan_of_the_rows_left(leaving):
    # as rows leave, the walk from the window of all rows finds the window a scan
    # of the rows left finds, and writes nothing
    rho, u, keep = leaving
    window = _window(rho, u)
    rho, u = rho[keep], u[keep]
    before = rho.copy(), u.copy()
    assert _next_window(rho, u, None, window, False) == _window(rho, u)
    assert all(np.array_equal(_bits(b), _bits(v)) for b, v in zip(before, (rho, u)))


def test_run_batch_scans_every_edge_only_as_it_starts(monkeypatch):
    # the window is carried by its edges, through steps and as rows leave: one full
    # scan seeds it as the batch starts, though rows leave after an overflow, two
    # at once and then one
    scans = []
    monkeypatch.setattr(schemes, "_window", lambda rho, u: scans.append(len(rho)) or _window(rho, u))
    cfg = SchemeConfig(alpha=0.4, beta=0.3, alpha_s=4.0 / 3.0, c_ref=1.5)
    betas = [*_betas_for_steps([12, 12, 20, 33], 0.3), 5.0]
    trajs = [traj for _, traj in run_batch(_dam_break(), MODEL, cfg, [0.4] * 5, betas, t_end=0.3)]
    assert [(traj.steps + traj.overflow, traj.overflow) for traj in trajs] == [
        (2, True), (12, False), (12, False), (20, False), (33, False)]
    assert scans == [5]


def _hex(v):
    """The bits of a float, or of each float of an array, as hex strings."""
    return [x.hex() for x in v.tolist()] if np.ndim(v) else float(v).hex()


@settings(max_examples=60, deadline=None)
@given(_riemann_batches(), st.sampled_from(SchemeKind), st.sampled_from(Variant))
def test_verdict_only_run_batch_keeps_the_verdicts_records(batch, kind, variant):
    # a verdict-only row has the steps, overflow flag, note, per-step t and
    # extrema and the TV record of the full run, bit for bit; it has no
    # snapshots, mass or momentum, and its batch keeps no rho*u
    initial, alphas, betas, t_end, record_every = batch
    cfg = SchemeConfig(alpha=0.4, beta=0.3, alpha_s=4.0 / 3.0, regularization=variant, scheme=kind)
    full = dict(run_batch(initial, MODEL, cfg, alphas, betas, t_end, record_every))
    rho_us = []

    def diagnostics(*args):
        rho_us.append(args[6])
        return _diagnostics(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(schemes, "_diagnostics", diagnostics)
        lean = dict(run_batch(initial, MODEL, cfg, alphas, betas, t_end, record_every,
                              verdict_only=True))
    assert rho_us and all(rho_u is None for rho_u in rho_us)
    assert sorted(lean) == sorted(full)
    for r, want in full.items():
        got = lean[r]
        assert (got.steps, got.overflow, got.note) == (want.steps, want.overflow, want.note)
        assert got.snapshots is got.diagnostics.mass is got.diagnostics.momentum is None
        for name in ("t", "min_rho", "max_abs_u", "max_rho"):
            assert _hex(getattr(got.diagnostics, name)) == _hex(getattr(want.diagnostics, name))
        assert _hex(got.tv) == _hex(want.tv)


def _run_batch_as_plain_runs(initial, alphas, betas, t_end, record_every=1):
    """Assert that every row of run_batch has the bits of its _plain_run;
    returns the rows' Trajectories."""
    cfg = SchemeConfig(alpha=0.4, beta=0.3, alpha_s=4.0 / 3.0, c_ref=1.5)
    got = dict(run_batch(initial, MODEL, cfg, alphas, betas, t_end, record_every))
    assert sorted(got) == list(range(len(alphas)))
    for r, traj in got.items():
        rows, snapshots, steps, note = _plain_run(initial, cfg, alphas[r], betas[r], t_end,
                                                  record_every)
        assert (traj.steps, traj.overflow, traj.note) == (steps, bool(note), note)
        d = np.stack([getattr(traj.diagnostics, f.name) for f in fields(traj.diagnostics)], axis=1)
        assert np.array_equal(d.view(np.int64), rows.view(np.int64))
        assert [t for t, _ in traj.snapshots] == [t for t, _, _ in snapshots]
        for (_, state), (_, rho, u) in zip(traj.snapshots, snapshots):
            assert np.array_equal(state.rho.view(np.int64), rho.view(np.int64))
            assert np.array_equal(state.u.view(np.int64), u.view(np.int64))
        assert _hex(traj.tv) == [_hex(np.sum(np.abs(np.diff(rho)))) for _, rho, _ in snapshots]
    return [got[r] for r in range(len(alphas))]


def _dam_break(t=0.0):
    mesh = Mesh(n=9, h=0.05, boundary=Boundary.OUTFLOW)
    left = np.arange(9) < 4
    return MeshState(mesh, np.where(left, 1.0, 0.7), np.where(left, 0.1, 0.0), t)


def _betas_for_steps(steps, t_end):
    """The betas whose time steps (h = 0.05, c_ref = 1.5) divide t_end into
    each number of steps."""
    return [t_end * 1.5 / (0.05 * k) for k in steps]


@pytest.mark.parametrize("t0", [0.3, 0.3 - 1e-13, 0.5], ids=["t_end", "within-eps", "past"])
def test_run_batch_at_t_end_takes_no_step(t0):
    # a run that starts at t_end (to within 1e-12 relative) or past it is
    # its initial state: one diagnostics row and one snapshot
    for traj in _run_batch_as_plain_runs(_dam_break(t0), [0.4, 0.7], [0.3, 2.5], t_end=0.3):
        assert (traj.steps, len(traj.diagnostics.t), len(traj.snapshots)) == (0, 1, 1)


def test_run_batch_lands_a_clipped_last_step_on_t_end():
    # t_end a whole number of time steps: rounding leaves the last step
    # just short of a full one in some rows, and they land on t_end
    steps, betas = [10, 30, 63], _betas_for_steps([10, 30, 63], 0.3)
    trajs = _run_batch_as_plain_runs(_dam_break(), [0.4, 0.5, 0.6], betas, t_end=0.3,
                                     record_every=4)
    assert [traj.steps for traj in trajs] == steps
    assert any(0.3 - traj.diagnostics.t[-2] < beta * 0.05 / 1.5 for traj, beta in zip(trajs, betas))


def test_run_batch_grows_the_record_of_one_row_twice():
    steps = 2 * schemes._RECORD_STEPS + 5
    [traj] = _run_batch_as_plain_runs(_dam_break(), [0.4], _betas_for_steps([steps], 0.3),
                                      t_end=0.3, record_every=7)
    assert traj.steps == steps


def test_run_batch_rows_leave_around_record_growths():
    # rows complete on the steps next to each doubling of the record, and
    # one overflows early
    cap = schemes._RECORD_STEPS
    steps = [cap - 1, cap, cap + 1, 2 * cap - 1, 2 * cap, 2 * cap + 1]
    trajs = _run_batch_as_plain_runs(_dam_break(), [0.4] * 7, [*_betas_for_steps(steps, 0.3), 1.3],
                                     t_end=0.3, record_every=3)
    assert [traj.steps for traj in trajs[:-1]] == steps
    assert trajs[-1].overflow


@pytest.mark.parametrize("n", [8192, 8194])
def test_run_batch_takes_the_tv_of_long_rows_before_and_after_rows_leave(n):
    # rows of 8 191 and 8 193 differences, about numpy's 8 192-entry buffer,
    # whose every node moves; the last row's last two records are taken after
    # the others have left the batch
    rng = np.random.default_rng(n)
    initial = MeshState(Mesh(n=n, h=0.05, boundary=Boundary.OUTFLOW),
                        1.0 + 0.2 * rng.uniform(size=n), 0.1 * rng.uniform(-1.0, 1.0, n))
    trajs = _run_batch_as_plain_runs(initial, [0.4, 0.6, 0.8], _betas_for_steps([2, 3, 5], 0.02),
                                     t_end=0.02, record_every=2)
    assert [(traj.steps, len(traj.tv)) for traj in trajs] == [(2, 2), (3, 3), (5, 4)]


def _bits(v):
    return np.asarray(v, dtype=float).view(np.int64)


def test_next_window_multiplies_rho_u_only_over_its_window():
    # rows whose nodes 0..lo+1 and hi-2..n-1 are end runs, as after a step of window
    # (lo, hi) that left both runs as they were; rho_u holds sentinels outside the
    # window, which only a whole-row product would overwrite
    n, lo, hi, h = 40, 10, 30, 0.25
    rng = np.random.default_rng(4)
    rho, u = (np.concatenate([np.full((2, lo + 2), a), rng.uniform(0.5, 1.5, (2, hi - lo - 4)),
                              np.full((2, n - hi + 2), b)], axis=1)
              for a, b in ((1.0, 0.7), (0.1, -0.3)))
    rho_u = np.full((2, n), _sentinel())
    assert _next_window(rho, u, rho_u, (lo, hi), False) == (lo, hi)
    assert (_bits(rho_u[:, :lo]) == _bits(_sentinel())).all()
    assert (_bits(rho_u[:, hi:]) == _bits(_sentinel())).all()
    assert np.array_equal(_bits(rho_u[:, lo:hi]), _bits(rho * u)[:, lo:hi])
    # the step changed node lo's rho and node hi-1's u: both runs and their rho*u
    # are rewritten, and the sums of _diagnostics have whole-row bits
    rho[:, lo], u[:, hi - 1] = 1.1, -0.2
    rho_u[:, lo:hi] = _sentinel()
    _next_window(rho, u, rho_u, (lo, hi), False)
    assert np.array_equal(_bits(rho_u), _bits(rho * u))
    d = _diagnostics(np.zeros(2), rho, u, h, (lo, hi), np.empty((2, 7)), rho_u, np.empty((2, n)))
    assert _hex(d[:, 1]) == _hex(np.add.reduce(rho, axis=-1) * h)
    assert _hex(d[:, 2]) == _hex(np.add.reduce(rho * u, axis=-1) * h)


def test_run_batch_sums_keep_whole_row_bits_as_an_end_run_drifts_and_rows_leave():
    # the wide solve's drifting right run (rho 0.7, u 0.1): its far u moves by one
    # ulp, so the run's rho*u changes outside the window; three rows complete at
    # different steps and one overflows
    mesh = Mesh(n=2500, h=0.0008, x_min=-1.0, boundary=Boundary.OUTFLOW)
    initial = riemann_initial(RiemannSetup(rho_left=1.0, u_left=0.1, rho_right=0.7,
                                           u_right=0.1, x_max=1.0, h=0.0008), mesh)
    cfg = SchemeConfig(alpha=0.4, beta=0.45, alpha_s=4.0 / 3.0, c_ref=2.0176878258221596)
    rows = dict(run_batch(initial, MODEL, cfg, [0.4] * 4, [0.45, 0.3, 0.2, 3.0], t_end=0.005))
    assert [rows[r].overflow for r in range(4)] == [False, False, False, True]
    assert len({traj.steps for traj in rows.values()}) == 4
    assert any(state.u[-1] != 0.1 for _, state in rows[2].snapshots)
    for traj in rows.values():
        d = traj.diagnostics
        assert len(traj.snapshots) == len(d.t) == traj.steps + 1
        for k, (_, state) in enumerate(traj.snapshots):
            assert d.mass[k].hex() == float(np.add.reduce(state.rho) * mesh.h).hex()
            assert d.momentum[k].hex() == float(np.add.reduce(state.rho * state.u) * mesh.h).hex()


def test_run_batch_yields_under_the_callers_floating_point_settings():
    # the stepping segments between row exits silence floating-point errors, the
    # yields do not: a subnormal right velocity makes the carried rho*u underflow
    # on some steps and one row overflows, yet no warning escapes,
    # and every yield sees the caller's settings
    dam_break = _dam_break()
    initial = MeshState(dam_break.mesh, dam_break.rho,
                        np.where(dam_break.u == 0.0, 1e-310, dam_break.u))
    cfg = SchemeConfig(alpha=0.4, beta=0.3, alpha_s=4.0 / 3.0, c_ref=1.5)
    trajs = []
    with warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter("error")
        caller = np.geterr()
        for _, traj in run_batch(initial, MODEL, cfg, [0.4] * 4,
                                 [*_betas_for_steps([20, 30, 45], 0.3), 5.0], t_end=0.3):
            assert np.geterr() == caller
            trajs.append(traj)
        assert np.geterr() == caller
    assert sorted((traj.steps, traj.overflow) for traj in trajs)[1:] == [
        (20, False), (30, False), (45, False)]
    assert sum(traj.overflow for traj in trajs) == 1


@pytest.mark.parametrize("alphas,betas", [(0.4, 0.3), ([[0.4, 0.5]], [[0.3, 0.3]]),
                                          ([[0.4], [0.5]], [[0.3], [0.3]]),
                                          ([0.4, 0.5], [0.3])],
                         ids=["scalar", "row", "column", "unequal"])
def test_run_batch_rejects_malformed_grids(alphas, betas):
    state = periodic_state(n=16, h=0.1, seed=2)
    cfg = SchemeConfig(alpha=0.4, beta=0.3, alpha_s=1.0, c_ref=1.5)
    with pytest.raises(ConfigError, match="1-D grids of equal length"):
        next(run_batch(state, MODEL, cfg, alphas, betas, t_end=0.1))


def _bounded_steps(monkeypatch, limit=1000):
    """Make run_batch fail, rather than loop for ever, past limit steps."""
    calls = iter(range(limit))

    def step(*args, **kwargs):
        if next(calls, None) is None:
            raise AssertionError(f"run_batch took more than {limit} steps")
        return step_batch(*args, **kwargs)

    monkeypatch.setattr(schemes, "step_batch", step)


@pytest.mark.parametrize("beta, c_ref", [(0.45, math.inf), (1e-300, 1e300)],
                         ids=["c_ref-inf", "dt-underflows-to-zero"])
def test_run_rejects_a_zero_time_step(monkeypatch, beta, c_ref):
    _bounded_steps(monkeypatch)
    state = periodic_state(n=16, h=0.1, seed=2)
    with pytest.raises(ConfigError):
        run_simulation(state, MODEL, SchemeConfig(alpha=0.4, beta=beta, c_ref=c_ref), t_end=0.1)


def test_run_batch_narrows_the_window_as_a_wider_row_leaves(monkeypatch):
    # a 4-ulp dip in u spreads over nodes 1..7 in a step of beta 0.3 but stays on
    # nodes 2..6 in one of beta 0.1; once the first row leaves, after one step, the
    # second steps on its own narrower window
    steps = []

    def step(rho, u, *args, window, **kwargs):
        steps.append((len(rho), window, _window(rho, u)))
        return step_batch(rho, u, *args, window=window, **kwargs)

    monkeypatch.setattr(schemes, "step_batch", step)
    u = np.full(9, 0.1)
    u[4] -= 4 * (np.nextafter(0.1, 1.0) - 0.1)
    initial = MeshState(Mesh(n=9, h=0.05, boundary=Boundary.OUTFLOW), np.full(9, 0.7), u)
    cfg = SchemeConfig(alpha=0.4, beta=0.3, alpha_s=4.0 / 3.0, c_ref=1.5)
    rows = dict(run_batch(initial, MODEL, cfg, [0.4, 0.4], [0.3, 0.1], t_end=0.3 * 0.05 / 1.5))
    assert (rows[0].steps, rows[1].steps) == (1, 3)
    assert [(n, window) for n, window, _ in steps][:2] == [(2, (2, 7)), (1, (2, 7))]
    assert all(window == scan for _, window, scan in steps)


@pytest.mark.parametrize("initial", [_dam_break(), periodic_state(n=16, h=0.1, seed=2)],
                         ids=["outflow", "periodic"])
def test_run_batch_of_no_rows_yields_nothing(monkeypatch, initial):
    _bounded_steps(monkeypatch)
    cfg = SchemeConfig(alpha=0.4, beta=0.4)
    assert list(run_batch(initial, GasModel(), cfg, [], [], t_end=0.1)) == []


def test_run_batch_rejects_a_non_finite_time_step():
    state = periodic_state(n=16, h=0.1, seed=2)
    cfg = SchemeConfig(alpha=0.4, beta=0.3, alpha_s=1.0, c_ref=1.5)
    with pytest.raises(ConfigError, match="time step"):
        next(run_batch(state, MODEL, cfg, [0.4, 0.4], [0.3, math.inf], t_end=0.1))


@pytest.mark.parametrize("alphas", [[math.inf], [0.4, math.inf], [math.nan]],
                         ids=["inf", "inf-in-second-row", "nan"])
def test_run_batch_rejects_a_non_finite_alpha(alphas):
    # an infinite alpha would turn tau infinite and end its row as an overflow
    state = periodic_state(n=16, h=0.1, seed=2)
    cfg = SchemeConfig(alpha=0.4, beta=0.3, c_ref=1.0)
    with pytest.raises(ConfigError, match="alphas finite"):
        next(run_batch(state, MODEL, cfg, alphas, [0.3] * len(alphas), t_end=0.1))


def test_run_batch_rejects_a_record_interval_below_one():
    state = periodic_state(n=16, h=0.1, seed=2)
    cfg = SchemeConfig(alpha=0.4, beta=0.3, c_ref=1.0)
    with pytest.raises(ValueError, match="record_every must be >= 1"):
        next(run_batch(state, MODEL, cfg, [0.4], [0.3], t_end=0.1, record_every=0))


@pytest.mark.parametrize("t_end", [0.0, -0.1, math.nan, math.inf])
def test_run_rejects_a_non_finite_or_non_positive_t_end(t_end):
    state = periodic_state(n=16, h=0.1, seed=2)
    cfg = SchemeConfig(alpha=0.4, beta=0.3, alpha_s=1.0, c_ref=1.5)
    with pytest.raises(ConfigError, match="t_end"):
        run_simulation(state, MODEL, cfg, t_end=t_end)


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
    assert not rows[0].overflow and rows[0].steps == 3


def test_run_constant_state_round_trip():
    mesh = Mesh(n=10, h=0.1, boundary=Boundary.OUTFLOW)
    state = MeshState(mesh, np.full(10, 1.2), np.full(10, -0.3))
    cfg = SchemeConfig(alpha=0.5, beta=0.5, alpha_s=0.0, scheme=SchemeKind.ENTHALPY)
    traj = run_simulation(state, MODEL, cfg, t_end=0.123, record_every=3)
    assert not traj.overflow
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
    assert traj.overflow
    assert traj.note


def test_run_resolves_c_ref_from_initial_data():
    mesh = Mesh(n=10, h=0.1, boundary=Boundary.PERIODIC)
    state = MeshState(mesh, np.array([1.0] * 9 + [2.0]), np.zeros(10))
    cfg = SchemeConfig(alpha=0.5, beta=0.4, alpha_s=0.0)
    traj = run_simulation(state, MODEL, cfg, t_end=0.1)
    # dt = beta*h/sqrt(p'(2)) = 0.4*0.1/2
    assert traj.diagnostics.t[1] == pytest.approx(0.4 * 0.1 / 2.0, rel=1e-12)
