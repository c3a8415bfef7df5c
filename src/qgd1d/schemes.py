"""Explicit two-level steppers for the regularized barotropic system.

Both schemes advance (rho, rho*u) with three-point symmetric fluxes built on
the half mesh.  The standard discretization differences the pressure directly;
the "enthalpy" discretization replaces pressure differences by
(s rho)*diff(h(rho)) and a matching relaxation term, which makes it weakly
conservative in energy.  Dropping every term built from d/dx(rho*u) gives the
simplified (QHD) variant of either scheme, with w = w_hat.

One private kernel evaluates both schemes along the last axis of (rows, n)
node arrays, so independent runs on one mesh advance in one call: it backs
`step_batch`, the batched run loop `run_batch` (whose one-row case is
`run_simulation`) and the single-state `step_standard`/`step_enthalpy`.

Half-mesh arrays hold values at x_{k-1/2}, k = 0..n.  On nodes padded with
one ghost per side, (s v)_{k-1/2} = (v_{k-1} + v_k)/2 and
(diff v)_{k-1/2} = (v_k - v_{k-1})/h; node_avg and node_diff apply the same
formulas to half-mesh arrays and land on the n nodes.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, LengthMismatch, NonPositiveDensity
from .gas import GasModel
from .mesh import Boundary, Mesh, MeshState
from .regularization import SchemeConfig, SchemeKind, Variant


@dataclass(frozen=True)
class HalfMeshFluxes:
    """Regularized fluxes on the half mesh (length n+1 arrays).

    j is the mass flux, w and w_hat the regularizing velocities and pi the
    regularized stress.  Under the simplified variant w equals w_hat exactly.
    """

    j: np.ndarray
    w: np.ndarray
    w_hat: np.ndarray
    pi: np.ndarray


def _pad(v: np.ndarray, boundary: Boundary) -> np.ndarray:
    """v with one ghost node on each end of its last axis."""
    if boundary is Boundary.PERIODIC:
        return np.concatenate((v[..., -1:], v, v[..., :1]), axis=-1)
    return np.concatenate((v[..., :1], v, v[..., -1:]), axis=-1)


def _avg(v: np.ndarray) -> np.ndarray:
    """s on padded node arrays, node_avg on half-mesh arrays."""
    return 0.5 * (v[..., :-1] + v[..., 1:])


def _diff(v: np.ndarray, h: float) -> np.ndarray:
    """diff on padded node arrays, node_diff on half-mesh arrays."""
    return (v[..., 1:] - v[..., :-1]) / h


def _half_mesh(kind: SchemeKind, rho: np.ndarray, u: np.ndarray, model: GasModel,
               cfg: SchemeConfig, mesh: Mesh, alpha):
    """Half-mesh terms of one scheme along the last axis of rho and u, by
    the formulas of fluxes_standard / fluxes_enthalpy.

    Returns (j, pi, (s rho) w, (s rho) w_hat, s rho, s u, extra), where extra
    is what the momentum update adds beyond the fluxes: p(s rho) for the
    standard scheme and diff(h(rho)) for the enthalpy scheme.
    """
    h = mesh.h
    rho_p, u_p = _pad(rho, mesh.boundary), _pad(u, mesh.boundary)
    srho, su, du = _avg(rho_p), _avg(u_p), _diff(u_p, h)
    p, dp = model.pressure(rho_p)
    tau = alpha * h / np.sqrt(dp)
    stau = _avg(tau)
    p_half, pp_half = model.pressure(srho)
    mu_half = cfg.alpha_s * stau * srho * pp_half
    full = cfg.regularization is Variant.FULL_QGD
    if kind is SchemeKind.STANDARD:
        srho_what = stau * (srho * su * du + _diff(p, h))
        pi = mu_half * du + su * srho_what
        srho_w = srho_what
        if full:
            drhou = _diff(rho_p * u_p, h)
            srho_w = stau * drhou * su + srho_what
            pi = pi + stau * pp_half * drhou
        extra = p_half
    else:
        h_p, hp_p = model.enthalpy(rho_p)
        dh = _diff(h_p, h)
        srho_what = srho * (stau * (su * du + dh))
        pi = mu_half * du + su * srho_what
        srho_w = srho_what
        if full:
            t_half = _avg(tau / hp_p) * (dh * su + pp_half * du)
            pi = pi + pp_half * t_half
            srho_w = t_half * su + srho_what
        extra = dh
    return srho * su - srho_w, pi, srho_w, srho_what, srho, su, extra


def _fluxes(kind: SchemeKind, state: MeshState, model: GasModel, cfg: SchemeConfig) -> HalfMeshFluxes:
    j, pi, srho_w, srho_what, srho, _, _ = _half_mesh(kind, state.rho, state.u, model, cfg,
                                                      state.mesh, cfg.alpha)
    return HalfMeshFluxes(j=j, w=srho_w / srho, w_hat=srho_what / srho, pi=pi)


def fluxes_standard(state: MeshState, model: GasModel, cfg: SchemeConfig) -> HalfMeshFluxes:
    """Half-mesh fluxes of the standard discretization.

        (s rho) w_hat = (s tau) [ (s rho)(s u) diff(u) + diff(p(rho)) ]
        (s rho) w     = (s tau) [ diff(rho u) ] (s u) + (s rho) w_hat
        j             = (s rho)(s u) - (s rho) w
        pi            = mu diff(u) + (s u)(s rho) w_hat + (s tau) p'(s rho) diff(rho u)

    The simplified variant drops the two diff(rho u) terms.
    """
    return _fluxes(SchemeKind.STANDARD, state, model, cfg)


def fluxes_enthalpy(state: MeshState, model: GasModel, cfg: SchemeConfig) -> HalfMeshFluxes:
    """Half-mesh fluxes of the enthalpy discretization.

        w_hat     = (s tau) [ (s u) diff(u) + diff(h(rho)) ]
        (s rho) w = T (s u) + (s rho) w_hat,   T = s(tau/h'(rho)) { diff(h(rho)) (s u) + p'(s rho) diff(u) }
        j         = (s rho)(s u) - (s rho) w
        pi        = mu diff(u) + (s u)(s rho) w_hat + p'(s rho) T

    T discretizes tau * d/dx(rho u); the simplified variant sets it to zero.
    """
    return _fluxes(SchemeKind.ENTHALPY, state, model, cfg)


def _step_rows(kind: SchemeKind, rho: np.ndarray, u: np.ndarray, model: GasModel,
               cfg: SchemeConfig, mesh: Mesh, alpha, dt):
    """The stepping kernel: new (rho, u) along the last axis, unchecked, by
    the updates of step_standard / step_enthalpy.

    numpy stays silent while a row overflows: callers detect it by checking
    the density and finiteness of each row.
    """
    with np.errstate(all="ignore"):
        j, pi, _, _, srho, su, extra = _half_mesh(kind, rho, u, model, cfg, mesh, alpha)
        h = mesh.h
        rho_new = rho - dt * _diff(j, h)
        if kind is SchemeKind.STANDARD:
            m_new = rho * u - dt * _diff(j * su + extra - pi, h)
        else:
            m_new = rho * u - dt * (_diff(j * su - pi, h) + _avg(srho * extra))
        return rho_new, m_new / rho_new


def step_batch(rho: np.ndarray, u: np.ndarray, model: GasModel, cfg: SchemeConfig,
               mesh: Mesh, alpha, dt) -> tuple[np.ndarray, np.ndarray]:
    """One step of cfg.scheme for every row of the (rows, n) node arrays rho, u.

    Rows are independent runs on one mesh.  alpha and dt take the place of
    cfg.alpha and cfg's time step; each is a scalar or a (rows, 1) column
    with one value per row.  Returns the new (rho, u) without checking them:
    a row whose density turned non-positive or a value non-finite has
    overflowed, and numpy raises no warning for it.
    """
    if rho.shape[-1] != mesh.n or np.shape(u) != rho.shape:
        raise LengthMismatch(f"expected rho and u of equal shape with last axis {mesh.n}, "
                             f"got {rho.shape} and {np.shape(u)}")
    return _step_rows(cfg.scheme, rho, u, model, cfg, mesh, alpha, dt)


def _step_state(kind: SchemeKind, state: MeshState, model: GasModel, cfg: SchemeConfig,
                dt: float | None) -> MeshState:
    if dt is None:
        dt = cfg.time_step(state.mesh.h)
    rho, u = _step_rows(kind, state.rho, state.u, model, cfg, state.mesh, cfg.alpha, dt)
    if not np.all(rho > 0.0):
        raise NonPositiveDensity(f"density became non-positive at t={state.t + dt}")
    return MeshState(state.mesh, rho, u, state.t + dt)


def step_standard(state: MeshState, model: GasModel, cfg: SchemeConfig,
                  dt: float | None = None) -> MeshState:
    """One step of the standard scheme:

        rho+    = rho - dt * node_diff(j)
        (rho u)+ = rho u - dt * node_diff(j (s u) + p(s rho) - pi)
    """
    return _step_state(SchemeKind.STANDARD, state, model, cfg, dt)


def step_enthalpy(state: MeshState, model: GasModel, cfg: SchemeConfig,
                  dt: float | None = None) -> MeshState:
    """One step of the enthalpy scheme:

        rho+    = rho - dt * node_diff(j)
        (rho u)+ = rho u - dt * [ node_diff(j (s u) - pi) + node_avg((s rho) diff(h(rho))) ]
    """
    return _step_state(SchemeKind.ENTHALPY, state, model, cfg, dt)


_STEPPERS = {SchemeKind.STANDARD: step_standard, SchemeKind.ENTHALPY: step_enthalpy}


def make_stepper(cfg: SchemeConfig):
    return _STEPPERS[cfg.scheme]


@dataclass
class Diagnostics:
    """Per-step scalar records, initial state included (length = steps + 1)."""

    t: np.ndarray
    mass: np.ndarray
    momentum: np.ndarray
    min_rho: np.ndarray
    max_abs_u: np.ndarray


@dataclass
class Trajectory:
    """Snapshots plus per-step diagnostics of one simulation run."""

    snapshots: list[tuple[float, MeshState]]
    diagnostics: Diagnostics
    completed: bool
    overflow: bool
    steps: int
    note: str = ""


def _diag_rows(t: np.ndarray, rho: np.ndarray, u: np.ndarray, h: float) -> list:
    """One (t, mass, momentum, min_rho, max_abs_u) list per row."""
    return np.stack((
        t,
        h * np.sum(rho, axis=-1),
        h * np.sum(rho * u, axis=-1),
        np.min(rho, axis=-1),
        np.max(np.abs(u), axis=-1),
    ), axis=-1).tolist()


def run_batch(initial: MeshState, model: GasModel, cfg: SchemeConfig, alphas, betas,
              t_end: float, record_every: int = 1) -> Iterator[tuple[int, Trajectory]]:
    """Advance one copy of `initial` per (alpha, beta) pair to t_end as one batch.

    cfg fixes the scheme, variant, alpha_s and c_ref (resolved from the
    initial density when unset); row r runs with alphas[r] and the time step
    betas[r]*h/c_ref.  Yields (r, Trajectory) as each row leaves the batch:
    the step after it reaches t_end, its last step clipped to land there, or
    at the step that overflows it.  Trajectories are those run_simulation
    gives for the same parameters.
    """
    if t_end <= 0.0:
        raise ValueError("t_end must be > 0")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    alphas, betas = np.asarray(alphas, dtype=float), np.asarray(betas, dtype=float)
    if alphas.shape != betas.shape or not (np.all(alphas > 0.0) and np.all(betas > 0.0)):
        raise ConfigError("alphas and betas must be of equal length and > 0")
    cfg = cfg.resolve_c_ref(model, initial.rho)
    mesh = initial.mesh
    dts = betas * mesh.h / cfg.c_ref
    alphas = alphas[:, None]

    live = np.arange(alphas.shape[0])
    rho = np.tile(initial.rho, (live.size, 1))
    u = np.tile(initial.u, (live.size, 1))
    t = np.full(live.size, initial.t)
    diag = [[row] for row in _diag_rows(t, rho, u, mesh.h)]
    snapshots = [[(initial.t, initial)] for _ in live]
    steps = 0
    eps = 1e-12 * max(1.0, abs(t_end))

    def finish(k: int, overflow: bool, note: str = "") -> tuple[int, Trajectory]:
        r = int(live[k])
        if not overflow and snapshots[r][-1][0] < t[k]:
            snapshots[r].append((float(t[k]), MeshState(mesh, rho[k], u[k], float(t[k]))))
        diagnostics = Diagnostics(*(np.asarray(c, dtype=float) for c in zip(*diag[r])))
        traj = Trajectory(snapshots[r], diagnostics, completed=not overflow, overflow=overflow,
                          steps=steps, note=note)
        diag[r] = snapshots[r] = None
        return r, traj

    while True:
        running = t < t_end - eps
        for k in np.flatnonzero(~running):
            yield finish(k, overflow=False)
        if not running.all():
            live, rho, u, t = live[running], rho[running], u[running], t[running]
        if not live.size:
            return
        step_dt = np.minimum(dts[live], t_end - t)
        rho, u = step_batch(rho, u, model, cfg, mesh, alphas[live], step_dt[:, None])
        t = t + step_dt
        positive = np.all(rho > 0.0, axis=-1)
        ok = positive & np.all(np.isfinite(rho), axis=-1) & np.all(np.isfinite(u), axis=-1)
        for k in np.flatnonzero(~ok):
            note = (f"density became non-positive at t={float(t[k])}" if not positive[k]
                    else f"non-finite value at t={float(t[k])}")
            yield finish(k, overflow=True, note=note)
        if not ok.all():
            live, rho, u, t = live[ok], rho[ok], u[ok], t[ok]
        steps += 1
        for r, row in zip(live.tolist(), _diag_rows(t, rho, u, mesh.h)):
            diag[r].append(row)
        if steps % record_every == 0:
            for k, r in enumerate(live.tolist()):
                tk = float(t[k])
                snapshots[r].append((tk, MeshState(mesh, rho[k], u[k], tk)))


def run_simulation(initial: MeshState, model: GasModel, cfg: SchemeConfig,
                   t_end: float, record_every: int = 1) -> Trajectory:
    """Advance the configured stepper to t_end, recording diagnostics.

    Diagnostics are taken every step, snapshots every record_every steps
    (plus the initial and final states).  A non-finite value or loss of
    density positivity ends the run early with the overflow flag set
    instead of raising, so parameter sweeps can classify failures.
    """
    [(_, traj)] = run_batch(initial, model, cfg, [cfg.alpha], [cfg.beta], t_end, record_every)
    return traj
