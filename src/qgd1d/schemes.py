"""Explicit two-level steppers for the regularized barotropic system.

Both schemes advance (rho, rho*u) with three-point symmetric fluxes built on
the half mesh.  The standard discretization differences the pressure directly;
the "enthalpy" discretization replaces pressure differences by
(s rho)*diff(h(rho)) and a matching relaxation term, which makes it weakly
conservative in energy.  Dropping every term built from d/dx(rho*u) gives the
simplified (QHD) variant of either scheme, with w = w_hat.

Half-mesh arrays hold values at x_{k-1/2}, k = 0..n.  On nodes padded with
one ghost per side, (s v)_{k-1/2} = (v_{k-1} + v_k)/2 and
(diff v)_{k-1/2} = (v_k - v_{k-1})/h; node_avg and node_diff apply the same
formulas to half-mesh arrays and land on the n nodes.  tau = alpha*h/sqrt(p'(rho))
is the relaxation time on the nodes and mu = alpha_s (s tau)(s rho) p'(s rho)
the artificial viscosity on the half mesh.

Half-mesh fluxes of the standard discretization (j the mass flux, w and
w_hat the regularizing velocities, pi the regularized stress):

    (s rho) w_hat = (s tau) [ (s rho)(s u) diff(u) + diff(p(rho)) ]
    (s rho) w     = (s tau) [ diff(rho u) ] (s u) + (s rho) w_hat
    j             = (s rho)(s u) - (s rho) w
    pi            = mu diff(u) + (s u)(s rho) w_hat + (s tau) p'(s rho) diff(rho u)

The simplified variant drops the two diff(rho u) terms.

Half-mesh fluxes of the enthalpy discretization:

    w_hat     = (s tau) [ (s u) diff(u) + diff(h(rho)) ]
    (s rho) w = T (s u) + (s rho) w_hat,   T = s(tau/h'(rho)) { diff(h(rho)) (s u) + p'(s rho) diff(u) }
    j         = (s rho)(s u) - (s rho) w
    pi        = mu diff(u) + (s u)(s rho) w_hat + p'(s rho) T

T discretizes tau * d/dx(rho u); the simplified variant sets it to zero.

One step of the standard scheme:

    rho+     = rho - dt * node_diff(j)
    (rho u)+ = rho u - dt * node_diff(j (s u) + p(s rho) - pi)

One step of the enthalpy scheme:

    rho+     = rho - dt * node_diff(j)
    (rho u)+ = rho u - dt * [ node_diff(j (s u) - pi) + node_avg((s rho) diff(h(rho))) ]

One private kernel, `_half_mesh` and the update in `step_batch`, evaluates
both schemes along the last axis of (rows, n) node arrays, so independent
runs on one mesh advance in one call.  `step_batch` is the one public step,
of one state (1-D arrays) or of a batch of rows; `run_batch` (whose one-row
case is `run_simulation`) calls it once per step on one `_Workspace` of
temporaries, and finds overflow from the per-step diagnostics it records
anyway: min_rho > 0, max(rho) < inf and a finite max|u|.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, LengthMismatch
from .gas import GasModel, _check_density
from .mesh import Boundary, Mesh, MeshState
from .regularization import SchemeConfig, SchemeKind, Variant


def _pad(v: np.ndarray, boundary: Boundary, out: np.ndarray) -> np.ndarray:
    """v with one ghost node on each end of its last axis, into out."""
    if boundary is Boundary.PERIODIC:
        return np.concatenate((v[..., -1:], v, v[..., :1]), axis=-1, out=out)
    return np.concatenate((v[..., :1], v, v[..., -1:]), axis=-1, out=out)


def _avg(v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """s on padded node arrays, node_avg on half-mesh arrays, into out."""
    return np.multiply(np.add(v[..., :-1], v[..., 1:], out=out), 0.5, out=out)


def _diff(v: np.ndarray, h: float, out: np.ndarray) -> np.ndarray:
    """diff on padded node arrays, node_diff on half-mesh arrays, into out."""
    return np.divide(np.subtract(v[..., 1:], v[..., :-1], out=out), h, out=out)


class _Workspace:
    """The kernel's temporaries for node arrays of shape (..., n): 5 padded
    (n + 2), 12 half-mesh (n + 1) and 2 node arrays.  Arrays with fewer
    leading rows get leading-row views; any other shape re-sizes it.  The
    kernel writes every buffer before reading it, so nothing carries over."""

    def __init__(self, shape: tuple[int, ...]):
        *lead, n = self.shape = tuple(shape)
        self._buffers = [np.empty((k, *lead, n + g)) for k, g in ((5, 2), (12, 1), (2, 0))]

    def views(self, shape: tuple[int, ...]) -> list[np.ndarray]:
        """The padded, half-mesh and node buffers for node arrays of shape."""
        if not (len(shape) == len(self.shape) and shape[-1] == self.shape[-1]
                and all(k <= cap for k, cap in zip(shape[:-1], self.shape[:-1]))):
            self.__init__(shape)
        rows = (slice(None),) + tuple(slice(k) for k in shape[:-1])
        return [b[rows] for b in self._buffers]


def _half_mesh(rho: np.ndarray, u: np.ndarray, model: GasModel, cfg: SchemeConfig,
               mesh: Mesh, alpha, padded, half):
    """Half-mesh terms of cfg.scheme along the last axis of rho and u, by the
    flux formulas of the module docstring, in the padded and half-mesh
    buffers of a _Workspace; rho must be positive.  Each product and sum
    keeps the operand grouping of those formulas (operands of one product
    or sum may swap), so results do not depend on the buffers.

    Returns (j, pi, (s rho) w, (s rho) w_hat, s rho, s u, extra), where extra
    is what the momentum update adds beyond the fluxes: p(s rho) for the
    standard scheme and diff(h(rho)) for the enthalpy scheme.
    """
    h = mesh.h
    rho_p, u_p, q, tau, hp = padded
    srho, su, du, stau, pp_half, pi, j, srho_what, srho_w, x, y, dq = half
    _pad(rho, mesh.boundary, rho_p)
    _pad(u, mesh.boundary, u_p)
    _avg(rho_p, srho)
    _avg(u_p, su)
    _diff(u_p, h, du)
    standard = cfg.scheme is SchemeKind.STANDARD
    full = cfg.regularization is Variant.FULL_QGD
    # q is p(rho) for the standard scheme, h(rho) for the enthalpy scheme
    if standard:
        model._evaluate(rho_p, p=q, dp=tau)
    else:
        model._evaluate(rho_p, dp=tau, h=q, hp=hp if full else None)
    np.divide(alpha * h, np.sqrt(tau, out=tau), out=tau)
    _avg(tau, stau)
    model._evaluate(srho, p=y if standard else None, dp=pp_half)
    np.multiply(stau, cfg.alpha_s, out=pi)       # mu_half, then pi
    pi *= srho
    pi *= pp_half
    # (s rho) w_hat = (s tau) [(s rho)(s u) diff(u) + diff(p)], standard, or
    # (s rho) (s tau) [(s u) diff(u) + diff(h)], enthalpy; j starts as (s rho)(s u)
    np.multiply(srho, su, out=j)
    np.multiply(j if standard else su, du, out=srho_what)
    srho_what += _diff(q, h, dq)
    srho_what *= stau
    if not standard:
        srho_what *= srho
    pi *= du
    pi += np.multiply(su, srho_what, out=x)
    if full and standard:                        # the diff(rho u) terms
        drhou = _diff(np.multiply(rho_p, u_p, out=q), h, dq)
        np.multiply(np.multiply(stau, drhou, out=srho_w), su, out=srho_w)
        srho_w += srho_what
        pi += np.multiply(np.multiply(stau, pp_half, out=x), drhou, out=x)
    elif full:                                   # the T terms
        t_half = _avg(np.divide(tau, hp, out=hp), y)
        t_half *= np.add(np.multiply(dq, su, out=x), np.multiply(pp_half, du, out=srho_w), out=x)
        pi += np.multiply(pp_half, t_half, out=x)
        np.add(np.multiply(t_half, su, out=srho_w), srho_what, out=srho_w)
    else:
        srho_w = srho_what
    j -= srho_w
    return j, pi, srho_w, srho_what, srho, su, y if standard else dq


def step_batch(rho: np.ndarray, u: np.ndarray, model: GasModel, cfg: SchemeConfig,
               mesh: Mesh, alpha, dt, *, work: _Workspace | None = None
               ) -> tuple[np.ndarray, np.ndarray]:
    """One step of cfg.scheme, by the updates of the module docstring, for the
    node arrays rho and u: one state (shape (n,)) or independent runs on one
    mesh (the rows of shape (rows, n)).

    alpha and dt take the place of cfg.alpha and cfg's time step; each is a
    scalar or a (rows, 1) column with one value per row.  Returns the new
    (rho, u) as fresh arrays without checking them: a row whose density
    turned non-positive or a value non-finite has overflowed, and numpy
    raises no warning for it.  A non-positive input density raises
    NonPositiveDensity.  work lends the kernel its temporaries (run_batch
    keeps one per batch); it never changes a result.
    """
    if rho.shape[-1] != mesh.n or np.shape(u) != rho.shape:
        raise LengthMismatch(f"expected rho and u of equal shape with last axis {mesh.n}, "
                             f"got {rho.shape} and {np.shape(u)}")
    _check_density(rho)
    padded, half, (a, b) = (work or _Workspace(rho.shape)).views(rho.shape)
    with np.errstate(all="ignore"):
        j, pi, _, _, srho, su, extra = _half_mesh(rho, u, model, cfg, mesh, alpha, padded, half)
        h = mesh.h
        rho_new = rho - np.multiply(_diff(j, h, a), dt, out=a)
        j *= su                                  # the momentum flux; j is not read again
        if cfg.scheme is SchemeKind.STANDARD:
            j += extra
        j -= pi
        _diff(j, h, b)
        if cfg.scheme is SchemeKind.ENTHALPY:
            extra *= srho
            b += _avg(extra, a)
        b *= dt
        np.multiply(rho, u, out=a)
        a -= b
        return rho_new, a / rho_new


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


def _diagnostics(t: np.ndarray, rho: np.ndarray, u: np.ndarray, h: float,
                 scratch: np.ndarray) -> np.ndarray:
    """Columns t, mass, momentum, min_rho, max_abs_u and max(rho) per row, the
    last for the overflow test only; the products go into scratch (rho's shape)."""
    with np.errstate(all="ignore"):
        return np.stack((t, h * np.sum(rho, axis=-1),
                         h * np.sum(np.multiply(rho, u, out=scratch), axis=-1),
                         np.min(rho, axis=-1), np.max(np.abs(u, out=scratch), axis=-1),
                         np.max(rho, axis=-1)), axis=-1)


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
    if (alphas.ndim != 1 or alphas.shape != betas.shape
            or not (np.all(alphas > 0.0) and np.all(betas > 0.0))):
        raise ConfigError("alphas and betas must be 1-D grids of equal length and > 0")
    cfg = cfg.resolve_c_ref(model, initial.rho)
    mesh = initial.mesh
    dts = betas * mesh.h / cfg.c_ref
    alphas = alphas[:, None]

    live = np.arange(alphas.shape[0])
    rho = np.tile(initial.rho, (live.size, 1))
    u = np.tile(initial.u, (live.size, 1))
    t = np.full(live.size, initial.t)
    work, scratch = _Workspace(rho.shape), np.empty_like(rho)
    diag = [[row] for row in _diagnostics(t, rho, u, mesh.h, scratch)[:, :5].tolist()]
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
        rho, u = step_batch(rho, u, model, cfg, mesh, alphas[live], step_dt[:, None], work=work)
        t = t + step_dt
        d = _diagnostics(t, rho, u, mesh.h, scratch[:live.size])
        # every density positive and every value finite; NaN fails min_rho > 0
        ok = (d[:, 3] > 0.0) & (d[:, 5] < np.inf) & np.isfinite(d[:, 4])
        for k in np.flatnonzero(~ok):
            note = (f"density became non-positive at t={float(t[k])}" if d[k, 3] <= 0.0
                    else f"non-finite value at t={float(t[k])}")
            yield finish(k, overflow=True, note=note)
        if not ok.all():
            live, rho, u, t, d = live[ok], rho[ok], u[ok], t[ok], d[ok]
        steps += 1
        for r, row in zip(live.tolist(), d[:, :5].tolist()):
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
