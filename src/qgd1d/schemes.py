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

One private kernel, `_half_mesh` and `_update`, evaluates both schemes
along the last axis of (rows, n) node arrays, over the old state: the schemes
are explicit and two-level, and the kernel reads the old state only through
the padded copies it takes first.  It is three-point and has no reductions, so
nodes whose (rho, u) and neighbours' are equal bit for bit step to equal bits.
`step_batch`, the one public step (of one state or a batch of rows), steps every
node, or in place the window it is given.  So on an outflow mesh `run_batch`
(whose one-row case is `run_simulation`) steps only the nodes between the uniform
runs at both ends of every row and one node of each run.  After each step
`_next_window` writes those two nodes over the runs where their bits change, keeps
each row's rho*u, and walks the edges inward from the window's ends to the next
window, which a `_window` scan of every edge seeds once per batch.  Both compare
bits, since values would join -0.0 and 0.0.  A periodic wrap joins the two runs,
so there the window is every node.  The kernel's temporaries are flat runs of
their rows at a pitch of w + 2 (see `_Workspace`, one per batch), so that each
pass is one 1-D ufunc call, over two adjacent runs where both take it.  Whole
rows are read only by the mass and momentum sums of run_batch's per-step
diagnostics, which a verdict-only run skips, and by the TV(rho) of the states
it records; overflow is found from the diagnostics: min_rho > 0, max_rho < inf,
finite max_abs_u.  It ignores floating-point errors between two row exits.
"""

from __future__ import annotations

import math
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
    """s on padded node arrays, node_avg on half-mesh arrays, into out[:-1]."""
    o = out[:-1]
    np.multiply(np.add(v[:-1], v[1:], out=o), 0.5, out=o)
    return out


def _diff(v: np.ndarray, h: float, out: np.ndarray) -> np.ndarray:
    """diff on padded node arrays, node_diff on half-mesh arrays, into out[:-1]."""
    o = out[:-1]
    np.divide(np.subtract(v[1:], v[:-1], out=o), h, out=o)
    return out


class _Workspace:
    """Kernel temporaries for node arrays (..., w): 5 padded, 12 half-mesh and 2 node
    arrays, each a flat run of its rows at a pitch of w + 2 (value k of row r at
    r*(w + 2) + k) in one zeroed block that grows (at least doubling) as needed.
    Entries past a row's values, and each run's last, are never read into a
    result.  The views of the last shape asked for are kept."""

    def __init__(self):
        self._block, self._shape, self._views = np.zeros(0), None, []

    def views(self, shape: tuple[int, ...]) -> tuple:
        """The padded, half-mesh and node runs for node arrays of shape, all 19 runs as
        one (19, ..., w + 2) array of their rows, and the pairs (rho_p, u_p), (s rho, s u),
        (j, (s rho) w_hat) and (a, b) each as one flat span, for one pass over both."""
        if shape != self._shape:
            *lead, w = shape
            size = math.prod(lead) * (w + 2)
            if self._block.size < 19 * size:
                self._block = np.zeros(max(19 * size, 2 * self._block.size))
            grid = self._block[:19 * size].reshape(19, *lead, w + 2)
            runs = list(grid.reshape(19, size))
            spans = [self._block[k * size:(k + 2) * size] for k in (0, 5, 11, 17)]
            self._shape, self._views = shape, (runs[:5], runs[5:17], runs[17:], grid, spans)
        return self._views


def _half_mesh(rho: np.ndarray, u: np.ndarray, model: GasModel, cfg: SchemeConfig,
               mesh: Mesh, alpha, views):
    """Half-mesh terms of cfg.scheme along the last axis of rho and u, by the
    flux formulas of the module docstring, in the padded and half-mesh runs
    of _Workspace.views; rho must be positive.  Each product and sum
    keeps the operand grouping of those formulas (operands of one product
    or sum may swap), so results do not depend on the buffers.

    Returns the flat runs (j, pi, (s rho) w, (s rho) w_hat, s rho, s u, extra),
    where extra is what the momentum update adds beyond the fluxes: p(s rho) for
    the standard scheme and diff(h(rho)) for the enthalpy scheme.
    """
    h, (padded, half, _, grid, spans) = mesh.h, views
    rho_p, u_p, q, tau, hp = padded
    srho, su, du, stau, pp_half, pi, j, srho_what, srho_w, x, y, dq = half
    _pad(rho, mesh.boundary, grid[0])
    _pad(u, mesh.boundary, grid[1])
    _avg(spans[0], spans[1])                     # s rho and s u
    _diff(u_p, h, du)
    standard = cfg.scheme is SchemeKind.STANDARD
    full = cfg.regularization is Variant.FULL_QGD
    # q is p(rho) for the standard scheme, h(rho) for the enthalpy scheme
    if standard:
        model._evaluate(rho_p, p=q, dp=tau)
    else:
        model._evaluate(rho_p, dp=tau, h=q, hp=hp if full else None)
    np.divide(alpha * h, np.sqrt(grid[3], out=grid[3]), out=grid[3])   # alpha (rows, 1) or scalar
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


def _update(rho: np.ndarray, u: np.ndarray, model: GasModel, cfg: SchemeConfig, mesh: Mesh,
            alpha, dt, work: _Workspace) -> None:
    """The update of the module docstring, ghosts at rho's and u's own ends, written
    over rho and u: past _pad the old state is read only through its padded copies."""
    (rho_p, u_p, q, _, _), half, (a, b), grid, spans = views = work.views(rho.shape)
    w, standard = rho.shape[-1], cfg.scheme is SchemeKind.STANDARD
    with np.errstate(all="ignore"):
        j, pi, _, _, srho, su, extra = _half_mesh(rho, u, model, cfg, mesh, alpha, views)
        flux = np.multiply(j, su, out=half[7])   # the momentum flux, in the free run after j
        if standard:
            flux += extra
        flux -= pi
        _diff(spans[2], mesh.h, spans[3])        # node_diff of j into a, of the flux into b
        if not standard:
            extra *= srho
            b += _avg(extra, pi)                 # pi is free past the flux
        grid[17:] *= dt
        np.subtract(grid[0][..., 1:-1], grid[17][..., :w], out=rho)
        if not (standard and cfg.regularization is Variant.FULL_QGD):   # else q holds it
            np.multiply(rho_p, u_p, out=q)       # rho u at the padded nodes
        np.subtract(q[1:-1], b[:-2], out=a[:-2])
        np.divide(grid[17][..., :w], rho, out=u)


def _window(rho: np.ndarray, u: np.ndarray) -> tuple[int, int]:
    """The outflow nodes [lo, hi) to step: from the node before the first edge
    (node pair) across which some row changes to two past the last edge; all n
    if none does."""
    n = rho.shape[-1]
    r, v = rho.reshape(-1, n).view(np.int64), u.reshape(-1, n).view(np.int64)
    moves = ((r[:, 1:] != r[:, :-1]) | (v[:, 1:] != v[:, :-1])).any(axis=0)
    if not moves.any():
        return 0, n
    return max(int(moves.argmax()) - 1, 0), min(n + 1 - int(moves[::-1].argmax()), n)


def step_batch(rho: np.ndarray, u: np.ndarray, model: GasModel, cfg: SchemeConfig,
               mesh: Mesh, alpha, dt, *, work: _Workspace | None = None,
               window: tuple[int, int] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """One step of cfg.scheme, by the updates of the module docstring, for the
    node arrays rho and u: one state (shape (n,)) or independent runs on one
    mesh (the rows of shape (rows, n)).

    alpha and dt take the place of cfg.alpha and cfg's time step; each is a
    scalar or a (rows, 1) column with one value per row.  Returns the new
    (rho, u) without checking them: a row whose density turned non-positive or
    a value non-finite has overflowed, and numpy raises no warning for it.  A
    non-positive input density raises NonPositiveDensity.  The result goes into
    fresh arrays, or with window = (lo, hi) into nodes lo..hi-1 of rho and u only,
    which must be writeable float arrays (np.asarray returns them as they are) that
    share no memory; the caller guarantees that in every row nodes 0..lo+1 are equal
    bit for bit, and so are nodes hi-2..n-1 (only 0 <= lo < hi <= n is checked, and
    a periodic mesh takes only (0, n)), and _next_window completes the end runs.
    work lends the kernel its temporaries (run_batch keeps one per batch); it
    never changes a result.
    """
    n = mesh.n
    if window is None:                           # a fresh step of every node
        rho, u, window = np.array(rho, dtype=float), np.array(u, dtype=float), (0, n)
    elif (any(np.asarray(v, dtype=float) is not v or not v.flags.writeable for v in (rho, u))
          or np.may_share_memory(rho, u)):
        raise ValueError("a window needs writeable float arrays rho and u that share no memory")
    if rho.shape[-1] != n or u.shape != rho.shape:
        raise LengthMismatch(f"expected rho and u of equal shape with last axis {n}, "
                             f"got {rho.shape} and {u.shape}")
    lo, hi = window
    if not 0 <= lo < hi <= n or mesh.boundary is Boundary.PERIODIC and (lo, hi) != (0, n):
        raise ValueError(f"window {window}: need 0 <= lo < hi <= {n}, and (0, {n}) if periodic")
    _check_density(rho[..., lo:hi])
    _update(rho[..., lo:hi], u[..., lo:hi], model, cfg, mesh, alpha, dt, work or _Workspace())
    return rho, u


def _next_window(rho: np.ndarray, u: np.ndarray, rho_u: np.ndarray | None,
                 window: tuple[int, int], periodic: bool) -> tuple[int, int]:
    """Complete a step_batch of window (lo, hi) on (rows, n) arrays; returns the next window.
    Nodes lo and hi-1 go over the end runs where their bits changed, in rho_u too (if given)
    with rho*u over the window, so nodes 0..lo and hi-1..n-1 are equal; then the walk from
    edge lo and edge hi - 2 inward to the first edge (node pair) across which some row
    changes finds _window of the rows or of any subset.  A periodic mesh keeps its window."""
    (lo, hi), n = window, rho.shape[-1]
    r, v = rho.T, u.T                            # r[k] is node k of every row

    def moves(e: int) -> bool:
        return r[e].tobytes() != r[e + 1].tobytes() or v[e].tobytes() != v[e + 1].tobytes()

    if rho_u is not None:
        np.multiply(rho[:, lo:hi], u[:, lo:hi], out=rho_u[:, lo:hi])
    carried = [a for a in (rho, u, rho_u) if a is not None]
    if lo and moves(lo - 1):
        for a in carried:
            a[:, :lo] = a[:, lo:lo + 1]
    if hi < n and moves(hi - 1):
        for a in carried:
            a[:, hi:] = a[:, hi - 1:hi]
    if periodic:
        return window
    first, last = lo, hi - 2
    while first <= last and not moves(first):
        first += 1
    if first > last:
        return 0, n
    while not moves(last):
        last -= 1
    return max(first - 1, 0), min(last + 3, n)


@dataclass
class Diagnostics:
    """Per-step scalar records, initial state included (length = steps + 1).
    A verdict-only run (see run_batch) takes no mass or momentum: they are None."""

    t: np.ndarray
    mass: np.ndarray | None
    momentum: np.ndarray | None
    min_rho: np.ndarray
    max_abs_u: np.ndarray
    max_rho: np.ndarray


@dataclass
class Trajectory:
    """Snapshots plus per-step diagnostics of one simulation run, and the TV(rho)
    of each snapshot state.  A verdict-only run (see run_batch) keeps no
    snapshots: they are None."""

    snapshots: list[tuple[float, MeshState]] | None
    diagnostics: Diagnostics
    overflow: bool
    steps: int
    tv: np.ndarray
    note: str = ""


def _diagnostics(t: np.ndarray, rho: np.ndarray, u: np.ndarray, h: float, window: tuple[int, int],
                 out: np.ndarray, rho_u: np.ndarray | None, abs_u: np.ndarray,
                 diffs=None) -> np.ndarray:
    """The Diagnostics columns per row, into out (rows, 7), with |u| in abs_u; the extrema
    are over the nodes [lo, hi) = window, which must hold all values of the rows.  With
    rho_u (rho*u), the whole-row mass and momentum sums; with diffs to hold the differences,
    each row's TV(rho), with the bits of np.sum(np.abs(np.diff(row))), in out[:, 6]."""
    lo, hi = window
    out[:, 0] = t
    if diffs is not None:
        np.abs(np.subtract(rho[:, 1:], rho[:, :-1], out=diffs), out=diffs)
        np.add.reduce(diffs, axis=-1, out=out[:, 6])
    if rho_u is not None:
        np.add.reduce(rho, axis=-1, out=out[:, 1])
        np.add.reduce(rho_u, axis=-1, out=out[:, 2])
        out[:, 1:3] *= h
    np.minimum.reduce(rho[:, lo:hi], axis=-1, out=out[:, 3])
    np.maximum.reduce(np.abs(u[:, lo:hi], out=abs_u[:, lo:hi]), axis=-1, out=out[:, 4])
    np.maximum.reduce(rho[:, lo:hi], axis=-1, out=out[:, 5])
    return out


_RECORD_STEPS = 64     # first length of run_batch's per-step record, which doubles when full


def run_batch(initial: MeshState, model: GasModel, cfg: SchemeConfig, alphas, betas,
              t_end: float, record_every: int = 1, *,
              verdict_only: bool = False) -> Iterator[tuple[int, Trajectory]]:
    """Advance one copy of `initial` per (alpha, beta) pair to t_end as one batch.

    cfg fixes the scheme, variant, alpha_s and c_ref (resolved from the
    initial density when unset); row r runs with alphas[r] and the time step
    betas[r]*h/c_ref.  Yields (r, Trajectory) as each row leaves the batch:
    the step after it reaches t_end, its last step clipped to land there, or
    at the step that overflows it.  Trajectories are those run_simulation
    gives for the same parameters, but with verdict_only their snapshots,
    mass and momentum are None and never computed.  A t_end or a time step
    that is not finite and > 0 raises ConfigError, since the run could not end.
    """
    if not 0.0 < t_end < np.inf:
        raise ConfigError("t_end must be finite and > 0")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    alphas, betas = np.asarray(alphas, dtype=float), np.asarray(betas, dtype=float)
    if (alphas.ndim != 1 or alphas.shape != betas.shape
            or not (np.all((alphas > 0.0) & (alphas < np.inf)) and np.all(betas > 0.0))):
        raise ConfigError("alphas and betas must be 1-D grids of equal length and > 0, alphas finite")
    cfg = cfg.resolve_c_ref(model, initial.rho)
    mesh = initial.mesh
    dts = betas * mesh.h / cfg.c_ref
    if not np.all((dts > 0.0) & (dts < np.inf)):
        raise ConfigError("every time step beta*h/c_ref must be finite and > 0")
    alphas = alphas[:, None]

    # the arrays of the rows still running, compacted together as rows leave;
    # rec[r, k] is row r's Diagnostics row after k steps, then its TV if it is recorded
    live = np.arange(alphas.shape[0])
    rho = np.tile(initial.rho, (live.size, 1))
    u = np.tile(initial.u, (live.size, 1))
    t = np.full(live.size, initial.t)
    work, abs_u, diffs = _Workspace(), np.empty_like(rho), np.empty_like(rho[:, 1:])
    record, rec = np.empty((live.size, 7)), np.empty((live.size, _RECORD_STEPS, 7))
    snapshots = None if verdict_only else [[(initial.t, initial)] for _ in live]
    steps, periodic = 0, mesh.boundary is Boundary.PERIODIC
    with np.errstate(all="ignore"):
        rho_u = None if verdict_only else rho * u     # kept only for the momentum sum
        rec[:, 0] = d = _diagnostics(t, rho, u, mesh.h, (0, mesh.n), record, rho_u, abs_u, diffs)
    window = (0, mesh.n) if periodic else _window(rho, u)   # the one scan of every edge
    t_stop = t_end - 1e-12 * max(1.0, abs(t_end))
    ok, keep = np.ones(live.size, dtype=bool), t < t_stop

    def finish(k: int) -> tuple[int, Trajectory]:
        r, overflow = int(live[k]), not ok[k]
        tk = float(t[k])
        note = "" if not overflow else (f"density became non-positive at t={tk}" if d[k, 3] <= 0.0
                                        else f"non-finite value at t={tk}")
        done = steps - overflow                  # an overflow's last step is not counted
        final = not overflow and done % record_every != 0    # the end state, past the last snapshot
        *columns, tv = rec[r, :done + 1].T       # views of row r's record
        if verdict_only:
            states, columns[1:3] = None, (None, None)
        else:
            states, snapshots[r] = snapshots[r], None
            if final:
                states.append((tk, MeshState(mesh, rho[k], u[k], tk)))
        return r, Trajectory(states, Diagnostics(*columns), overflow=overflow, steps=done,
                             tv=np.append(tv[::record_every], tv[done:done + final]), note=note)

    while live.size:
        with np.errstate(all="ignore"):          # steps until a row leaves: no yield in here
            while keep.all():
                step_dt = np.minimum(dts, t_end - t)
                step_batch(rho, u, model, cfg, mesh, alphas, step_dt[:, None], work=work,
                           window=window)
                window = _next_window(rho, u, rho_u, window, periodic)
                t += step_dt
                steps += 1
                if steps == rec.shape[1]:            # full: double it for the running rows
                    grown = np.empty((rec.shape[0], 2 * steps, 7))
                    grown[live, :steps] = rec[live]
                    rec = grown
                running, snap = t < t_stop, steps % record_every == 0   # TV: a snapshot, an end
                d = _diagnostics(t, rho, u, mesh.h, window, record, rho_u, abs_u,
                                 diffs if snap or not running.all() else None)
                rec[live, steps] = d
                # every density positive and every value finite; NaN fails min_rho > 0
                ok = (d[:, 3] > 0.0) & (d[:, 5] < np.inf) & np.isfinite(d[:, 4])
                if snap and not verdict_only:
                    for k in np.flatnonzero(ok):
                        tk = float(t[k])
                        snapshots[live[k]].append((tk, MeshState(mesh, rho[k], u[k], tk)))
                keep = ok & running
        for k in np.flatnonzero(~keep):
            yield finish(k)
        live, rho, u, t, dts, alphas = (v[keep] for v in (live, rho, u, t, dts, alphas))
        rho_u = None if verdict_only else rho_u[keep]
        record, abs_u, diffs = (v[:live.size] for v in (record, abs_u, diffs))   # scratch
        window = _next_window(rho, u, None, window, periodic)   # the rows left, from the carried window
        keep = keep[keep]                        # all True


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
