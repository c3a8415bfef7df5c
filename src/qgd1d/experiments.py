"""Riemann-problem experiments: initial data, run classification, region sweeps.

A sweep runs one simulation per (alpha, beta) cell, classifies each run as
conservative / non-conservative / overflow from the growth of the total
variation of the density (and a density corridor), and lays the closed-form
stability curves over the resulting map.  The cells are split into one
shard per worker process, and each shard advances all its cells as one
[cells, n] batch on the schemes' array kernel.
"""

from __future__ import annotations

import enum
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import DomainMismatch, EmptyTrajectory
from .gas import GasModel, IsentropicLaw
from .mesh import Boundary, Mesh, MeshState
from .regularization import SchemeConfig, Variant
from .schemes import Trajectory, run_batch, run_simulation
from .spectral import (
    SW_KAPPA,
    max_stable_beta,
    necessary_beta_max,
    sufficient_beta_max_sw,
)


@dataclass(frozen=True)
class RiemannSetup:
    """Piecewise-constant initial data with a single jump at x0."""

    rho_left: float
    u_left: float
    rho_right: float
    u_right: float
    x0: float = 0.0
    x_min: float = -1.0
    x_max: float = 1.0
    h: float = 1.0 / 125.0
    t_end: float = 0.5

    def __post_init__(self):
        if self.rho_left <= 0.0 or self.rho_right <= 0.0:
            raise ValueError("both densities must be > 0")
        if not (self.x_min < self.x0 < self.x_max):
            raise ValueError("x0 must lie strictly inside the domain")
        if self.h <= 0.0 or self.t_end <= 0.0:
            raise ValueError("h and t_end must be > 0")

    def mesh(self, boundary: Boundary = Boundary.OUTFLOW) -> Mesh:
        n = int(round((self.x_max - self.x_min) / self.h))
        return Mesh(n=n, h=self.h, x_min=self.x_min, boundary=boundary)

    def mirrored(self) -> "RiemannSetup":
        """Swap sides and negate velocities (the x -> -x image of the data)."""
        return replace(
            self,
            rho_left=self.rho_right, u_left=-self.u_right,
            rho_right=self.rho_left, u_right=-self.u_left,
            x0=-self.x0, x_min=-self.x_max, x_max=-self.x_min,
        )


_SIGNAL_SPEED_COURANT = 0.25      # relative to the fastest initial signal speed
_SIGNAL_SPEED_RECORD_EVERY = 4    # steps between the states it scans


def estimate_signal_speed(setup: RiemannSetup, model: GasModel, base_cfg: SchemeConfig) -> float:
    """Fastest signal speed max(|u| + c) the setup's solution develops.

    Runs the configured scheme once at Courant number 0.25 (relative to the
    fastest initial signal speed) and scans every 4th state.  Useful as a
    c_ref that makes beta the Courant number of the fastest wave, which for
    strong jumps travels well above the initial sound speeds.
    """
    mesh = setup.mesh(Boundary.OUTFLOW)
    initial = riemann_initial(setup, mesh)
    c0 = np.sqrt(model.pressure(initial.rho)[1])
    s0 = float(np.max(np.abs(initial.u) + c0))
    cfg = replace(base_cfg, beta=_SIGNAL_SPEED_COURANT, c_ref=s0)
    traj = run_simulation(initial, model, cfg, setup.t_end, record_every=_SIGNAL_SPEED_RECORD_EVERY)
    speed = s0
    for _, state in traj.snapshots:
        c = np.sqrt(model.pressure(state.rho)[1])
        speed = max(speed, float(np.max(np.abs(state.u) + c)))
    return speed


def riemann_initial(setup: RiemannSetup, mesh: Mesh) -> MeshState:
    """Step-function state on the mesh; a node exactly at x0 takes the left state."""
    x = mesh.nodes
    tol = 1e-12 * mesh.h
    if x[0] < setup.x_min - tol or x[-1] > setup.x_max + tol:
        raise DomainMismatch(
            f"mesh [{x[0]}, {x[-1]}] exceeds the setup domain [{setup.x_min}, {setup.x_max}]"
        )
    left = x <= setup.x0 + tol
    rho = np.where(left, setup.rho_left, setup.rho_right)
    u = np.where(left, setup.u_left, setup.u_right)
    return MeshState(mesh, rho, u, t=0.0)


class Classification(enum.Enum):
    CONSERVATIVE = "conservative"
    NON_CONSERVATIVE = "non-conservative"
    OVERFLOW = "overflow"


@dataclass(frozen=True)
class RunVerdict:
    classification: Classification
    oscillation_score: float
    completed: bool


@dataclass(frozen=True)
class ClassifyThresholds:
    """Operational definition of "noticeable oscillations".

    A run is non-conservative when the total variation of the density grows
    past tv_ratio_max times its initial value, or the density leaves the
    corridor [rho_floor, rho_ceil].
    """

    tv_ratio_max: float = 1.5
    rho_floor: float = 0.0
    rho_ceil: float = math.inf

    @classmethod
    def for_setup(cls, setup: RiemannSetup, tv_ratio_max: float = 1.5,
                  floor_factor: float = 0.5, ceil_factor: float = 2.0) -> "ClassifyThresholds":
        lo = min(setup.rho_left, setup.rho_right)
        hi = max(setup.rho_left, setup.rho_right)
        return cls(tv_ratio_max=tv_ratio_max,
                   rho_floor=floor_factor * lo, rho_ceil=ceil_factor * hi)


def _total_variation(v: np.ndarray) -> float:
    return float(np.sum(np.abs(np.diff(v))))


def classify_run(traj: Trajectory, thresholds: ClassifyThresholds) -> RunVerdict:
    """Classify a finished trajectory.

    Overflow wins outright.  Otherwise the oscillation score is the largest
    TV(rho)/TV0(rho) over the snapshots (defined as 0 while the state stays
    flat), and the density corridor is checked against both the snapshots
    and the per-step minimum-density diagnostic.
    """
    if not traj.snapshots:
        raise EmptyTrajectory("trajectory has no snapshots")
    if traj.overflow:
        return RunVerdict(Classification.OVERFLOW, math.inf, completed=False)

    tv0 = _total_variation(traj.snapshots[0][1].rho)
    score = 0.0
    corridor_ok = True
    for _, state in traj.snapshots:
        tv = _total_variation(state.rho)
        if tv0 > 0.0:
            score = max(score, tv / tv0)
        elif tv > 1e-12:
            score = math.inf
        rho_min, rho_max = float(np.min(state.rho)), float(np.max(state.rho))
        if rho_min < thresholds.rho_floor or rho_max > thresholds.rho_ceil:
            corridor_ok = False
    if float(np.min(traj.diagnostics.min_rho)) < thresholds.rho_floor:
        corridor_ok = False

    if score > thresholds.tv_ratio_max or not corridor_ok:
        return RunVerdict(Classification.NON_CONSERVATIVE, score, completed=True)
    return RunVerdict(Classification.CONSERVATIVE, score, completed=True)


@dataclass(frozen=True)
class OverlayCurves:
    """Closed-form stability curves sampled at the sweep's alpha grid."""

    alphas: np.ndarray
    necessary: np.ndarray
    criterion: np.ndarray
    sufficient: Optional[np.ndarray]


@dataclass
class RegionMap:
    """Verdict per (alpha, beta) cell plus the overlay curves.

    In "relative" beta mode the beta grid holds factors applied to the
    criterion threshold of each alpha column; actual_betas always stores the
    beta really used in each cell.
    """

    alphas: np.ndarray
    betas: np.ndarray
    beta_mode: str
    actual_betas: np.ndarray          # shape (len(alphas), len(betas))
    verdicts: list                    # nested list, same shape
    overlays: OverlayCurves

    def column(self, i: int):
        return self.actual_betas[i], self.verdicts[i]


def _run_cell(args) -> list[tuple[int, int, RunVerdict]]:
    """Advance one shard of sweep cells as a single batch; each row is
    classified, and its trajectory dropped, as it leaves the batch."""
    (cells, setup, model, base_cfg, thresholds, record_every) = args
    initial = riemann_initial(setup, setup.mesh(Boundary.OUTFLOW))
    _, _, alphas, betas = zip(*cells)
    runs = run_batch(initial, model, base_cfg, alphas, betas, setup.t_end, record_every)
    verdicts = []
    for r, traj in runs:
        i, j, _, _ = cells[r]
        verdicts.append((i, j, classify_run(traj, thresholds)))
    return verdicts


def sweep_region(setup: RiemannSetup, model: GasModel, base_cfg: SchemeConfig,
                 alphas, betas, beta_mode: str = "absolute",
                 thresholds: Optional[ClassifyThresholds] = None,
                 record_every: int = 10, workers: int = 1) -> RegionMap:
    """Run one simulation per (alpha, beta) cell and classify it.

    base_cfg fixes the scheme kind, regularization variant, alpha_s and
    c_ref; alpha and beta are taken from the grids.  The cells are dealt
    round-robin into `workers` shards and each shard advances as one batch
    (run_batch); with workers > 1 each shard runs in its own pool process.
    Rows are independent and verdicts are written back by cell index, so
    the result does not depend on the worker count.
    """
    alphas = np.asarray(list(alphas), dtype=float)
    betas = np.asarray(list(betas), dtype=float)
    if alphas.size == 0 or betas.size == 0:
        raise ValueError("alpha and beta grids must be non-empty")
    if beta_mode not in ("absolute", "relative"):
        raise ValueError("beta_mode must be 'absolute' or 'relative'")
    if thresholds is None:
        thresholds = ClassifyThresholds.for_setup(setup)

    base_cfg = base_cfg.resolve_c_ref(model, np.array([setup.rho_left, setup.rho_right]))
    kappa = base_cfg.kappa

    actual = np.empty((alphas.size, betas.size))
    cells = []
    for i, a in enumerate(alphas):
        scale = max_stable_beta(a, kappa, base_cfg.regularization) if beta_mode == "relative" else 1.0
        for j, b in enumerate(betas):
            actual[i, j] = b * scale
            cells.append((i, j, float(a), float(actual[i, j])))

    n_shards = max(1, min(workers, len(cells)))
    shards = [(cells[k::n_shards], setup, model, base_cfg, thresholds, record_every)
              for k in range(n_shards)]
    if n_shards > 1:
        with ProcessPoolExecutor(max_workers=n_shards) as pool:
            results = list(pool.map(_run_cell, shards))
    else:
        results = [_run_cell(shard) for shard in shards]
    verdicts = [[None] * betas.size for _ in range(alphas.size)]
    for i, j, verdict in (cell for shard in results for cell in shard):
        verdicts[i][j] = verdict

    variant = base_cfg.regularization
    shallow_water = (isinstance(model.law, IsentropicLaw)
                     and model.law.p1 == 1.0 and model.law.gamma == 2.0
                     and variant is Variant.FULL_QGD and abs(kappa - SW_KAPPA) <= 1e-12)
    overlays = OverlayCurves(
        alphas=alphas,
        necessary=np.array([necessary_beta_max(a, kappa, variant) for a in alphas]),
        criterion=np.array([max_stable_beta(a, kappa, variant) for a in alphas]),
        sufficient=np.array([sufficient_beta_max_sw(a) for a in alphas]) if shallow_water else None)
    return RegionMap(alphas=alphas, betas=betas, beta_mode=beta_mode,
                     actual_betas=actual, verdicts=verdicts, overlays=overlays)


@dataclass(frozen=True)
class TransitionRow:
    """Empirical stability transition of one alpha column vs the closed forms."""

    alpha: float
    largest_conservative: Optional[float]
    smallest_nonconservative: Optional[float]
    monotone: bool
    transition: Optional[float]       # midpoint of the bracketing pair
    gap_to_criterion: Optional[float]
    gap_to_necessary: Optional[float]
    gap_to_sufficient: Optional[float]


def compare_transition(region: RegionMap) -> list[TransitionRow]:
    """Per alpha column: bracket the conservative/non-conservative transition
    and report signed gaps (transition minus curve) to the overlay curves."""
    rows = []
    for i, alpha in enumerate(region.alphas):
        betas, verdicts = region.column(i)
        cons = [b for b, v in zip(betas, verdicts) if v.classification is Classification.CONSERVATIVE]
        non = [b for b, v in zip(betas, verdicts) if v.classification is not Classification.CONSERVATIVE]
        largest_cons = max(cons) if cons else None
        smallest_non = min(non) if non else None
        monotone = (not cons or not non or max(cons) < min(non))
        # None when the column is all one verdict (the transition lies
        # outside the grid) or is not monotone
        transition = 0.5 * (largest_cons + smallest_non) if cons and non and monotone else None
        gap = lambda curve: None if transition is None else transition - float(curve[i])
        rows.append(TransitionRow(
            alpha=float(alpha),
            largest_conservative=largest_cons,
            smallest_nonconservative=smallest_non,
            monotone=monotone,
            transition=transition,
            gap_to_criterion=gap(region.overlays.criterion),
            gap_to_necessary=gap(region.overlays.necessary),
            gap_to_sufficient=(gap(region.overlays.sufficient)
                               if region.overlays.sufficient is not None else None),
        ))
    return rows
