"""Explicit QGD/QHD-regularized finite-difference schemes for 1D barotropic
gas dynamics, with closed-form L2 weak-conservativeness analysis, a spectral
oracle, and a Riemann-problem stability-region experiment harness."""

from .errors import (
    ConfigError,
    DomainMismatch,
    EmptyTrajectory,
    InvalidKappa,
    LengthMismatch,
    NonPositiveDensity,
    QgdError,
)
from .experiments import (
    Classification,
    ClassifyThresholds,
    OverlayCurves,
    RegionMap,
    RiemannSetup,
    RunVerdict,
    TransitionRow,
    classify_run,
    compare_transition,
    estimate_signal_speed,
    riemann_initial,
    sweep_region,
)
from .gas import GasModel
from .mesh import Boundary, Mesh, MeshState
from .regularization import SchemeConfig, SchemeKind, Variant
from .schemes import (
    Diagnostics,
    Trajectory,
    run_batch,
    run_simulation,
    step_batch,
)
from .spectral import (
    LinearizedParams,
    NormCheck,
    NormMonotonicityReport,
    SpectrumScan,
    StabilityVerdict,
    max_stable_beta,
    necessary_beta_max,
    optimal_alpha,
    oracle_mismatches,
    spectral_radius_scan,
    stability_verdict,
    sufficient_beta_max_sw,
    verify_norm_batch,
)

__version__ = "0.1.0"
