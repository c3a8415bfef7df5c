"""Explicit QGD/QHD-regularized finite-difference schemes for 1D barotropic
gas dynamics, with closed-form L2 weak-conservativeness analysis, a spectral
oracle, and a Riemann-problem stability-region experiment harness."""

from .errors import (
    ConfigError,
    DomainMismatch,
    EmptyTrajectory,
    InvalidKappa,
    LengthMismatch,
    NonMonotonePressure,
    NonPositiveDensity,
    QgdError,
    ReportFailure,
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
from .gas import GasModel, IsentropicLaw, TabulatedLaw
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
    AmplificationMatrix,
    NormMonotonicityReport,
    LinearizedParams,
    SpectrumScan,
    StabilityVerdict,
    amplification_matrix,
    gram_matrix,
    gram_max_eigen,
    linearized_step,
    max_stable_beta,
    necessary_beta_max,
    necessary_condition,
    optimal_alpha,
    oracle_mismatches,
    spectral_radius_scan,
    stability_verdict,
    sufficient_beta_max_sw,
    sufficient_condition_sw,
    verify_norm_monotonicity,
    weak_conservativeness_criterion,
)

__version__ = "0.1.0"
