"""The public surface of the package: what `from qgd1d import *` exports.

The names are pinned so that any addition or removal shows up in a diff."""

import dataclasses
import types

import pytest

import qgd1d
from qgd1d import GasModel, Mesh, MeshState, SpectrumScan, Trajectory, spectral

PUBLIC_NAMES = [
    "Boundary", "Classification", "ClassifyThresholds", "ConfigError", "Diagnostics",
    "DomainMismatch", "EmptyTrajectory", "GasModel", "InvalidKappa", "LengthMismatch",
    "LinearizedParams", "Mesh", "MeshState", "NonPositiveDensity", "NormCheck",
    "NormMonotonicityReport", "OverlayCurves", "QgdError", "RegionMap", "ReportFailure",
    "RiemannSetup", "RunVerdict", "SchemeConfig", "SchemeKind", "SpectrumScan",
    "StabilityVerdict", "Trajectory", "TransitionRow", "Variant", "classify_run",
    "compare_transition", "estimate_signal_speed", "max_stable_beta", "necessary_beta_max",
    "optimal_alpha", "oracle_mismatches", "riemann_initial", "run_batch", "run_simulation",
    "spectral_radius_scan", "stability_verdict", "step_batch", "sufficient_beta_max_sw",
    "sweep_region", "verify_norm_batch", "weak_conservativeness_criterion",
]


def test_public_names_are_pinned():
    # submodules are left out: which of them are bound depends on import order
    names = sorted(name for name, value in vars(qgd1d).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES


def _members(owner) -> set:
    """Attributes of a module or class, dataclass fields without defaults included."""
    fields = dataclasses.fields(owner) if dataclasses.is_dataclass(owner) else ()
    return set(dir(owner)) | {f.name for f in fields}


@pytest.mark.parametrize("owner, name", [
    (spectral, "linearized_step"), (spectral, "verify_norm_monotonicity"),
    (spectral, "gram_matrix"), (GasModel, "enthalpy"), (GasModel, "sound_speed"),
    (MeshState, "momentum"), (Mesh, "x_max"), (Trajectory, "completed"),
    (SpectrumScan, "n_samples"),
], ids=lambda v: v if isinstance(v, str) else v.__name__.rsplit(".", 1)[-1])
def test_removed_member_is_gone(owner, name):
    assert name not in _members(owner)
    assert name not in vars(qgd1d)
