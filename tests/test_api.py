"""The public surface of the package: what `from qgd1d import *` exports.

The names are pinned so that any addition or removal shows up in a diff."""

import dataclasses
import importlib
import importlib.util
import ast
import inspect
import pathlib
import re
import sys
import types

import numpy as np
import pytest

import qgd1d
from qgd1d import (GasModel, Mesh, MeshState, NormCheck, RegionMap, SpectrumScan, Trajectory, cli,
                   errors, output, spectral)

PUBLIC_NAMES = [
    "Boundary", "Classification", "ClassifyThresholds", "ConfigError", "Diagnostics",
    "DomainMismatch", "EmptyTrajectory", "GasModel", "InvalidKappa", "LengthMismatch",
    "LinearizedParams", "Mesh", "MeshState", "NonPositiveDensity", "NormCheck",
    "NormMonotonicityReport", "OverlayCurves", "QgdError", "RegionMap", "RiemannSetup",
    "RunVerdict", "SchemeConfig", "SchemeKind", "SpectrumScan", "StabilityVerdict",
    "Trajectory", "TransitionRow", "Variant", "classify_run", "compare_transition",
    "estimate_signal_speed", "max_stable_beta", "necessary_beta_max", "optimal_alpha",
    "oracle_mismatches", "riemann_initial", "run_batch", "run_simulation",
    "spectral_radius_scan", "stability_verdict", "step_batch", "sufficient_beta_max_sw",
    "sweep_region", "verify_norm_batch",
]


def test_public_names_are_pinned():
    # submodules are left out: which of them are bound depends on import order
    names = sorted(name for name, value in vars(qgd1d).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES


def test_step_batch_keyword_options_are_pinned():
    # the one per-step call takes only the workspace it borrows and the window of
    # the run loop: a mode flag added beside them shows up here
    params = inspect.signature(qgd1d.step_batch).parameters.values()
    assert [p.name for p in params if p.kind is inspect.Parameter.KEYWORD_ONLY] == ["work", "window"]


# public names that only tests call, each with the reason it stays
_TEST_ONLY = {
    "serialize_config": "the sweep's planned run manifest may write the config with it",
}


def test_public_api_has_callers_outside_tests():
    # no public API that only tests call: each public name and each public function of
    # cli and output is named in src/ (past its definition and the package's re-export),
    # README.md, pyproject.toml or perfbench/
    root = pathlib.Path(__file__).resolve().parents[1]
    paths = [p for p in (root / "src" / "qgd1d").glob("*.py") if p.name != "__init__.py"]
    paths += [root / "README.md", root / "pyproject.toml", *(root / "perfbench").glob("*.py"),
              *(root / "perfbench").glob("*.md")]
    text = "\n".join(p.read_text(encoding="utf-8") for p in paths)
    names = set(PUBLIC_NAMES) | {
        name for module in (cli, output) for name, value in vars(module).items()
        if not name.startswith("_") and isinstance(value, types.FunctionType)
        and value.__module__ == module.__name__}
    unused = sorted(
        name for name in names - set(_TEST_ONLY)
        if len(re.findall(rf"\b{name}\b", text)) <= len(re.findall(rf"\b(?:def|class) {name}\b", text)))
    assert unused == []
    assert set(_TEST_ONLY) <= names


def test_src_imports_only_the_standard_library_and_numpy():
    # the package depends on numpy alone: a speed-up may not bring a new dependency
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    root = pathlib.Path(__file__).resolve().parents[1] / "src" / "qgd1d"
    imported = {}
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            imported.update((name.split(".")[0], path.name) for name in names)
    assert "numpy" in imported
    assert {name: where for name, where in imported.items() if name not in allowed} == {}


def _members(owner) -> set:
    """Attributes of a module or class, dataclass fields without defaults included."""
    fields = dataclasses.fields(owner) if dataclasses.is_dataclass(owner) else ()
    return set(dir(owner)) | {f.name for f in fields}


@pytest.mark.parametrize("owner, name", [
    (spectral, "linearized_step"), (spectral, "verify_norm_monotonicity"),
    (spectral, "gram_matrix"), (GasModel, "enthalpy"), (GasModel, "sound_speed"),
    (MeshState, "momentum"), (Mesh, "x_max"), (Trajectory, "completed"),
    (SpectrumScan, "n_samples"), (spectral, "_wavenumber_grid"), (RegionMap, "beta_mode"),
    (output, "write_verdict_csv"), (output, "write_transition_csv"), (spectral, "_gram_matrix"),
    (spectral, "weak_conservativeness_criterion"), (errors, "ReportFailure"),
    (NormCheck, "step_tol"), (NormCheck, "growth_tol"), (spectral, "_norm_reports"),
], ids=lambda v: v if isinstance(v, str) else v.__name__.rsplit(".", 1)[-1])
def test_removed_member_is_gone(owner, name):
    assert name not in _members(owner)
    assert name not in vars(qgd1d)


def _benchmark_tracing():
    """perfbench/tracing.py, which imports only the standard library."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_hooks_exist(monkeypatch):
    # the benchmark wraps these by name; a rename would silently empty its metrics
    tracing = _benchmark_tracing()
    modules = {layer: importlib.import_module(f"qgd1d.{layer}") for layer in tracing.LAYERS}
    hooks = {tracing.CELL, *tracing.KEEP, "schemes.step_batch", "schemes.run_batch",
             "output.write_snapshot_csv",
             *(f"cli.{name}" for name in ("main", "load_config", "build_model", "build_scheme",
                                          "build_mesh", "build_setup", "build_thresholds")),
             "experiments.riemann_initial"}
    for hook in sorted(hooks):
        layer, name = hook.split(".")
        assert callable(getattr(modules[layer], name, None)), hook
    # the batch runner calls the step, and cmd_solve each snapshot's writer, through the
    # module globals the benchmark patches: a private step helper would empty
    # cell_steps_per_s, and a writer bypassed or not given the path first output.csv_s
    assert "step_batch" in modules["schemes"].run_batch.__code__.co_names
    # and counts every public schemes.step* span as one step: a second such name
    # would count steps twice in cell_steps_per_s
    assert [name for name, value in vars(modules["schemes"]).items()
            if tracing.is_step(f"schemes.{name}") and callable(value)] == ["step_batch"]
    for name in ("run_simulation", "classify_run", "write_snapshot_csv"):
        assert name in modules["cli"].cmd_solve.__code__.co_names
    # and reads snapshots as (t, MeshState) pairs
    mesh = Mesh(n=8, h=0.125)
    traj = qgd1d.run_simulation(MeshState(mesh, np.ones(8), np.zeros(8)), GasModel(),
                                qgd1d.SchemeConfig(alpha=0.4, beta=0.4, alpha_s=0.0), 0.01)
    t, state = traj.snapshots[-1]
    assert isinstance(t, float) and isinstance(state, MeshState)
    # cell_steps_per_s counts the nodes of each step's first argument: the batch
    # runner passes whole rows even where the step computes only a window of them
    widths, step_batch = [], modules["schemes"].step_batch

    def step(rho, *args, **kwargs):
        widths.append(rho.shape[-1])
        return step_batch(rho, *args, **kwargs)

    monkeypatch.setattr(modules["schemes"], "step_batch", step)
    mesh = Mesh(n=40, h=0.05, boundary=qgd1d.Boundary.OUTFLOW)
    left = np.arange(40) < 20                   # a Riemann state: uniform runs at both ends
    initial = MeshState(mesh, np.where(left, 1.0, 0.1), np.where(left, 0.1, 0.0))
    rows = dict(qgd1d.run_batch(initial, GasModel(), qgd1d.SchemeConfig(alpha=0.4, beta=0.4),
                                [0.4, 0.8], [0.4, 0.4], t_end=0.1))
    assert set(widths) == {mesh.n} and len(widths) == rows[0].steps > 1
