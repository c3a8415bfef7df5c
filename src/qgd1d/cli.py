"""Command-line front end: JSON config, solve / stability / sweep / verify.

Exit codes: 0 success, 1 invalid configuration or parameters or an unwritable
output path, 2 a solve run ended in overflow.  Worker count for sweeps comes from the config, overridable
by the QGD1D_WORKERS environment variable when the config leaves it at 0.  A
sweep deals its cells into one shard per worker process and advances each
shard as one batch, so its output files are byte-identical for any worker
count.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys

import numpy as np

from . import output
from .errors import ConfigError, QgdError
from .experiments import (
    Classification,
    ClassifyThresholds,
    RiemannSetup,
    TransitionRow,
    classify_run,
    compare_transition,
    riemann_initial,
    sweep_region,
)
from .gas import GasModel
from .mesh import Boundary, Mesh
from .regularization import SchemeConfig, SchemeKind, Variant
from .schemes import _Workspace, run_simulation, step_batch
from .spectral import (
    LinearizedParams,
    NormCheck,
    max_stable_beta,
    optimal_alpha,
    oracle_mismatches,
    stability_verdict,
    verify_norm_batch,
)

DEFAULT_CONFIG = {
    "gas": {"law": "isentropic", "p1": 1.0, "gamma": 2.0, "r0": 0.0},
    "scheme": {
        "kind": "enthalpy",
        "regularization": "qgd",
        "alpha": 0.4,
        "alpha_s": 4.0 / 3.0,
        "beta": 0.589,
        "c_ref": None,
    },
    "mesh": {"x_min": -1.0, "h": 0.008, "n": 250, "boundary": "outflow"},
    "experiment": {
        "rho_left": 1.0,
        "u_left": 0.1,
        "rho_right": 0.1,
        "u_right": 0.0,
        "x0": 0.0,
        "t_end": 0.5,
        "record_every": 10,
    },
    "classify": {"tv_ratio_max": 1.5, "rho_floor_factor": 0.5, "rho_ceil_factor": 2.0},
    "sweep": {
        "alphas": [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
        "betas": [0.6, 0.67, 0.74, 0.81, 0.88, 0.95, 1.02, 1.09, 1.16, 1.23, 1.3, 1.37],
        "beta_mode": "relative",
        "workers": 0,
    },
    "output": {"directory": "qgd1d-out", "formats": ["csv", "svg"]},
}

_ENUM_KEYS = {
    ("gas", "law"): ("isentropic",),
    ("scheme", "kind"): tuple(k.value for k in SchemeKind),
    ("scheme", "regularization"): tuple(v.value for v in Variant),
    ("mesh", "boundary"): tuple(b.value for b in Boundary),
    ("sweep", "beta_mode"): ("absolute", "relative"),
}


def _fail(path: str, message: str) -> ConfigError:
    return ConfigError(f"{path}: {message}")


def _merge(base: dict, override: dict, path: str = "") -> dict:
    merged = copy.deepcopy(base)
    for key, value in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise _fail(here, "unknown key")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise _fail(here, "expected an object")
            merged[key] = _merge(base[key], value, here)
        else:
            merged[key] = value
    return merged


def _is_number(value) -> bool:
    """True for a JSON number (not a bool) that is a finite float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _require_number(cfg, section, key, positive=False, nonnegative=False):
    value = cfg[section][key]
    if not _is_number(value):
        raise _fail(f"{section}.{key}", "expected a finite number")
    if positive and value <= 0:
        raise _fail(f"{section}.{key}", "must be > 0")
    if nonnegative and value < 0:
        raise _fail(f"{section}.{key}", "must be >= 0")
    return float(value)


def _require_int(cfg, section, key, minimum):
    value = cfg[section][key]
    if not (_is_number(value) and isinstance(value, int) and value >= minimum):
        raise _fail(f"{section}.{key}", f"must be an integer >= {minimum}")


def validate_config(cfg: dict) -> dict:
    """Merge over the defaults and check every constraint; returns the full dict."""
    merged = _merge(DEFAULT_CONFIG, cfg)
    for (section, key), allowed in _ENUM_KEYS.items():
        if merged[section][key] not in allowed:
            raise _fail(f"{section}.{key}", f"must be one of {allowed}")
    _require_number(merged, "gas", "p1", positive=True)
    gamma = _require_number(merged, "gas", "gamma")
    if gamma <= 1.0:
        raise _fail("gas.gamma", "must be > 1")
    _require_number(merged, "gas", "r0", nonnegative=True)
    _require_number(merged, "scheme", "alpha", positive=True)
    _require_number(merged, "scheme", "alpha_s", nonnegative=True)
    _require_number(merged, "scheme", "beta", positive=True)
    if merged["scheme"]["c_ref"] is not None:
        _require_number(merged, "scheme", "c_ref", positive=True)
    _require_number(merged, "mesh", "h", positive=True)
    _require_number(merged, "mesh", "x_min")
    _require_int(merged, "mesh", "n", 3)
    for key in ("rho_left", "rho_right"):
        _require_number(merged, "experiment", key, positive=True)
    for key in ("u_left", "u_right", "x0"):
        _require_number(merged, "experiment", key)
    _require_number(merged, "experiment", "t_end", positive=True)
    _require_int(merged, "experiment", "record_every", 1)
    _require_number(merged, "classify", "tv_ratio_max", positive=True)
    _require_number(merged, "classify", "rho_floor_factor", nonnegative=True)
    _require_number(merged, "classify", "rho_ceil_factor", positive=True)
    for key in ("alphas", "betas"):
        grid = merged["sweep"][key]
        if not isinstance(grid, list) or not grid or not all(_is_number(v) and v > 0 for v in grid):
            raise _fail(f"sweep.{key}", "must be a non-empty list of finite positive numbers")
    _require_int(merged, "sweep", "workers", 0)
    out_formats = merged["output"]["formats"]
    if not isinstance(out_formats, list) or not all(f in ("csv", "svg") for f in out_formats):
        raise _fail("output.formats", "must be a list drawn from ['csv', 'svg']")
    if not isinstance(merged["output"]["directory"], str) or not merged["output"]["directory"]:
        raise _fail("output.directory", "must be a non-empty string")
    return merged


def load_config(path: str | None) -> dict:
    if path is None:
        return validate_config({})
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return validate_config(raw)


def apply_overrides(cfg: dict, overrides: list[str]) -> dict:
    """Apply KEY=VALUE items with dotted paths, e.g. scheme.alpha=0.45."""
    patch: dict = {}
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override '{item}': expected KEY=VALUE")
        key, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = patch
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override '{item}': '{part}' is already set to a value")
        node[parts[-1]] = value
    return validate_config(_merge(cfg, patch))


def serialize_config(cfg: dict) -> str:
    return json.dumps(cfg, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# config -> objects


def build_model(cfg: dict) -> GasModel:
    gas = cfg["gas"]
    return GasModel(p1=float(gas["p1"]), gamma=float(gas["gamma"]), r0=float(gas["r0"]))


def build_scheme(cfg: dict) -> SchemeConfig:
    s = cfg["scheme"]
    return SchemeConfig(
        alpha=float(s["alpha"]),
        beta=float(s["beta"]),
        alpha_s=float(s["alpha_s"]),
        regularization=Variant(s["regularization"]),
        scheme=SchemeKind(s["kind"]),
        c_ref=None if s["c_ref"] is None else float(s["c_ref"]),
    )


def build_mesh(cfg: dict) -> Mesh:
    m = cfg["mesh"]
    return Mesh(n=int(m["n"]), h=float(m["h"]), x_min=float(m["x_min"]),
                boundary=Boundary(m["boundary"]))


def build_setup(cfg: dict) -> RiemannSetup:
    e = cfg["experiment"]
    m = cfg["mesh"]
    x_min = float(m["x_min"])
    x_max = x_min + (int(m["n"]) - 1) * float(m["h"])
    return RiemannSetup(
        rho_left=float(e["rho_left"]), u_left=float(e["u_left"]),
        rho_right=float(e["rho_right"]), u_right=float(e["u_right"]),
        x0=float(e["x0"]), x_min=x_min, x_max=x_max, h=float(m["h"]),
        t_end=float(e["t_end"]),
    )


def build_thresholds(cfg: dict, setup: RiemannSetup) -> ClassifyThresholds:
    c = cfg["classify"]
    return ClassifyThresholds.for_setup(
        setup, tv_ratio_max=float(c["tv_ratio_max"]),
        floor_factor=float(c["rho_floor_factor"]), ceil_factor=float(c["rho_ceil_factor"]),
    )


def _worker_count(cfg: dict) -> int:
    workers = int(cfg["sweep"]["workers"])
    if workers == 0:
        raw = os.environ.get("QGD1D_WORKERS", "1")
        workers = int(raw) if raw.strip().isdecimal() else 0
        if workers < 1:
            raise _fail("QGD1D_WORKERS", f"must be an integer >= 1, got {raw!r}")
    return workers


# ---------------------------------------------------------------------------
# subcommands


def cmd_solve(cfg: dict, out_dir: str | None = None) -> int:
    model = build_model(cfg)
    scheme = build_scheme(cfg)
    mesh = build_mesh(cfg)
    setup = build_setup(cfg)
    initial = riemann_initial(setup, mesh)
    traj = run_simulation(initial, model, scheme, setup.t_end,
                          record_every=int(cfg["experiment"]["record_every"]))
    verdict = classify_run(traj, build_thresholds(cfg, setup))

    out_dir = out_dir or cfg["output"]["directory"]
    formats = cfg["output"]["formats"]
    if "csv" in formats:
        x_text = None                             # every snapshot shares the run's mesh
        for idx, (t, state) in enumerate(traj.snapshots):
            x_text = output.write_snapshot_csv(os.path.join(out_dir, f"snapshot_{idx:04d}.csv"),
                                               state, x_text)
        output.write_diagnostics_csv(os.path.join(out_dir, "diagnostics.csv"), traj)
        output.write_table(os.path.join(out_dir, "verdict.csv"),
                           ["classification", "oscillation_score", "completed", "steps"],
                           [(verdict.classification.value, verdict.oscillation_score,
                             verdict.completed, traj.steps)])
    if "svg" in formats:
        final = traj.snapshots[-1][1]
        output.atomic_write_text(
            os.path.join(out_dir, "profile.svg"),
            output.profile_svg(final, title=f"t = {final.t:.4g}"),
        )
    print(f"steps: {traj.steps}   classification: {verdict.classification.value}   "
          f"oscillation score: {verdict.oscillation_score:.4g}")
    if traj.note:
        print(f"note: {traj.note}")
    print(f"outputs written to {out_dir}")
    return 2 if verdict.classification is Classification.OVERFLOW else 0


def _stability_params(args) -> LinearizedParams:
    variant = Variant(args.variant)
    if args.kappa is not None and args.alpha_s is not None:
        raise ConfigError("give either --kappa or --alpha-s, not both")
    if args.kappa is not None:
        return LinearizedParams(args.alpha, args.beta, args.kappa, variant)
    alpha_s = args.alpha_s if args.alpha_s is not None else 0.0
    return LinearizedParams.from_alpha_s(args.alpha, args.beta, alpha_s, variant)


def cmd_stability(args) -> int:
    params = _stability_params(args)
    verdict = stability_verdict(params, n_samples=args.samples)
    a_star, b_max = optimal_alpha(params.kappa, params.variant)

    def yn(flag):
        return "-" if flag is None else ("yes" if flag else "NO")

    print(f"variant            : {params.variant.value}")
    print(f"alpha              : {params.alpha:.6g}")
    print(f"beta               : {params.beta:.6g}")
    print(f"kappa              : {params.kappa:.6g}")
    print(f"necessary condition: {yn(verdict.necessary_ok)}  (beta_max = {verdict.necessary_beta:.10g})")
    print(f"criterion          : {yn(verdict.criterion_ok)}  (beta_max = {verdict.criterion_beta:.10g})")
    if verdict.sufficient_beta is not None:
        print(f"sufficient         : {yn(verdict.sufficient_ok)}  (beta_max = {verdict.sufficient_beta:.10g})")
    else:
        print("sufficient         : -  (only for p = rho^2 with kappa = 7/3)")
    if a_star is None:
        print("optimal alpha      : none (no stable beta at alpha_s = 0)")
    else:
        print(f"optimal alpha      : {a_star:.10g}  (beta_max there = {b_max:.10g})")
    print(f"oracle spectral rad: {verdict.oracle_spectral_radius:.12g}")
    print(f"oracle gram max    : {verdict.oracle_gram_max:.12g}")
    if verdict.near_boundary:
        print("note: beta sits within 1e-9 of a threshold; verdicts are borderline")
    if args.csv:
        output.write_table(args.csv, ["alpha", "beta", "kappa", "variant", "necessary", "criterion",
                                      "sufficient", "oracle_rho", "oracle_gram"],
                           [(params.alpha, params.beta, params.kappa, params.variant.value,
                             verdict.necessary_ok, verdict.criterion_ok, verdict.sufficient_ok,
                             verdict.oracle_spectral_radius, verdict.oracle_gram_max)])
        print(f"verdict written to {args.csv}")
    return 0


def cmd_sweep(cfg: dict, out_dir: str | None = None) -> int:
    if cfg["mesh"]["boundary"] != Boundary.OUTFLOW.value:
        raise ConfigError("mesh.boundary: sweep runs on outflow boundaries only")
    model = build_model(cfg)
    scheme = build_scheme(cfg)
    setup = build_setup(cfg)
    sweep = cfg["sweep"]
    region = sweep_region(
        setup, model, scheme,
        alphas=sweep["alphas"], betas=sweep["betas"], beta_mode=sweep["beta_mode"],
        thresholds=build_thresholds(cfg, setup),
        record_every=int(cfg["experiment"]["record_every"]),
        workers=_worker_count(cfg),
    )
    rows = compare_transition(region)

    out_dir = out_dir or cfg["output"]["directory"]
    formats = cfg["output"]["formats"]
    if "csv" in formats:
        output.write_region_csv(os.path.join(out_dir, "region.csv"), region)
        output.write_overlay_csv(os.path.join(out_dir, "overlays.csv"), region)
        names = TransitionRow.__dataclass_fields__            # the field names, in order
        output.write_table(os.path.join(out_dir, "transitions.csv"), names,
                           ([getattr(row, name) for name in names] for row in rows))
    if "svg" in formats:
        output.atomic_write_text(os.path.join(out_dir, "region.svg"),
                                 output.region_map_svg(region, title="stability region sweep"))
    print(f"{'alpha':>7} {'largest cons.':>14} {'smallest non-cons.':>19} {'criterion':>10}")
    for row, crit in zip(rows, region.overlays.criterion):
        lc = "-" if row.largest_conservative is None else f"{row.largest_conservative:.4g}"
        sn = "-" if row.smallest_nonconservative is None else f"{row.smallest_nonconservative:.4g}"
        print(f"{row.alpha:>7.3g} {lc:>14} {sn:>19} {crit:>10.4g}")
    print(f"outputs written to {out_dir}")
    return 0


def _verify_oracle_equivalence() -> tuple[bool, str]:
    checked, mismatches = oracle_mismatches()
    if mismatches:
        return False, mismatches[0]
    return True, f"{checked} parameter points"


def _verify_norm_monotonicity_suite() -> tuple[bool, str]:
    rng = np.random.default_rng(7)
    checks = []
    for seed in range(0, 20, 2):
        alpha = float(rng.uniform(0.1, 1.2))
        kappa = float(rng.uniform(1.0, 4.0))
        threshold = max_stable_beta(alpha, kappa, Variant.FULL_QGD)
        inside = LinearizedParams(alpha, float(threshold * rng.uniform(0.2, 0.98)), kappa)
        outside = LinearizedParams(alpha, float(threshold * rng.uniform(1.06, 1.5)), kappa)
        checks += [NormCheck(inside, trials=3, seed=seed), NormCheck(outside, trials=1, seed=seed)]
    failed = next((r for r in verify_norm_batch(checks, n=128, steps=120) if not r.passed), None)
    if failed is None:
        return True, f"{len(checks)} parameter points"
    p = failed.params
    return False, (f"norm-monotonicity check failed at alpha={p.alpha} beta={p.beta} kappa={p.kappa} "
                   f"{p.variant.value}: {len(failed.violations)} point(s): {failed.violations[:3]}")


def _verify_conservation() -> tuple[bool, str]:
    model = GasModel(p1=1.0, gamma=2.0)
    mesh = Mesh(n=64, h=1.0 / 64.0, x_min=0.0, boundary=Boundary.PERIODIC)
    x = mesh.nodes
    rho0, u0 = 1.0 + 0.05 * np.sin(2 * np.pi * x), 0.05 * np.cos(2 * np.pi * x)
    mass0 = float(np.sum(rho0))
    mom0 = float(np.sum(rho0 * u0))
    for kind in (SchemeKind.STANDARD, SchemeKind.ENTHALPY):
        cfg = SchemeConfig(alpha=0.5, beta=0.4, alpha_s=0.0, scheme=kind).resolve_c_ref(model, rho0)
        dt = cfg.time_step(mesh.h)
        rho, u, work = rho0, u0, _Workspace()
        for _ in range(200):
            rho, u = step_batch(rho, u, model, cfg, mesh, cfg.alpha, dt, work=work)
        # written so that a NaN sum fails too
        if not abs(float(np.sum(rho)) - mass0) <= 1e-12 * abs(mass0):
            return False, f"mass drift for {kind.value}"
        if kind is SchemeKind.STANDARD and not abs(float(np.sum(rho * u)) - mom0) <= 1e-10:
            return False, "momentum drift for standard scheme"
    return True, "mass and momentum checks on periodic meshes"


def cmd_verify() -> int:
    suites = [
        ("oracle-vs-closed-forms", _verify_oracle_equivalence),
        ("norm-monotonicity", _verify_norm_monotonicity_suite),
        ("discrete-conservation", _verify_conservation),
    ]
    failed = 0
    for name, fn in suites:
        ok, detail = fn()
        print(f"suite {name:<24}: {'PASS' if ok else 'FAIL'}  ({detail})")
        failed += 0 if ok else 1
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_config_args(sub):
    sub.add_argument("config", nargs="?", default=None, help="JSON configuration file")
    sub.add_argument("overrides", nargs="*", default=[],
                     help="dotted-path overrides, e.g. scheme.alpha=0.45")
    sub.add_argument("--out", default=None, help="output directory (overrides config)")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgd1d",
        description="Regularized explicit schemes for 1D barotropic gas dynamics "
                    "with an L2 weak-conservativeness analyzer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run one simulation and write profiles")
    _add_config_args(solve)

    stab = sub.add_parser("stability", help="evaluate the stability conditions at one point")
    stab.add_argument("--alpha", type=float, required=True)
    stab.add_argument("--beta", type=float, required=True)
    stab.add_argument("--kappa", type=float, default=None)
    stab.add_argument("--alpha-s", dest="alpha_s", type=float, default=None)
    stab.add_argument("--variant", choices=[v.value for v in Variant], default="qgd")
    stab.add_argument("--samples", type=int, default=4096)
    stab.add_argument("--csv", default=None, help="also write the verdict as CSV")

    sweep = sub.add_parser("sweep", help="run the (alpha, beta) region sweep")
    _add_config_args(sweep)

    sub.add_parser("verify", help="run the built-in verification suites")

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "stability":
            return cmd_stability(args)
        if args.command == "verify":
            return cmd_verify()
        cfg = load_config(args.config)
        if args.overrides:
            cfg = apply_overrides(cfg, args.overrides)
        if args.command == "solve":
            return cmd_solve(cfg, out_dir=args.out)
        if args.command == "sweep":
            return cmd_sweep(cfg, out_dir=args.out)
        raise AssertionError(f"unhandled command {args.command}")
    except (QgdError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
