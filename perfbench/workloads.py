"""The benchmark's workloads: the CLI command each runs and the config it is given.

Seed 0 is the canonical input of each workload.  Any other seed perturbs the
Riemann states by additive offsets drawn uniformly from STATE_PERTURBATION,
so every seed gives a different but equally sized problem.  `verify` takes
no input and is the same for every seed.
"""

from __future__ import annotations

import random

WHY = {
    "solve-large": "standard stepper on 25 000-node arrays plus 175k CSV rows: the kernel and output layers at size",
    "sweep-demo": "108 short n=250 runs in a 2-worker pool: per-call overhead, the pool and classification",
    "verify": "oracle scans and norm checks: the spectral layer, which the nonlinear kernel barely touches",
}

# The pinned reference speed of the shipped demo configs (README, "beta and
# the time step").
C_REF = 2.0176878258221596

# Small enough that the sweep's total step count stays within about 1 % of
# seed 0's, so that seeds differ in input but not in the amount of work.
STATE_PERTURBATION = {"rho_left": 0.01, "rho_right": 0.001, "u_left": 0.002, "u_right": 0.002}

_STATES = {"rho_left": 1.0, "u_left": 0.1, "rho_right": 0.1, "u_right": 0.0}

_DEMO_ALPHAS = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
_DEMO_BETAS = [0.6, 0.67, 0.74, 0.81, 0.88, 0.95, 1.02, 1.09, 1.16, 1.23, 1.3, 1.37]

# Mesh, horizon and grids per size.  "tiny" exists for the self-test only.
_SIZES = {
    "solve-large": {
        "full": {"n": 25000, "h": 8e-5, "t_end": 0.02, "record_every": 200},
        "tiny": {"n": 2500, "h": 8e-4, "t_end": 0.02, "record_every": 20},
    },
    "sweep-demo": {
        "full": {"t_end": 0.5, "alphas": _DEMO_ALPHAS, "betas": _DEMO_BETAS},
        "tiny": {"t_end": 0.1, "alphas": [0.4, 0.8], "betas": [0.8, 1.3]},
    },
}

SWEEP_WORKERS = 2


def names() -> list[str]:
    return list(WHY)


def riemann_states(seed: int) -> dict:
    """The four Riemann states of a seed; seed 0 is the demo dam-break."""
    if seed == 0:
        return dict(_STATES)
    rng = random.Random(seed)
    return {key: value + rng.uniform(-STATE_PERTURBATION[key], STATE_PERTURBATION[key])
            for key, value in _STATES.items()}


def make_config(workload: str, seed: int, size: str, out_dir: str) -> dict | None:
    """The JSON config the CLI receives, or None for `verify`."""
    if workload == "verify":
        return None
    dims = _SIZES[workload][size]
    scheme = {"regularization": "qgd", "alpha": 0.4, "alpha_s": 4.0 / 3.0,
              "beta": 0.45, "c_ref": C_REF}
    experiment = {**riemann_states(seed), "x0": 0.0, "t_end": dims["t_end"]}
    cfg = {
        "gas": {"law": "isentropic", "p1": 1.0, "gamma": 2.0, "r0": 0.0},
        "output": {"directory": out_dir, "formats": ["csv", "svg"]},
    }
    if workload == "solve-large":
        cfg["scheme"] = {"kind": "standard", **scheme}
        cfg["mesh"] = {"x_min": -1.0, "h": dims["h"], "n": dims["n"], "boundary": "outflow"}
        cfg["experiment"] = {**experiment, "record_every": dims["record_every"]}
    else:
        cfg["scheme"] = {"kind": "enthalpy", **scheme}
        cfg["mesh"] = {"x_min": -1.0, "h": 0.008, "n": 250, "boundary": "outflow"}
        cfg["experiment"] = {**experiment, "record_every": 10}
        cfg["sweep"] = {"alphas": dims["alphas"], "betas": dims["betas"],
                        "beta_mode": "relative", "workers": 0}
    return cfg


def argv(workload: str, config_path: str | None, out_dir: str) -> list[str]:
    """Arguments of `qgd1d.cli.main` for one command of the workload."""
    if workload == "verify":
        return ["verify"]
    command = "solve" if workload == "solve-large" else "sweep"
    return [command, config_path, "--out", out_dir]
