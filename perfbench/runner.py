"""Runs one workload's CLI command in this process and writes what it measured.

Usage (run.py starts it): python3 runner.py PLAN.json RESULT.json

First a traced warm-up iteration: its outputs are parsed back and checked in
depth, and it yields the cell-step count.  Then timed iterations with the
tracer removed, each checked against the warm-up's exit code, standard
output and (for the sweep) region.csv bytes, which are deterministic, and
each followed by a timed calibration (calibration.py).  With
`trace` set, the second half of the time runs traced iterations instead,
and the per-layer metrics come from the last of them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

import calibration
import checks
from tracing import CELL, Tracer, is_step


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 when there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


class Runner:
    def __init__(self, plan: dict, cli):
        self.plan = plan
        self.cli = cli
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0
        self.signature = None
        self.traced_runs = 0

    def command(self):
        buf = io.StringIO()
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(self.plan["argv"])
        except Exception:  # a crash of the command is a failed command, not a crashed benchmark
            code = "raised " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
        wall = time.perf_counter() - t0
        return code, buf.getvalue(), wall, _cpu_s() - cpu0

    def traced(self):
        spool = os.path.join(self.plan["work_dir"], f"spool-{self.traced_runs}")
        self.traced_runs += 1
        os.makedirs(spool)
        tracer = Tracer(spool)
        tracer.install()
        try:
            code, stdout, wall, cpu = self.command()
        finally:
            tracer.uninstall()
        return tracer, code, stdout, wall, cpu

    def _signature(self, code, stdout):
        region = os.path.join(self.plan["out_dir"], "region.csv")
        sweep = self.plan["workload"] == "sweep-demo" and os.path.exists(region)
        md5 = checks.file_md5(region) if sweep else None
        return code, stdout, md5

    def _count(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.extend(problems)

    def warm_up(self):
        """Traced first iteration with the deep output checks."""
        tracer, code, stdout, _, _ = self.traced()
        summary = tracer.collect()
        report = checks.Report()
        if code != 0:
            report.fail(f"exit code {code}")
        workload, out_dir, reference = self.plan["workload"], self.plan["out_dir"], self.plan["reference"]
        if workload == "solve-large":
            checks.check_solve(report, tracer.results, out_dir, reference)
        elif workload == "sweep-demo":
            checks.check_sweep(report, tracer.results, summary["runs"], out_dir, reference)
        else:
            checks.check_verify(report, stdout, reference)
        self.signature = self._signature(code, stdout)
        self._count(report.failures)
        return summary, report

    def timed(self, seconds: float, traced: bool):
        """Iterations while another one of median length still ends within
        `seconds`.  Each untraced iteration is followed by a calibration."""
        walls, cpus, cals, summary = [], [], [], None
        start = time.perf_counter()
        while not walls or time.perf_counter() - start + statistics.median(walls) <= seconds:
            if traced:
                tracer, code, stdout, wall, cpu = self.traced()
                summary = tracer.collect()
            else:
                code, stdout, wall, cpu = self.command()
                cals.append(calibration.calibrate())
            signature = self._signature(code, stdout)
            self._count([] if signature == self.signature else
                         [f"iteration {self.attempted}: exit code, output or region.csv differ from the warm-up"])
            walls.append(wall)
            cpus.append(cpu)
        return walls, cpus, cals, summary


def layer_metrics(summary: dict, report: checks.Report, out_dir: str, workers: int) -> dict:
    durations = summary["durations"]
    steps = [d for name, values in durations.items() if is_step(name) for d in values]
    fluxes = [d for name, values in durations.items() if name.startswith("schemes.flux") for d in values]
    cells = durations.get(CELL, [])
    cell_runs = [r for r in summary["runs"] if r["in_cell"]]
    sweep_wall = sum(durations.get("experiments.sweep_region", []))
    sizes = checks.output_bytes(out_dir)

    def per_step(*names):
        total = sum(summary["step_counts"].get(name, 0) for name in names)
        return total / len(steps) if steps else 0.0

    return {
        "schemes.step_us.p50": _median(steps) * 1e6,
        "schemes.step_us.p99": _percentile(steps, 0.99) * 1e6,
        "schemes.flux_us.p50": _median(fluxes) * 1e6,
        "schemes.steps": len(steps),
        "schemes.step_ns_per_cell": _median(summary["step_ns_per_cell"]),
        "schemes.run_self_s": summary["self_s"].get("schemes.run_simulation", 0.0),
        "gas.pressure_calls_per_step": per_step("gas.GasModel.pressure"),
        "gas.enthalpy_calls_per_step": per_step("gas.GasModel.enthalpy"),
        "regularization.params_calls_per_step": per_step("regularization.regularization_params"),
        "mesh.grid_ops_per_step": per_step("mesh.GridOperators"),
        "mesh.avg_diff_calls_per_step": per_step("mesh.GridOperators.avg", "mesh.GridOperators.diff"),
        "mesh.state_builds_per_step": per_step("mesh.MeshState"),
        "experiments.cell_s.p50": _median(cells),
        "experiments.cell_s.p90": _percentile(cells, 0.90),
        "experiments.cells": len(cells),
        "experiments.cells_overflow": sum(r["overflow"] for r in cell_runs),
        "experiments.cell_steps": sum(r["nodes"] * r["steps"] for r in cell_runs),
        "experiments.classify_s": sum(durations.get("experiments.classify_run", [])),
        "experiments.pool_efficiency": sum(cells) / (workers * sweep_wall) if cells and sweep_wall else 0.0,
        "output.csv_s": summary["output_s"]["csv"],
        "output.csv_bytes": sizes["csv"],
        "output.csv_rows": report.csv_rows,
        "output.csv_rows_unparseable": report.csv_rows_unparseable,
        "output.svg_s": summary["output_s"]["svg"],
        "output.svg_bytes": sizes["svg"],
        "spectral.scan_us.p50": _median(durations.get("spectral.spectral_radius_scan", [])) * 1e6,
        "spectral.scan_us.p99": _percentile(durations.get("spectral.spectral_radius_scan", []), 0.99) * 1e6,
        "spectral.scans": len(durations.get("spectral.spectral_radius_scan", [])),
        "spectral.norm_check_s": sum(durations.get("spectral.verify_norm_monotonicity", [])),
        "spectral.norm_checks": len(durations.get("spectral.verify_norm_monotonicity", [])),
        "spectral.linearized_steps": len(durations.get("spectral.linearized_step", [])),
        "spectral.linearized_step_us.p50": _median(durations.get("spectral.linearized_step", [])) * 1e6,
    }


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path, encoding="utf-8") as f:
        plan = json.load(f)
    sys.path.insert(0, plan["src"])
    import numpy
    import scipy
    import qgd1d
    from qgd1d import cli

    if not os.path.abspath(qgd1d.__file__).startswith(plan["src"] + os.sep):
        print(f"runner: qgd1d imported from {qgd1d.__file__}, not from {plan['src']}", file=sys.stderr)
        return 2

    runner = Runner(plan, cli)
    summary, report = runner.warm_up()
    result = {
        "cell_steps": summary["cell_steps"],
        "csv_rows_unparseable": report.csv_rows_unparseable,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    seconds = plan["seconds"]
    if plan["trace"]:
        walls, _, cals, _ = runner.timed(seconds / 2, traced=False)
        traced_walls, _, _, traced_summary = runner.timed(seconds / 2, traced=True)
        result["layers"] = layer_metrics(traced_summary, report, plan["out_dir"], plan["workers"])
        result["layers"]["trace.overhead_ratio"] = _median(traced_walls) / _median(walls)
    else:
        walls, cpus, cals, _ = runner.timed(seconds, traced=False)
        result["cpus"] = cpus
    result["calibration_s"] = _median(cals)
    result["speed_scale"] = calibration.NOMINAL_S / result["calibration_s"]
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result.update(walls=walls, attempted=runner.attempted, failed=runner.failed,
                  failures=runner.failures[:20], peak_rss_kb=own + children)
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
