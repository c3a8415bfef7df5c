"""Output checks: every CSV a command writes is parsed back and compared with
the values the command held in memory, plus seed-independent invariants and
the seed-0 references.

A CSV row whose fields do not parse as their column type (for instance
`np.float64(0.5)` where a float belongs) is counted as unparseable, not as a
failure, so that a formatting defect stays visible as a count.  Its values
are still read leniently and compared, so a wrong value fails either way.
"""

from __future__ import annotations

import csv
import glob
import hashlib
import math
import os
import re
import xml.etree.ElementTree as ElementTree
from collections import Counter

_WRAPPED_FLOAT = re.compile(r"np\.float64\((.*)\)")
_PASS = re.compile(r"^suite .*: PASS", re.MULTILINE)
_FAIL = re.compile(r"^suite .*: FAIL", re.MULTILINE)


class Report:
    def __init__(self):
        self.failures: list[str] = []
        self.csv_rows = 0
        self.csv_rows_unparseable = 0

    def fail(self, message: str) -> None:
        self.failures.append(message)


def _strict(kind: str, text: str):
    if kind == "f":
        return float(text)
    if kind == "o":
        return None if text == "" else float(text)
    if kind == "i":
        return int(text)
    if kind == "b":
        return {"True": True, "False": False}[text]
    return text


def _lenient(kind: str, text: str):
    match = _WRAPPED_FLOAT.fullmatch(text)
    return _strict(kind, match.group(1) if match else text)


def _same(expected, got) -> bool:
    if isinstance(expected, float) and isinstance(got, float):
        return expected == got or (math.isnan(expected) and math.isnan(got))
    return expected == got


def compare_csv(report: Report, path: str, header: list[str], kinds: str, expected) -> None:
    """Parse `path` and compare it row by row with `expected` (tuples of values)."""
    name = os.path.basename(path)
    try:
        with open(path, newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))
    except OSError as exc:
        report.fail(f"{name}: {exc}")
        return
    if not rows or rows[0] != header:
        report.fail(f"{name}: header {rows[:1]} != {header}")
        return
    expected = [tuple(_plain(v) for v in row) for row in expected]
    body = rows[1:]
    report.csv_rows += len(body)
    if len(body) != len(expected):
        report.fail(f"{name}: {len(body)} rows, expected {len(expected)}")
        return
    bad = 0
    for line, (fields, want) in enumerate(zip(body, expected), start=2):
        if len(fields) != len(kinds):
            report.fail(f"{name}:{line}: {len(fields)} fields, expected {len(kinds)}")
            return
        try:
            got = [_strict(k, t) for k, t in zip(kinds, fields)]
        except (ValueError, KeyError):
            report.csv_rows_unparseable += 1
            try:
                got = [_lenient(k, t) for k, t in zip(kinds, fields)]
            except (ValueError, KeyError):
                report.fail(f"{name}:{line}: cannot read {fields}")
                return
        if not all(_same(w, g) for w, g in zip(want, got)):
            bad += 1
            if bad == 1:
                report.fail(f"{name}:{line}: {fields} != {want}")
    if bad > 1:
        report.fail(f"{name}: {bad} rows differ from memory")


def _plain(value):
    """numpy scalars as the Python value they represent."""
    if hasattr(value, "item"):
        value = value.item()
    if value is None or isinstance(value, (bool, int, str)):
        return value
    return float(value)


def _check_svg(report: Report, path: str) -> None:
    try:
        ElementTree.parse(path)
    except (OSError, ElementTree.ParseError) as exc:
        report.fail(f"{os.path.basename(path)}: not well-formed SVG ({exc})")


def file_md5(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.md5(f.read()).hexdigest()


def output_bytes(out_dir: str) -> dict:
    sizes = {"csv": 0, "svg": 0}
    for path in glob.glob(os.path.join(out_dir, "*")):
        kind = os.path.splitext(path)[1].lstrip(".")
        if kind in sizes:
            sizes[kind] += os.path.getsize(path)
    return sizes


# -- per workload ------------------------------------------------------------


def check_solve(report: Report, results: dict, out_dir: str, reference: dict | None) -> None:
    import numpy as np

    trajs = results.get("schemes.run_simulation", [])
    verdicts = results.get("experiments.classify_run", [])
    if len(trajs) != 1 or len(verdicts) != 1:
        report.fail(f"expected one run and one verdict, got {len(trajs)} and {len(verdicts)}")
        return
    traj, verdict = trajs[0], verdicts[0]

    snapshots = sorted(glob.glob(os.path.join(out_dir, "snapshot_*.csv")))
    if len(snapshots) != len(traj.snapshots):
        report.fail(f"{len(snapshots)} snapshot files for {len(traj.snapshots)} snapshots")
    for idx, (_, state) in enumerate(traj.snapshots):
        compare_csv(report, os.path.join(out_dir, f"snapshot_{idx:04d}.csv"), ["x", "rho", "u"], "fff",
                    zip(state.mesh.nodes, state.rho, state.u))
        if not (np.all(state.rho > 0.0) and np.all(np.isfinite(state.rho)) and np.all(np.isfinite(state.u))):
            report.fail(f"snapshot {idx}: density not positive or a value not finite")
    d = traj.diagnostics
    compare_csv(report, os.path.join(out_dir, "diagnostics.csv"),
                ["t", "mass", "momentum", "min_rho", "max_abs_u"], "fffff",
                zip(d.t, d.mass, d.momentum, d.min_rho, d.max_abs_u))
    compare_csv(report, os.path.join(out_dir, "verdict.csv"),
                ["classification", "oscillation_score", "completed", "steps"], "sfbi",
                [(verdict.classification.value, verdict.oscillation_score, verdict.completed, traj.steps)])
    _check_svg(report, os.path.join(out_dir, "profile.svg"))

    # Mass changes only by the flux through the two outflow boundaries.  With
    # zero-order extrapolation the boundary flux is rho*u of the end node, so
    # while the end nodes keep their initial states the mass balance holds to
    # rounding.  u = (rho*u)/rho may move by an ulp where nothing else moves.
    first, last = traj.snapshots[0][1], traj.snapshots[-1][1]
    ends = [0, -1]
    if not (np.allclose(first.rho[ends], last.rho[ends], rtol=1e-12, atol=0.0)
            and np.allclose(first.u[ends], last.u[ends], rtol=1e-12, atol=1e-15)):
        report.fail("a wave reached the boundary; the mass balance check does not apply")
    else:
        inflow = first.rho[0] * first.u[0] - first.rho[-1] * first.u[-1]
        expected = d.mass[0] + last.t * inflow
        if abs(d.mass[-1] - expected) > 1e-9 * abs(d.mass[0]):
            report.fail(f"mass {d.mass[-1]!r} != initial mass plus boundary flux {expected!r}")

    if reference is not None:
        got = (verdict.classification.value, traj.steps)
        want = (reference["classification"], reference["steps"])
        if got != want:
            report.fail(f"verdict and steps {got} != reference {want}")


def check_sweep(report: Report, results: dict, runs: list, out_dir: str, reference: dict | None) -> None:
    regions = results.get("experiments.sweep_region", [])
    transitions = results.get("experiments.compare_transition", [])
    if len(regions) != 1 or len(transitions) != 1:
        report.fail(f"expected one region and one transition table, got {len(regions)} and {len(transitions)}")
        return
    region, rows = regions[0], transitions[0]

    cells = region.alphas.size * region.betas.size
    expected = []
    for i, alpha in enumerate(region.alphas):
        betas, verdicts = region.column(i)
        for beta, verdict in zip(betas, verdicts):
            expected.append((alpha, beta, verdict.classification.value, verdict.oscillation_score))
    compare_csv(report, os.path.join(out_dir, "region.csv"),
                ["alpha", "beta", "verdict", "oscillation_score"], "ffsf", expected)
    ov = region.overlays
    compare_csv(report, os.path.join(out_dir, "overlays.csv"),
                ["alpha", "beta_necessary", "beta_criterion", "beta_sufficient"], "fffo",
                [(ov.alphas[i], ov.necessary[i], ov.criterion[i],
                  None if ov.sufficient is None else ov.sufficient[i]) for i in range(ov.alphas.size)])
    compare_csv(report, os.path.join(out_dir, "transitions.csv"),
                ["alpha", "largest_conservative", "smallest_nonconservative", "monotone",
                 "transition", "gap_to_criterion", "gap_to_necessary", "gap_to_sufficient"], "fooboooo",
                [(r.alpha, r.largest_conservative, r.smallest_nonconservative, r.monotone,
                  r.transition, r.gap_to_criterion, r.gap_to_necessary, r.gap_to_sufficient) for r in rows])
    _check_svg(report, os.path.join(out_dir, "region.svg"))

    counts = verdict_counts(region)
    if sum(counts.values()) != cells:
        report.fail(f"verdict counts {dict(counts)} do not add up to {cells} cells")
    for run in (r for r in runs if r["in_cell"]):
        if not run["overflow"] and not (run["min_rho"] > 0.0 and run["finite"]):
            report.fail(f"a completed cell run has min density {run['min_rho']} or a non-finite value")

    if reference is not None:
        md5 = file_md5(os.path.join(out_dir, "region.csv"))
        if md5 != reference["region_md5"]:
            report.fail(f"region.csv md5 {md5} != reference {reference['region_md5']}")
        if dict(counts) != reference["verdicts"]:
            report.fail(f"verdict counts {dict(counts)} != reference {reference['verdicts']}")


def verdict_counts(region) -> Counter:
    return Counter(v.classification.value for column in region.verdicts for v in column)


def check_verify(report: Report, stdout: str, reference: dict | None) -> None:
    passed, failed = len(_PASS.findall(stdout)), len(_FAIL.findall(stdout))
    if failed or passed == 0:
        report.fail(f"verify: {passed} suites passed, {failed} failed")
    if reference is not None and passed != reference["suites_passed"]:
        report.fail(f"verify: {passed} suites passed, reference {reference['suites_passed']}")
