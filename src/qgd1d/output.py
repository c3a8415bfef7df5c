"""CSV and SVG emission.  All writes are atomic (temp file + rename) and all
formatting is deterministic, so identical inputs give byte-identical files."""

from __future__ import annotations

import csv
import math
import os
import tempfile

import numpy as np

from .experiments import Classification, RegionMap, TransitionRow
from .mesh import MeshState
from .schemes import Trajectory
from .spectral import StabilityVerdict


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return repr(float(x))  # np.float64 is a float whose repr is "np.float64(...)"
    return str(x)


def _csv_text(header, rows) -> str:
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def write_snapshot_csv(path: str, state: MeshState) -> None:
    rows = zip(state.mesh.nodes, state.rho, state.u)
    atomic_write_text(path, _csv_text(["x", "rho", "u"], rows))


def write_diagnostics_csv(path: str, traj: Trajectory) -> None:
    d = traj.diagnostics
    rows = zip(d.t, d.mass, d.momentum, d.min_rho, d.max_abs_u)
    atomic_write_text(path, _csv_text(["t", "mass", "momentum", "min_rho", "max_abs_u"], rows))


def write_region_csv(path: str, region: RegionMap) -> None:
    rows = []
    for i, alpha in enumerate(region.alphas):
        betas, verdicts = region.column(i)
        for beta, verdict in zip(betas, verdicts):
            rows.append((float(alpha), float(beta), verdict.classification.value,
                         verdict.oscillation_score))
    atomic_write_text(path, _csv_text(["alpha", "beta", "verdict", "oscillation_score"], rows))


def write_overlay_csv(path: str, region: RegionMap) -> None:
    ov = region.overlays
    rows = []
    for i, alpha in enumerate(ov.alphas):
        rows.append((float(alpha), float(ov.necessary[i]), float(ov.criterion[i]),
                     None if ov.sufficient is None else float(ov.sufficient[i])))
    atomic_write_text(
        path, _csv_text(["alpha", "beta_necessary", "beta_criterion", "beta_sufficient"], rows)
    )


def write_transition_csv(path: str, rows: list[TransitionRow]) -> None:
    data = [
        (r.alpha, r.largest_conservative, r.smallest_nonconservative, r.monotone,
         r.transition, r.gap_to_criterion, r.gap_to_necessary, r.gap_to_sufficient)
        for r in rows
    ]
    atomic_write_text(path, _csv_text(
        ["alpha", "largest_conservative", "smallest_nonconservative", "monotone",
         "transition", "gap_to_criterion", "gap_to_necessary", "gap_to_sufficient"],
        data,
    ))


def write_verdict_csv(path: str, rows: list[tuple[float, float, float, str, StabilityVerdict]]) -> None:
    """Rows of (alpha, beta, kappa, variant-name, verdict)."""
    data = []
    for alpha, beta, kappa, variant, v in rows:
        data.append((alpha, beta, kappa, variant, v.necessary_ok, v.criterion_ok,
                     v.sufficient_ok, v.oracle_spectral_radius, v.oracle_gram_max))
    atomic_write_text(path, _csv_text(
        ["alpha", "beta", "kappa", "variant", "necessary", "criterion", "sufficient",
         "oracle_rho", "oracle_gram"],
        data,
    ))


# ---------------------------------------------------------------------------
# minimal SVG plotting


class _Frame:
    """Maps data coordinates onto one pixel rectangle with 2D axes."""

    def __init__(self, x0, y0, width, height, xlim, ylim):
        self.x0, self.y0 = x0, y0
        self.width, self.height = width, height
        self.xlim, self.ylim = xlim, ylim

    def px(self, x) -> float:
        a, b = self.xlim
        return self.x0 + (x - a) / (b - a) * self.width

    def py(self, y) -> float:
        a, b = self.ylim
        return self.y0 + self.height - (y - a) / (b - a) * self.height

    def axes(self, xlabel: str, ylabel: str, n_ticks: int = 5) -> list[str]:
        parts = [
            f'<rect x="{self.x0:.1f}" y="{self.y0:.1f}" width="{self.width:.1f}" '
            f'height="{self.height:.1f}" fill="none" stroke="black" stroke-width="1"/>'
        ]
        for i in range(n_ticks):
            fx = i / (n_ticks - 1)
            x = self.xlim[0] + fx * (self.xlim[1] - self.xlim[0])
            y = self.ylim[0] + fx * (self.ylim[1] - self.ylim[0])
            px, py = self.px(x), self.py(y)
            ybase = self.y0 + self.height
            parts.append(f'<line x1="{px:.1f}" y1="{ybase:.1f}" x2="{px:.1f}" y2="{ybase + 4:.1f}" stroke="black"/>')
            parts.append(f'<text x="{px:.1f}" y="{ybase + 16:.1f}" font-size="11" text-anchor="middle">{x:.3g}</text>')
            parts.append(f'<line x1="{self.x0 - 4:.1f}" y1="{py:.1f}" x2="{self.x0:.1f}" y2="{py:.1f}" stroke="black"/>')
            parts.append(f'<text x="{self.x0 - 7:.1f}" y="{py + 4:.1f}" font-size="11" text-anchor="end">{y:.3g}</text>')
        parts.append(
            f'<text x="{self.x0 + self.width / 2:.1f}" y="{self.y0 + self.height + 32:.1f}" '
            f'font-size="13" text-anchor="middle">{xlabel}</text>'
        )
        parts.append(
            f'<text x="{self.x0 - 42:.1f}" y="{self.y0 + self.height / 2:.1f}" font-size="13" '
            f'text-anchor="middle" transform="rotate(-90 {self.x0 - 42:.1f} {self.y0 + self.height / 2:.1f})">{ylabel}</text>'
        )
        return parts

    def polyline(self, xs, ys, dash: str = "", color: str = "black") -> str:
        pts = " ".join(f"{self.px(x):.2f},{self.py(y):.2f}" for x, y in zip(xs, ys))
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        return f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"{dash_attr}/>'


def _svg_document(width: int, height: int, body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n<rect width="100%" height="100%" fill="white"/>\n'
    )
    return head + "\n".join(body) + "\n</svg>\n"


def region_map_svg(region: RegionMap, title: str = "") -> str:
    """Scatter of cell verdicts (filled = conservative, hollow = non-conservative,
    cross = overflow) with the closed-form curves overlaid."""
    all_betas = region.actual_betas.ravel()
    curves = [region.overlays.necessary, region.overlays.criterion]
    if region.overlays.sufficient is not None:
        curves.append(region.overlays.sufficient)
    ymax = max(float(all_betas.max()), max(float(c.max()) for c in curves)) * 1.08
    xmin, xmax = float(region.alphas.min()), float(region.alphas.max())
    span = (xmax - xmin) or 1.0
    frame = _Frame(70, 40, 500, 380, (xmin - 0.05 * span, xmax + 0.05 * span), (0.0, ymax))

    body = frame.axes("alpha", "beta")
    if title:
        body.append(f'<text x="320" y="24" font-size="14" text-anchor="middle">{title}</text>')
    styles = [("necessary", "", "black"), ("criterion", "7,4", "black"), ("sufficient", "10,3,2,3", "black")]
    for (name, dash, color), curve in zip(styles, curves):
        body.append(frame.polyline(region.overlays.alphas, curve, dash=dash, color=color))
        body.append(
            f'<text x="{frame.x0 + frame.width - 4:.1f}" y="{frame.py(float(curve[-1])) - 5:.1f}" '
            f'font-size="10" text-anchor="end">{name}</text>'
        )
    for i, alpha in enumerate(region.alphas):
        betas, verdicts = region.column(i)
        for beta, verdict in zip(betas, verdicts):
            cx, cy = frame.px(float(alpha)), frame.py(float(beta))
            if verdict.classification is Classification.CONSERVATIVE:
                body.append(f'<circle cx="{cx:.1f}" cy="{cy:.1f}" r="4" fill="black"/>')
            elif verdict.classification is Classification.NON_CONSERVATIVE:
                body.append(f'<circle cx="{cx:.1f}" cy="{cy:.1f}" r="4" fill="white" stroke="black"/>')
            else:
                body.append(
                    f'<path d="M {cx - 4:.1f} {cy - 4:.1f} L {cx + 4:.1f} {cy + 4:.1f} '
                    f'M {cx - 4:.1f} {cy + 4:.1f} L {cx + 4:.1f} {cy - 4:.1f}" stroke="black" stroke-width="1.5"/>'
                )
    return _svg_document(640, 480, body)


def profile_svg(state: MeshState, title: str = "") -> str:
    """Density and velocity vs x, stacked panels."""
    x = state.mesh.nodes
    panels = [("rho", state.rho), ("u", state.u)]
    body = []
    if title:
        body.append(f'<text x="320" y="20" font-size="14" text-anchor="middle">{title}</text>')
    for idx, (label, values) in enumerate(panels):
        lo, hi = float(np.min(values)), float(np.max(values))
        pad = 0.05 * (hi - lo or 1.0)
        frame = _Frame(70, 40 + idx * 290, 520, 240, (float(x[0]), float(x[-1])), (lo - pad, hi + pad))
        body.extend(frame.axes("x", label))
        body.append(frame.polyline(x, values))
    return _svg_document(660, 640, body)
