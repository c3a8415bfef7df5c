"""CSV and SVG emission.  All writes are atomic (temp file + rename) and all
formatting is deterministic, so identical inputs give byte-identical files.
The bulk float CSVs are formatted a run of equal rows at a time (_run_texts), the
small tables a row at a time (write_table).  Neither quotes: no float repr, "" (for
None), int, True/False or enum name holds a comma, a quote or a line break.  An SVG
polyline keeps only the two ends of each horizontal run of its points (_Frame.polyline)."""

from __future__ import annotations

import errno
import os

import numpy as np

from .errors import LengthMismatch
from .experiments import Classification, RegionMap
from .mesh import MeshState
from .schemes import Trajectory


def atomic_write_text(path: str, *texts: str) -> None:
    """Writes the concatenation of texts."""
    directory = os.path.dirname(os.path.abspath(path))
    if os.path.exists(directory) and not os.path.isdir(directory):  # makedirs says "File exists"
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), directory)
    if os.path.isdir(path) and not os.path.islink(path):   # os.replace fails only after the write
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")  # fits where path's name fits
    # created as open(path, "w") creates a file: mode 0o666 less the umask
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as f:
            f.writelines(texts)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(float(x))  # np.float64 is a float whose repr is "np.float64(...)"
    return str(x)


def write_table(path: str, header, rows) -> None:
    """One line per row, the header first: its values through _fmt, joined by commas."""
    atomic_write_text(path, *(",".join(map(_fmt, row)) + "\n" for row in (header, *rows)))


def _run_texts(x_text, fmt, *columns) -> list[str]:
    """The text of each run of entries equal bit for bit in every column (a value compare
    would join -0.0 and 0.0), in turn: its x texts joined by, then followed by, fmt of
    the run's values.  Equal to fmt per entry, since fmt reads only its own values."""
    bits = [np.asarray(c, dtype=float).view(np.int64) for c in columns]
    cuts = np.flatnonzero(np.logical_or.reduce([b[1:] != b[:-1] for b in bits])) + 1
    starts = [0, *cuts.tolist()]
    tails = map(fmt, *(b[starts].view(float).tolist() for b in bits))
    return [text for a, b, tail in zip(starts, [*starts[1:], len(x_text)], tails)
            for text in (tail.join(x_text[a:b]), tail)]


def write_snapshot_csv(path: str, state: MeshState, x_text: list[str] | None = None) -> list[str]:
    """The text of write_table, a run of rows equal in rho and u at a time (_run_texts).
    Returns the node column's text, to pass back for states on the same mesh."""
    if x_text is None:
        x_text = list(map(repr, state.mesh.nodes.tolist()))
    if len(x_text) != state.mesh.n:
        raise LengthMismatch(f"x_text has {len(x_text)} entries for a mesh of {state.mesh.n} nodes")
    atomic_write_text(path, "x,rho,u\n", *_run_texts(x_text, ",{!r},{!r}\n".format, state.rho, state.u))
    return x_text


def write_diagnostics_csv(path: str, traj: Trajectory) -> None:
    """The text of write_table, a run of rows equal in every column but t at a time (_run_texts)."""
    d = traj.diagnostics
    atomic_write_text(path, "t,mass,momentum,min_rho,max_abs_u\n",
                      *_run_texts(list(map(repr, d.t.tolist())), ",{!r},{!r},{!r},{!r}\n".format,
                                  d.mass, d.momentum, d.min_rho, d.max_abs_u))


def write_region_csv(path: str, region: RegionMap) -> None:
    write_table(path, ["alpha", "beta", "verdict", "oscillation_score"],
                [(alpha, beta, v.classification.value, v.oscillation_score)
                 for i, alpha in enumerate(region.alphas) for beta, v in zip(*region.column(i))])


def write_overlay_csv(path: str, region: RegionMap) -> None:
    ov = region.overlays
    sufficient = [None] * len(ov.alphas) if ov.sufficient is None else ov.sufficient
    write_table(path, ["alpha", "beta_necessary", "beta_criterion", "beta_sufficient"],
                zip(ov.alphas, ov.necessary, ov.criterion, sufficient))


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

    def axes(self, xlabel: str, ylabel: str) -> list[str]:
        parts = [
            f'<rect x="{self.x0:.1f}" y="{self.y0:.1f}" width="{self.width:.1f}" '
            f'height="{self.height:.1f}" fill="none" stroke="black" stroke-width="1"/>'
        ]
        for fx in (0.0, 0.25, 0.5, 0.75, 1.0):
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

    def polyline(self, xs, ys, dash: str = "") -> str:
        """Of each run of points whose pixel y is equal bit for bit and whose pixel x
        ascends, only the two ends: the points between lie on the segment joining them."""
        with np.errstate(all="ignore"):              # a value past the float range maps to inf or nan
            px, py = self.px(np.asarray(xs, dtype=float)), self.py(np.asarray(ys, dtype=float))
        y, keep = py.view(np.int64), np.ones(py.size, dtype=bool)
        keep[1:-1] = ~((y[:-2] == y[1:-1]) & (y[1:-1] == y[2:]) & (px[:-2] <= px[1:-1]) & (px[1:-1] <= px[2:]))
        xy = np.stack((px[keep], py[keep]), axis=1).ravel().tolist()
        pts = ("%.2f,%.2f " * (len(xy) // 2) % tuple(xy))[:-1]    # %.2f formats as {:.2f} does
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        return f'<polyline points="{pts}" fill="none" stroke="black" stroke-width="1.5"{dash_attr}/>'


def _svg_document(width: int, height: int, body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n<rect width="100%" height="100%" fill="white"/>\n'
    )
    return head + "\n".join(body) + "\n</svg>\n"


def region_map_svg(region: RegionMap, title: str) -> str:
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
    body.append(f'<text x="320" y="24" font-size="14" text-anchor="middle">{title}</text>')
    styles = [("necessary", ""), ("criterion", "7,4"), ("sufficient", "10,3,2,3")]
    for (name, dash), curve in zip(styles, curves):
        body.append(frame.polyline(region.overlays.alphas, curve, dash=dash))
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


def profile_svg(state: MeshState, title: str) -> str:
    """Density and velocity vs x, stacked panels."""
    x = state.mesh.nodes
    panels = [("rho", state.rho), ("u", state.u)]
    body = [f'<text x="320" y="20" font-size="14" text-anchor="middle">{title}</text>']
    for idx, (label, values) in enumerate(panels):
        lo, hi = float(np.min(values)), float(np.max(values))
        pad = 0.05 * (hi - lo or 1.0)
        frame = _Frame(70, 40 + idx * 290, 520, 240, (float(x[0]), float(x[-1])), (lo - pad, hi + pad))
        body.extend(frame.axes("x", label))
        body.append(frame.polyline(x, values))
    return _svg_document(660, 640, body)
